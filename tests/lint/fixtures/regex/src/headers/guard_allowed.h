// Fixture: pragma-once suppression — the #ifndef guard is allowed; the
// missing-pragma report at line 1 is not suppressible, so the
// once-pragma stays.
#pragma once
// Guard kept for a header also read by a C toolchain, justified suppression:
#ifndef FIXTURE_GUARD_ALLOWED_H_  // ssjoin-lint: allow(pragma-once)
#define FIXTURE_GUARD_ALLOWED_H_

namespace fixture {
struct GuardAllowed {};
}  // namespace fixture

#endif  // FIXTURE_GUARD_ALLOWED_H_
