// Fixture: no-using-namespace suppression.
#pragma once

namespace fixture {
// Scoped to this namespace for literal suffixes, justified suppression:
using namespace std::literals;  // ssjoin-lint: allow(no-using-namespace)
struct UsingNsAllowed {};
}  // namespace fixture
