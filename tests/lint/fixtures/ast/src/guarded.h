// Fixture: guarded-by-required.
//
// In a class that owns a util::Mutex, every mutable data member must
// carry SSJOIN_GUARDED_BY (or an allow-comment); classes without a
// Mutex member are out of the rule's scope. Local stand-ins for the
// macro and Mutex keep the fixture self-contained; the lint keys on names.
#pragma once

#define SSJOIN_GUARDED_BY(x)

namespace util {
class Mutex {};
}  // namespace util

namespace fixture {

class BadRegistry {
 public:
  int value() const { return value_; }

 private:
  util::Mutex mutex_;
  int value_ = 0;  // expect(guarded-by-required)
};

class GoodRegistry {
 private:
  util::Mutex mutex_;
  int value_ SSJOIN_GUARDED_BY(mutex_) = 0;
  // Written once before the workers start, read-only afterwards:
  int epoch_ = 0;  // ssjoin-lint: allow(guarded-by-required)
};

class NoLock {
 private:
  int value_ = 0;  // no Mutex member in this class: rule does not apply
};

}  // namespace fixture
