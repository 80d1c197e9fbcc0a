// A check-failure handler that throws, so that a test can assert that a
// contract (ALPU_ASSERT and friends) fires without aborting the process.
#pragma once

#include <stdexcept>

#include "common/check.hpp"

namespace alpu::testutil {

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Installs the throwing check handler for one test body.
class ThrowingChecks {
 public:
  ThrowingChecks() : previous_(common::set_check_failure_handler(thrower)) {}
  ~ThrowingChecks() { common::set_check_failure_handler(previous_); }
  ThrowingChecks(const ThrowingChecks&) = delete;
  ThrowingChecks& operator=(const ThrowingChecks&) = delete;

 private:
  [[noreturn]] static void thrower(const char*, int, const char* expr,
                                   const char* msg, common::CheckSeverity) {
    throw CheckFailure(msg != nullptr && msg[0] != '\0' ? msg : expr);
  }
  common::CheckFailureHandler previous_;
};

}  // namespace alpu::testutil
