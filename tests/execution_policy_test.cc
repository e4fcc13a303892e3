// ExecutionPolicy (reason/policy.h): the engine-options API. Covers the
// options-validation rules that reject inert knob combinations, and the
// kernel-backend name round-trip the env override depends on.

#include <gtest/gtest.h>

#include <string>

#include "match/kernels/kernel.h"
#include "match/kernels/registry.h"
#include "reason/policy.h"
#include "reason/validation.h"

namespace ged {
namespace {

TEST(ExecutionPolicy, DefaultPolicyIsValid) {
  EXPECT_TRUE(ValidateExecutionPolicy(ExecutionPolicy{}).ok());
}

TEST(ExecutionPolicy, RejectsForcedKernelWithLegacyJoin) {
  // Rule 1: a forced SIMD backend can never run under the pick-smallest
  // generator — inert knobs are errors now.
  ExecutionPolicy policy;
  policy.join = JoinStrategy::kPickSmallest;
  policy.kernel = KernelBackend::kScalar;
  Status s = ValidateExecutionPolicy(policy);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ExecutionPolicy, RejectsUnavailableKernelBackend) {
  // Rule 2: an explicit backend this binary/host cannot serve is rejected
  // up front (ResolveKernel would silently fall back — the policy layer is
  // where "I require X" gets its hard answer).
  bool found_missing = false;
  for (KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    ExecutionPolicy policy;
    policy.kernel = b;
    Status s = ValidateExecutionPolicy(policy);
    if (KernelAvailable(b)) {
      EXPECT_TRUE(s.ok()) << KernelBackendName(b);
    } else {
      found_missing = true;
      ASSERT_FALSE(s.ok()) << KernelBackendName(b);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      // The error teaches the fix: it lists what is available.
      EXPECT_NE(s.message().find("available"), std::string::npos)
          << s.message();
    }
  }
  // At least one of AVX2/NEON is absent on any single-ISA host; if a future
  // host serves both, the available half of the loop still ran.
  (void)found_missing;
}

TEST(ExecutionPolicy, ScalarKernelAlwaysValidatesUnderAutoJoin) {
  ExecutionPolicy policy;
  policy.kernel = KernelBackend::kScalar;
  EXPECT_TRUE(ValidateExecutionPolicy(policy).ok());
}

// ----- backend name round-trip ----------------------------------------------

TEST(KernelBackendNames, ParseRoundTripsEveryName) {
  for (KernelBackend b : {KernelBackend::kAuto, KernelBackend::kScalar,
                          KernelBackend::kAvx2, KernelBackend::kNeon}) {
    KernelBackend parsed = KernelBackend::kScalar;
    ASSERT_TRUE(ParseKernelBackend(KernelBackendName(b), &parsed))
        << KernelBackendName(b);
    EXPECT_EQ(parsed, b);
  }
  KernelBackend parsed = KernelBackend::kAuto;
  EXPECT_FALSE(ParseKernelBackend("sse9", &parsed));
  EXPECT_FALSE(ParseKernelBackend("", &parsed));
}

TEST(PolicyNames, StableLowercaseNames) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kAuto), "auto");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kPickSmallest),
               "pick_smallest");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
}

}  // namespace
}  // namespace ged
