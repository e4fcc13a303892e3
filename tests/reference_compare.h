// Test-side glue between engine reports and the reference validator
// (tests/reference/): converts engine rows into reference rows so the two
// can be compared with one EXPECT_EQ. Kept out of tests/reference/ so the
// reference library itself never sees the engine's headers.

#ifndef GEDLIB_TESTS_REFERENCE_COMPARE_H_
#define GEDLIB_TESTS_REFERENCE_COMPARE_H_

#include <vector>

#include "reason/validation.h"
#include "reference/reference_validator.h"

namespace ged {

/// The engine's violation rows in the reference's row type.
inline std::vector<reference::RefViolation> RefRows(
    const std::vector<Violation>& violations) {
  std::vector<reference::RefViolation> rows;
  rows.reserve(violations.size());
  for (const Violation& v : violations) {
    rows.push_back({v.ged_index, std::vector<NodeId>(v.match.begin(),
                                                     v.match.end())});
  }
  return rows;
}

/// The reference's injectivity flag for a match semantics.
inline bool Injective(MatchSemantics semantics) {
  return semantics == MatchSemantics::kIsomorphism;
}

}  // namespace ged

#endif  // GEDLIB_TESTS_REFERENCE_COMPARE_H_
