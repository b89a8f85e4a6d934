// Update-batch validation against the live contraction structure: the
// ChangeSet preconditions (change_set.hpp) checked in O(m log n) expected
// work, where forest::check_change_set needs an O(n) forest copy.
//
// The local rules (duplicates, presence, E- membership, E+ endpoints, one
// parent per child, degree bound) read the structure's round-0 records,
// which are the current forest. Cycle freedom comes from union-find over
// the pre-edit trees of the E+ endpoints, named by their RC roots. Only a
// batch whose E+ edges re-link inside one pre-edit tree (an E- ∩ E+
// bounce, a subtree move within its tree) falls back to the exact check
// on an extracted forest.
#pragma once

#include <optional>
#include <string>

#include "forest/change_set.hpp"
#include "rc/rc_forest.hpp"

namespace parct::rc {

struct ChangeSetVerdict {
  /// Why the batch is invalid, or nullopt if it is valid.
  std::optional<std::string> error;
  /// True if the verdict came from forest::check_change_set on an
  /// extracted forest (O(n)), not from the O(m log n) rules.
  bool exact = false;
};

/// Checks every ChangeSet precondition of `m` against the forest that
/// `rcf.structure()` represents. `rcf` must be current: rebuilt or
/// refreshed after the structure's last update. The verdict (valid or
/// not) equals forest::check_change_set's on that forest.
ChangeSetVerdict validate_change_set(const RCForest& rcf,
                                     const forest::ChangeSet& m);

}  // namespace parct::rc
