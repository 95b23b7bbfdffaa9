// Deterministic fanout-k relay tree over a committee.
//
// Shape: sort the live members (the §4.1 total order all participants
// already share), lay them out as an implicit k-ary heap — children of
// position i are k·i+1 .. k·i+k — and root the tree at the lowest live
// member, which is exactly the exit-barrier leader every participant
// already tracks. The tree is a pure function of (member list, excluded
// set, fanout): every member computes the same one locally from shared
// state, with no tree-construction protocol and nothing extra to agree on.
// Self-healing is recomputation — excluding a crashed member re-packs the
// live list and every survivor lands on the same repaired tree (rippled's
// squelched relay mesh converges the same way, by deterministic re-selection
// rather than repair messages).
//
// The tree borrows the committee: it keeps a pointer to the caller's sorted
// member list (InstanceInfo::members, which outlives every participant's
// scopes) and owns a live list of its own only after a rebuild that
// excludes someone. A healthy tree costs O(1) memory per member instead of
// an O(N) copy.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "util/ids.h"

namespace caa::overlay {

class RelayTree {
 public:
  RelayTree() = default;
  /// `members` must be sorted and duplicate-free (InstanceInfo order), and
  /// must outlive the tree: it is borrowed, not copied.
  RelayTree(const std::vector<ObjectId>& members, std::uint32_t fanout);
  RelayTree(std::vector<ObjectId>&&, std::uint32_t) = delete;

  /// Recomputes the live layout from the full member list minus `excluded`.
  void rebuild(const std::set<ObjectId>& excluded);

  [[nodiscard]] bool contains(ObjectId member) const;
  [[nodiscard]] std::size_t live_count() const { return live().size(); }
  [[nodiscard]] std::uint32_t fanout() const { return fanout_; }
  /// The full (borrowed) committee, excluded members included; a member's
  /// index here is its rank.
  [[nodiscard]] const std::vector<ObjectId>& committee() const {
    return *committee_;
  }
  [[nodiscard]] ObjectId root() const;

  /// Tree neighbors (parent + children) of a live member.
  [[nodiscard]] std::vector<ObjectId> neighbors_of(ObjectId member) const;

  /// The neighbor to forward to next on the unique tree path from `self`
  /// towards `target`. Both must be live and distinct.
  [[nodiscard]] ObjectId next_hop(ObjectId self, ObjectId target) const;

  /// Hop distance from the root to `member` (root = 0).
  [[nodiscard]] std::uint32_t depth_of(ObjectId member) const;

  /// FNV-1a digest of the live layout (members, order, fanout): two
  /// replicas agree on the tree iff their fingerprints match.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  /// The live members; index = heap position.
  [[nodiscard]] const std::vector<ObjectId>& live() const {
    return healed_ ? healed_live_ : *committee_;
  }
  [[nodiscard]] std::size_t position_of(ObjectId member) const;

  const std::vector<ObjectId>* committee_ = &kNoMembers;  // borrowed, sorted
  std::vector<ObjectId> healed_live_;  // committee minus excluded
  bool healed_ = false;                // healed_live_ is the live list
  std::uint32_t fanout_ = 8;

  static const std::vector<ObjectId> kNoMembers;
};

}  // namespace caa::overlay
