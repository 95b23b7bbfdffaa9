#include "overlay/relay_tree.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash.h"

namespace caa::overlay {

const std::vector<ObjectId> RelayTree::kNoMembers;

RelayTree::RelayTree(const std::vector<ObjectId>& members,
                     std::uint32_t fanout)
    : committee_(&members), fanout_(fanout) {
  CAA_CHECK_MSG(fanout_ >= 1, "RelayTree: fanout must be >= 1");
  CAA_CHECK_MSG(std::is_sorted(members.begin(), members.end()),
                "RelayTree: members must be sorted");
}

void RelayTree::rebuild(const std::set<ObjectId>& excluded) {
  // A rebuild that excludes no one falls back to reading the borrowed list.
  healed_ = !excluded.empty();
  healed_live_.clear();
  if (!healed_) return;
  for (ObjectId m : *committee_) {
    if (!excluded.contains(m)) healed_live_.push_back(m);
  }
}

bool RelayTree::contains(ObjectId member) const {
  const std::vector<ObjectId>& live = this->live();
  const auto it = std::lower_bound(live.begin(), live.end(), member);
  return it != live.end() && *it == member;
}

ObjectId RelayTree::root() const {
  CAA_CHECK_MSG(!live().empty(), "RelayTree: no live members");
  return live().front();
}

std::size_t RelayTree::position_of(ObjectId member) const {
  const std::vector<ObjectId>& live = this->live();
  const auto it = std::lower_bound(live.begin(), live.end(), member);
  CAA_CHECK_MSG(it != live.end() && *it == member,
                "RelayTree: member not live");
  return static_cast<std::size_t>(it - live.begin());
}

std::vector<ObjectId> RelayTree::neighbors_of(ObjectId member) const {
  const std::vector<ObjectId>& live = this->live();
  const std::size_t pos = position_of(member);
  std::vector<ObjectId> out;
  if (pos != 0) out.push_back(live[(pos - 1) / fanout_]);
  const std::size_t first_child = pos * fanout_ + 1;
  for (std::size_t c = first_child;
       c < first_child + fanout_ && c < live.size(); ++c) {
    out.push_back(live[c]);
  }
  return out;
}

ObjectId RelayTree::next_hop(ObjectId self, ObjectId target) const {
  CAA_CHECK_MSG(self != target, "RelayTree: next_hop to self");
  const std::size_t self_pos = position_of(self);
  // Walk the target's ancestor chain towards the root; if it passes through
  // `self`, the hop is the chain link just below us (descend into the right
  // subtree), otherwise the path goes through our own parent first.
  std::size_t cur = position_of(target);
  while (cur != 0) {
    const std::size_t parent = (cur - 1) / fanout_;
    if (parent == self_pos) return live()[cur];
    cur = parent;
  }
  CAA_CHECK_MSG(self_pos != 0, "RelayTree: root is an ancestor of everyone");
  return live()[(self_pos - 1) / fanout_];
}

std::uint32_t RelayTree::depth_of(ObjectId member) const {
  std::size_t pos = position_of(member);
  std::uint32_t depth = 0;
  while (pos != 0) {
    pos = (pos - 1) / fanout_;
    ++depth;
  }
  return depth;
}

std::uint64_t RelayTree::fingerprint() const {
  std::uint64_t h = fnv1a64_mix(kFnv1a64Offset, fanout_);
  for (ObjectId m : live()) h = fnv1a64_mix(h, m.value());
  return h;
}

}  // namespace caa::overlay
