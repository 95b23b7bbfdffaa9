#include "overlay/disseminator.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace caa::overlay {
namespace {

// Interned once per process; flat-mode worlds never touch these, so the
// non-zero-only counter rendering keeps their checksums byte-identical.
struct OverlayCounterIds {
  CounterId envelopes = CounterId::of("overlay.envelopes");
  CounterId items = CounterId::of("overlay.items_relayed");
  CounterId squelched = CounterId::of("overlay.squelched");
  CounterId acks_merged = CounterId::of("overlay.acks_merged");
  CounterId heals = CounterId::of("overlay.heals");
  CounterId heal_items = CounterId::of("overlay.heal_items");
  CounterId cache_overflow = CounterId::of("overlay.cache_overflow");
  CounterId dead_target = CounterId::of("overlay.dropped_dead_target");
  CounterId malformed = CounterId::of("overlay.malformed");
  CounterId multi_groups = CounterId::of("overlay.multi_groups");
  CounterId multi_targets = CounterId::of("overlay.multi_targets");
};

const OverlayCounterIds& counter_ids() {
  static const OverlayCounterIds ids;
  return ids;
}

void set_bit(net::Bytes& bits, std::size_t rank) {
  bits[rank >> 3] |= static_cast<std::byte>(1u << (rank & 7));
}

bool bit_set(const net::Bytes& bits, std::size_t rank) {
  if ((rank >> 3) >= bits.size()) return false;
  return (bits[rank >> 3] & static_cast<std::byte>(1u << (rank & 7))) !=
         std::byte{0};
}

}  // namespace

void Disseminator::configure(ObjectId self, Hooks hooks, Counters* counters,
                             obs::HealthGauges* health) {
  self_ = self;
  hooks_ = std::move(hooks);
  counters_ = counters;
  health_ = health;
}

void Disseminator::sync_backlog() {
  if (health_ == nullptr) return;
  std::int64_t backlog = 0;
  for (const auto& [id, s] : scopes_) {
    for (const auto& [neighbor, box] : s.outbox) {
      backlog += static_cast<std::int64_t>(box.floods.size()) +
                 static_cast<std::int64_t>(box.routes.size()) +
                 static_cast<std::int64_t>(box.acks.size()) +
                 static_cast<std::int64_t>(box.multis.size());
    }
  }
  if (backlog != backlog_gauge_) {
    health_->add(obs::Gauge::kOverlayOutboxBacklog, backlog - backlog_gauge_);
    backlog_gauge_ = backlog;
  }
}

void Disseminator::register_scope(ActionInstanceId scope,
                                  const std::vector<ObjectId>& members,
                                  const OverlayParams& params,
                                  const std::set<ObjectId>& crashed) {
  CAA_CHECK_MSG(self_.valid(), "Disseminator: configure() before use");
  if (scopes_.contains(scope)) return;
  Scope s;
  s.params = params;
  s.tree = RelayTree(members, std::max<std::uint32_t>(1, params.fanout));
  for (ObjectId m : members) {
    if (crashed.contains(m)) s.excluded.insert(m);
  }
  if (!s.excluded.empty()) s.tree.rebuild(s.excluded);
  scopes_.emplace(scope, std::move(s));
}

const RelayTree* Disseminator::tree_of(ActionInstanceId scope) const {
  const auto it = scopes_.find(scope);
  return it == scopes_.end() ? nullptr : &it->second.tree;
}

Disseminator::Scope& Disseminator::scope_state(ActionInstanceId scope) {
  const auto it = scopes_.find(scope);
  CAA_CHECK_MSG(it != scopes_.end(), "Disseminator: scope not registered");
  return it->second;
}

Disseminator::Outbox& Disseminator::outbox_for(ActionInstanceId scope,
                                               Scope& s, ObjectId neighbor) {
  if (!s.flush_scheduled) {
    s.flush_scheduled = true;
    hooks_.schedule(s.params.coalesce_delay,
                    [this, scope] { flush(scope); });
  }
  return s.outbox[neighbor];
}

void Disseminator::flush(ActionInstanceId scope) {
  const auto it = scopes_.find(scope);
  if (it == scopes_.end()) return;  // cleared (restart) before the flush fired
  Scope& s = it->second;
  s.flush_scheduled = false;
  if (s.outbox.empty()) return;
  // Detach the boxes first: send_envelope feeds the network, and nothing a
  // re-entrant enqueue adds may end up in a half-encoded envelope.
  std::map<ObjectId, Outbox> boxes = std::move(s.outbox);
  s.outbox.clear();
  net::WireWriter w;
  for (auto& [neighbor, box] : boxes) {
    if (box.empty()) continue;
    w.u64(scope.value());
    // Floods come first, then routed unicasts, then ack tallies: a relayed
    // Exception always reaches the engine before any ACK that answers it,
    // preserving the per-origin FIFO the flat protocol gets from the links.
    w.u32(static_cast<std::uint32_t>(box.floods.size()));
    for (FloodItem& f : box.floods) {
      w.u32(f.origin.value());
      w.u32(f.seq);
      w.u16(static_cast<std::uint16_t>(f.kind));
      w.blob(f.payload);
      net::BytesPool::local().recycle(std::move(f.payload));
    }
    w.u32(static_cast<std::uint32_t>(box.routes.size()));
    for (RouteItem& rt : box.routes) {
      w.u32(rt.target.value());
      w.u32(rt.origin.value());
      w.u16(static_cast<std::uint16_t>(rt.kind));
      w.blob(rt.payload);
      net::BytesPool::local().recycle(std::move(rt.payload));
    }
    w.u32(static_cast<std::uint32_t>(box.acks.size()));
    for (auto& [key, bits] : box.acks) {
      w.u32(key.first.value());
      w.u32(key.second);
      w.blob(bits);
    }
    w.u32(static_cast<std::uint32_t>(box.multis.size()));
    for (MultiItem& m : box.multis) {
      w.u32(static_cast<std::uint32_t>(m.targets.size()));
      for (ObjectId t : m.targets) w.u32(t.value());
      w.u32(m.origin.value());
      w.u16(static_cast<std::uint16_t>(m.kind));
      w.blob(m.payload);
      net::BytesPool::local().recycle(std::move(m.payload));
    }
    if (counters_ != nullptr) counters_->add(counter_ids().envelopes);
    hooks_.send_envelope(neighbor, w.take());
  }
  sync_backlog();
}

void Disseminator::enqueue_flood(ActionInstanceId scope, Scope& s,
                                 ObjectId neighbor, const FloodItem& item) {
  outbox_for(scope, s, neighbor)
      .floods.push_back({item.origin, item.seq, item.kind,
                         net::BytesPool::local().copy_of(item.payload)});
  if (counters_ != nullptr) counters_->add(counter_ids().items);
}

void Disseminator::cache_flood(Scope& s, FloodItem&& item) {
  if (s.flood_cache.size() >= s.params.heal_cache_limit) {
    if (counters_ != nullptr) counters_->add(counter_ids().cache_overflow);
    net::BytesPool::local().recycle(std::move(item.payload));
    return;
  }
  s.flood_cache.push_back(std::move(item));
}

void Disseminator::cache_route(Scope& s, const RouteItem& item) {
  if (s.route_cache.size() >= s.params.heal_cache_limit) {
    if (counters_ != nullptr) counters_->add(counter_ids().cache_overflow);
    return;
  }
  s.route_cache.push_back({item.target, item.origin, item.kind,
                           net::BytesPool::local().copy_of(item.payload)});
}

void Disseminator::cache_route(Scope& s, RouteItem&& item) {
  if (s.route_cache.size() >= s.params.heal_cache_limit) {
    if (counters_ != nullptr) counters_->add(counter_ids().cache_overflow);
    net::BytesPool::local().recycle(std::move(item.payload));
    return;
  }
  s.route_cache.push_back(std::move(item));
}

void Disseminator::merge_ack(std::map<AckKey, AckBitmap>& into,
                             ObjectId target, std::uint32_t round,
                             const AckBitmap& bits, bool count_merges) {
  auto [it, inserted] = into.try_emplace({target, round}, bits);
  if (inserted) return;
  AckBitmap& have = it->second;
  if (have.size() < bits.size()) have.resize(bits.size(), std::byte{0});
  for (std::size_t i = 0; i < bits.size(); ++i) have[i] |= bits[i];
  if (count_merges && counters_ != nullptr) {
    counters_->add(counter_ids().acks_merged);
  }
}

void Disseminator::flood(ActionInstanceId scope, net::MsgKind kind,
                         const net::Bytes& payload) {
  Scope& s = scope_state(scope);
  FloodItem item{self_, s.next_seq++, kind,
                 net::BytesPool::local().copy_of(payload)};
  s.seen.insert(squelch_key(self_, item.seq));
  for (ObjectId n : s.tree.neighbors_of(self_)) {
    enqueue_flood(scope, s, n, item);
  }
  cache_flood(s, std::move(item));
  sync_backlog();
}

void Disseminator::send_ack(ActionInstanceId scope, std::uint32_t round,
                            ObjectId target) {
  Scope& s = scope_state(scope);
  if (target == self_) {
    hooks_.deliver_ack(scope, round, self_);
    return;
  }
  if (!s.tree.contains(target)) {
    if (counters_ != nullptr) counters_->add(counter_ids().dead_target);
    return;
  }
  const std::vector<ObjectId>& committee = s.tree.committee();
  AckBitmap bits((committee.size() + 7) / 8, std::byte{0});
  set_bit(bits, rank_of(committee, self_));
  merge_ack(s.ack_cache, target, round, bits, /*count_merges=*/false);
  const ObjectId hop = s.tree.next_hop(self_, target);
  merge_ack(outbox_for(scope, s, hop).acks, target, round, bits,
            /*count_merges=*/true);
  sync_backlog();
}

void Disseminator::route(ActionInstanceId scope, ObjectId target,
                         net::MsgKind kind, const net::Bytes& payload) {
  Scope& s = scope_state(scope);
  CAA_CHECK_MSG(target != self_, "Disseminator: route to self");
  if (!s.tree.contains(target)) {
    if (counters_ != nullptr) counters_->add(counter_ids().dead_target);
    return;
  }
  RouteItem item{target, self_, kind,
                 net::BytesPool::local().copy_of(payload)};
  cache_route(s, item);
  const ObjectId hop = s.tree.next_hop(self_, target);
  outbox_for(scope, s, hop).routes.push_back(std::move(item));
  if (counters_ != nullptr) counters_->add(counter_ids().items);
  sync_backlog();
}

void Disseminator::forward_multi(ActionInstanceId scope, Scope& s,
                                 const std::vector<ObjectId>& targets,
                                 ObjectId origin, net::MsgKind kind,
                                 const net::Bytes& payload) {
  // Partition the live targets by next hop; each group shares ONE payload
  // copy on its edge. The heal cache keeps per-target RouteItems instead —
  // after a rebuild the groups would be stale anyway, and the route-cache
  // re-offer machinery already re-partitions towards current next hops.
  std::map<ObjectId, std::vector<ObjectId>> by_hop;
  for (ObjectId target : targets) {
    CAA_CHECK_MSG(target != self_, "Disseminator: route_multi to self");
    if (!s.tree.contains(target)) {
      if (counters_ != nullptr) counters_->add(counter_ids().dead_target);
      continue;
    }
    by_hop[s.tree.next_hop(self_, target)].push_back(target);
    cache_route(s, RouteItem{target, origin, kind,
                             net::BytesPool::local().copy_of(payload)});
  }
  for (auto& [hop, group] : by_hop) {
    if (counters_ != nullptr) {
      counters_->add(counter_ids().multi_groups);
      counters_->add(counter_ids().multi_targets,
                     static_cast<std::int64_t>(group.size()));
    }
    outbox_for(scope, s, hop).multis.push_back(
        MultiItem{std::move(group), origin, kind,
                  net::BytesPool::local().copy_of(payload)});
  }
}

void Disseminator::route_multi(ActionInstanceId scope,
                               const std::vector<ObjectId>& targets,
                               net::MsgKind kind, const net::Bytes& payload) {
  forward_multi(scope, scope_state(scope), targets, self_, kind, payload);
  sync_backlog();
}

void Disseminator::on_envelope(ObjectId from, const net::Bytes& payload) {
  const auto bump_malformed = [this] {
    if (counters_ != nullptr) counters_->add(counter_ids().malformed);
  };
  net::WireReader r(payload);
  const auto scope_raw = r.u64();
  if (!scope_raw) return bump_malformed();
  const ActionInstanceId scope(scope_raw.value());
  const auto it = scopes_.find(scope);
  if (it == scopes_.end()) return;  // unmanaged (abandoned after restart)
  Scope& s = it->second;

  const auto flood_count = r.u32();
  if (!flood_count) return bump_malformed();
  for (std::uint32_t i = 0; i < flood_count.value(); ++i) {
    const auto origin_raw = r.u32();
    const auto seq = r.u32();
    const auto kind_raw = r.u16();
    auto body = r.blob();
    if (!origin_raw || !seq || !kind_raw || !body) return bump_malformed();
    const ObjectId origin(origin_raw.value());
    const auto kind = static_cast<net::MsgKind>(kind_raw.value());
    if (!s.seen.insert(squelch_key(origin, seq.value())).second) {
      if (counters_ != nullptr) counters_->add(counter_ids().squelched);
      continue;
    }
    FloodItem item{origin, seq.value(), kind, std::move(body).take()};
    // Forward before delivering: relay duty must not depend on what the
    // local engine does with the message.
    for (ObjectId n : s.tree.neighbors_of(self_)) {
      if (n == from || n == origin) continue;
      enqueue_flood(scope, s, n, item);
    }
    hooks_.deliver(scope, origin, kind, item.payload);
    cache_flood(s, std::move(item));
  }

  const auto route_count = r.u32();
  if (!route_count) return bump_malformed();
  for (std::uint32_t i = 0; i < route_count.value(); ++i) {
    const auto target_raw = r.u32();
    const auto origin_raw = r.u32();
    const auto kind_raw = r.u16();
    auto body = r.blob();
    if (!target_raw || !origin_raw || !kind_raw || !body) {
      return bump_malformed();
    }
    const ObjectId target(target_raw.value());
    const ObjectId origin(origin_raw.value());
    const auto kind = static_cast<net::MsgKind>(kind_raw.value());
    net::Bytes bytes = std::move(body).take();
    if (target == self_) {
      hooks_.deliver(scope, origin, kind, bytes);
      net::BytesPool::local().recycle(std::move(bytes));
      continue;
    }
    if (!s.tree.contains(target)) {
      if (counters_ != nullptr) counters_->add(counter_ids().dead_target);
      net::BytesPool::local().recycle(std::move(bytes));
      continue;
    }
    RouteItem item{target, origin, kind, std::move(bytes)};
    cache_route(s, item);
    outbox_for(scope, s, s.tree.next_hop(self_, target))
        .routes.push_back(std::move(item));
    if (counters_ != nullptr) counters_->add(counter_ids().items);
  }

  const auto ack_count = r.u32();
  if (!ack_count) return bump_malformed();
  for (std::uint32_t i = 0; i < ack_count.value(); ++i) {
    const auto target_raw = r.u32();
    const auto round = r.u32();
    auto bits_res = r.blob();
    if (!target_raw || !round || !bits_res) return bump_malformed();
    const ObjectId target(target_raw.value());
    AckBitmap bits = std::move(bits_res).take();
    if (target == self_) {
      deliver_ack_bitmap(scope, s, round.value(), bits);
    } else if (s.tree.contains(target)) {
      merge_ack(s.ack_cache, target, round.value(), bits,
                /*count_merges=*/false);
      merge_ack(
          outbox_for(scope, s, s.tree.next_hop(self_, target)).acks,
          target, round.value(), bits, /*count_merges=*/true);
    } else if (counters_ != nullptr) {
      counters_->add(counter_ids().dead_target);
    }
    net::BytesPool::local().recycle(std::move(bits));
  }

  const auto multi_count = r.u32();
  if (!multi_count) return bump_malformed();
  for (std::uint32_t i = 0; i < multi_count.value(); ++i) {
    const auto target_count = r.u32();
    if (!target_count) return bump_malformed();
    std::vector<ObjectId> targets;
    targets.reserve(target_count.value());
    bool mine = false;
    for (std::uint32_t t = 0; t < target_count.value(); ++t) {
      const auto target_raw = r.u32();
      if (!target_raw) return bump_malformed();
      const ObjectId target(target_raw.value());
      if (target == self_) {
        mine = true;
      } else {
        targets.push_back(target);
      }
    }
    const auto origin_raw = r.u32();
    const auto kind_raw = r.u16();
    auto body = r.blob();
    if (!origin_raw || !kind_raw || !body) return bump_malformed();
    const ObjectId origin(origin_raw.value());
    const auto kind = static_cast<net::MsgKind>(kind_raw.value());
    net::Bytes bytes = std::move(body).take();
    // Forward the remainder of the group before delivering our share — the
    // same relay-duty-first ordering the flood path keeps.
    if (!targets.empty()) forward_multi(scope, s, targets, origin, kind, bytes);
    if (mine) hooks_.deliver(scope, origin, kind, bytes);
    net::BytesPool::local().recycle(std::move(bytes));
  }
  sync_backlog();
}

void Disseminator::deliver_ack_bitmap(ActionInstanceId scope, const Scope& s,
                                      std::uint32_t round,
                                      const AckBitmap& bits) {
  const std::vector<ObjectId>& committee = s.tree.committee();
  for (std::size_t rank = 0; rank < committee.size(); ++rank) {
    if (bit_set(bits, rank)) {
      hooks_.deliver_ack(scope, round, committee[rank]);
    }
  }
}

Result<ActionInstanceId> Disseminator::peek_envelope_scope(
    const net::Bytes& payload) {
  net::WireReader r(payload);
  auto scope_raw = r.u64();
  if (!scope_raw) return scope_raw.status();
  return ActionInstanceId(scope_raw.value());
}

void Disseminator::on_peer_crashed(ObjectId peer) {
  for (auto& [scope, s] : scopes_) {
    const std::vector<ObjectId>& committee = s.tree.committee();
    if (!std::binary_search(committee.begin(), committee.end(), peer)) {
      continue;
    }
    if (!s.excluded.insert(peer).second) continue;
    const bool was_live = s.tree.contains(self_);
    const std::vector<ObjectId> before =
        was_live ? s.tree.neighbors_of(self_) : std::vector<ObjectId>{};
    s.tree.rebuild(s.excluded);
    // Anything queued for the dead peer is covered by the re-offers below
    // (floods by the new-neighbor cache replay, routes/acks by re-routing).
    s.outbox.erase(peer);
    if (!s.tree.contains(self_) || s.tree.live_count() < 2) continue;
    if (counters_ != nullptr) counters_->add(counter_ids().heals);
    // Re-offer the flood cache to neighbors the repaired tree added: every
    // member whose parent died (or shifted) is a new child of its new
    // parent, so the parents collectively re-cover the orphaned subtrees;
    // squelching absorbs the overlap.
    const std::vector<ObjectId> now = s.tree.neighbors_of(self_);
    for (ObjectId n : now) {
      if (std::find(before.begin(), before.end(), n) != before.end()) {
        continue;
      }
      for (const FloodItem& f : s.flood_cache) {
        if (f.origin == n) continue;
        enqueue_flood(scope, s, n, f);
        if (counters_ != nullptr) counters_->add(counter_ids().heal_items);
      }
    }
    // Re-route cached unicasts and ack tallies towards their *current* next
    // hop — covers both a dead next-hop and a path that moved. Duplicate
    // arrivals are idempotent at the destination.
    std::erase_if(s.route_cache, [&](const RouteItem& item) {
      return !s.tree.contains(item.target);
    });
    for (const RouteItem& item : s.route_cache) {
      outbox_for(scope, s, s.tree.next_hop(self_, item.target))
          .routes.push_back({item.target, item.origin, item.kind,
                             net::BytesPool::local().copy_of(item.payload)});
      if (counters_ != nullptr) counters_->add(counter_ids().heal_items);
    }
    std::erase_if(s.ack_cache, [&](const auto& entry) {
      return !s.tree.contains(entry.first.first);
    });
    for (const auto& [key, bits] : s.ack_cache) {
      merge_ack(outbox_for(scope, s, s.tree.next_hop(self_, key.first)).acks,
                key.first, key.second, bits, /*count_merges=*/false);
      if (counters_ != nullptr) counters_->add(counter_ids().heal_items);
    }
  }
  sync_backlog();
}

void Disseminator::clear() {
  scopes_.clear();
  sync_backlog();
}

std::size_t Disseminator::rank_of(const std::vector<ObjectId>& members,
                                  ObjectId member) {
  const auto it = std::lower_bound(members.begin(), members.end(), member);
  CAA_CHECK_MSG(it != members.end() && *it == member,
                "Disseminator: object not a committee member");
  return static_cast<std::size_t>(it - members.begin());
}

}  // namespace caa::overlay
