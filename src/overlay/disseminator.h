// Relay-tree dissemination engine: batching, squelching, aggregation,
// healing.
//
// One Disseminator per participant carries every tree-mode action scope the
// participant serves. Three traffic patterns ride one envelope kind
// (net::MsgKind::kRelay):
//
//   flood   — Exception / HaveNested / NestedCompleted / Commit / Leave
//             multicasts. The origin hands the item to its tree neighbors;
//             every relay forwards to its other neighbors exactly once,
//             keyed by (origin, per-origin sequence) — duplicates arriving
//             over redundant paths after a heal are squelched and counted
//             (rippled's reduce-relay idiom), never re-forwarded.
//   ack     — ACKs aggregate up/down the tree as (target, round) → bitmap
//             of acker ranks. Relays OR bitmaps together, so one envelope
//             edge carries a whole subtree's ACK storm (the hierarchical
//             sub-committee tally of the issue); the target unpacks the
//             bitmap back into individual engine ACKs. Merging is
//             idempotent — healing re-sends cannot double-count.
//   route   — other unicasts (Done to the exit-barrier leader) forwarded
//             hop-by-hop along the unique tree path, batching with
//             whatever else the edge carries that tick.
//
// Envelopes per neighbor are coalesced: items enqueue into per-neighbor
// outboxes and a single flush event (scheduled behind the current tick's
// deliveries) encodes each outbox into one envelope. With uniform link
// latency a whole dissemination wave therefore costs one envelope per tree
// edge instead of one packet per (origin, member) pair.
//
// Healing: when a member is reported crashed, the tree is recomputed from
// the shared live list and every item this relay has cached is re-offered
// to the neighbors the new tree added (new children re-parented from the
// dead relay's subtree). Squelching and idempotent merges absorb the
// duplicates; coverage follows because a member either kept its parent
// (and already holds the items its parent forwarded on a live edge) or was
// re-parented (and receives the new parent's cache).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "net/message.h"
#include "obs/health.h"
#include "overlay/params.h"
#include "overlay/relay_tree.h"
#include "util/counters.h"
#include "util/ids.h"
#include "util/status.h"

namespace caa::overlay {

class Disseminator {
 public:
  struct Hooks {
    /// Physical send of one kRelay envelope to a tree neighbor.
    std::function<void(ObjectId to, net::Bytes payload)> send_envelope;
    /// Local delivery of one relayed protocol message, exactly as if it
    /// had arrived directly from `origin`.
    std::function<void(ActionInstanceId scope, ObjectId origin,
                       net::MsgKind kind, const net::Bytes& payload)>
        deliver;
    /// Local delivery of one ACK unpacked from an aggregated bitmap.
    std::function<void(ActionInstanceId scope, std::uint32_t round,
                       ObjectId acker)>
        deliver_ack;
    /// Schedules the outbox flush (maps to ManagedObject::schedule_after).
    std::function<void(sim::Time delay, std::function<void()> fn)> schedule;
  };

  /// Binds identity, callbacks and the counter store. Idempotent; must run
  /// before any scope is registered. `health` (optional) receives this
  /// relay's queued-item contribution to
  /// obs::Gauge::kOverlayOutboxBacklog.
  void configure(ObjectId self, Hooks hooks, Counters* counters,
                 obs::HealthGauges* health = nullptr);

  /// Starts serving `scope` over its deterministic tree. `members` (the
  /// sorted committee, InstanceInfo::members) is borrowed and must outlive
  /// the registration. `crashed` seeds the exclusion set so a late
  /// registrant computes the same live tree as the survivors. No-op if
  /// already registered.
  void register_scope(ActionInstanceId scope,
                      const std::vector<ObjectId>& members,
                      const OverlayParams& params,
                      const std::set<ObjectId>& crashed);
  void register_scope(ActionInstanceId, std::vector<ObjectId>&&,
                      const OverlayParams&, const std::set<ObjectId>&) = delete;
  [[nodiscard]] bool manages(ActionInstanceId scope) const {
    return scopes_.contains(scope);
  }
  /// The scope's current tree (tests and tooling). Null if unmanaged.
  [[nodiscard]] const RelayTree* tree_of(ActionInstanceId scope) const;

  // ---- Send side ------------------------------------------------------

  /// Disseminates `payload` to every other member of the scope.
  void flood(ActionInstanceId scope, net::MsgKind kind,
             const net::Bytes& payload);
  /// Contributes this member's ACK for `round` towards `target`.
  void send_ack(ActionInstanceId scope, std::uint32_t round, ObjectId target);
  /// Forwards a unicast (e.g. Done) towards `target` along the tree.
  void route(ActionInstanceId scope, ObjectId target, net::MsgKind kind,
             const net::Bytes& payload);
  /// Forwards ONE payload towards many targets (e.g. a Paxos 2a to the
  /// whole acceptor set), sharing the bytes on every common tree edge: each
  /// edge carries the payload once plus the target list, and relays split
  /// the group per next hop. Targets may not include self; dead targets are
  /// dropped and counted like route()'s.
  void route_multi(ActionInstanceId scope, const std::vector<ObjectId>& targets,
                   net::MsgKind kind, const net::Bytes& payload);

  // ---- Receive side ---------------------------------------------------

  /// Handles one kRelay envelope from tree neighbor `from`.
  void on_envelope(ObjectId from, const net::Bytes& payload);

  /// Scope of an encoded envelope (for lazy registration by the receiver).
  [[nodiscard]] static Result<ActionInstanceId> peek_envelope_scope(
      const net::Bytes& payload);

  // ---- Fault tolerance ------------------------------------------------

  /// Excludes `peer` from every managed tree and re-offers cached items
  /// along the repaired topology.
  void on_peer_crashed(ObjectId peer);

  /// Drops every scope and cache (fail-stop restart: relay duties are
  /// volatile state).
  void clear();

 private:
  struct FloodItem {
    ObjectId origin;
    std::uint32_t seq = 0;
    net::MsgKind kind = net::MsgKind::kInvalid;
    net::Bytes payload;
  };
  struct RouteItem {
    ObjectId target;
    ObjectId origin;
    net::MsgKind kind = net::MsgKind::kInvalid;
    net::Bytes payload;
  };
  struct MultiItem {
    std::vector<ObjectId> targets;  // all routed via the same next hop
    ObjectId origin;
    net::MsgKind kind = net::MsgKind::kInvalid;
    net::Bytes payload;
  };
  using AckKey = std::pair<ObjectId, std::uint32_t>;  // (target, round)
  using AckBitmap = net::Bytes;  // bit per member rank (full committee order)

  struct Outbox {
    std::vector<FloodItem> floods;
    std::vector<RouteItem> routes;
    std::map<AckKey, AckBitmap> acks;
    std::vector<MultiItem> multis;
    [[nodiscard]] bool empty() const {
      return floods.empty() && routes.empty() && acks.empty() &&
             multis.empty();
    }
  };

  struct Scope {
    OverlayParams params;
    RelayTree tree;  // borrows the committee (rank order): tree.committee()
    std::set<ObjectId> excluded;
    std::uint32_t next_seq = 0;           // this member's origin sequence
    std::unordered_set<std::uint64_t> seen;  // squelch: origin<<32 | seq
    // Relay caches for healing (bounded by params.heal_cache_limit).
    std::vector<FloodItem> flood_cache;
    std::vector<RouteItem> route_cache;
    std::map<AckKey, AckBitmap> ack_cache;
    std::map<ObjectId, Outbox> outbox;  // per-neighbor, flush-ordered
    bool flush_scheduled = false;
  };

  [[nodiscard]] Scope& scope_state(ActionInstanceId scope);
  Outbox& outbox_for(ActionInstanceId scope, Scope& s, ObjectId neighbor);
  void flush(ActionInstanceId scope);
  void enqueue_flood(ActionInstanceId scope, Scope& s, ObjectId neighbor,
                     const FloodItem& item);
  void merge_ack(std::map<AckKey, AckBitmap>& into, ObjectId target,
                 std::uint32_t round, const AckBitmap& bits, bool count_merges);
  void cache_flood(Scope& s, FloodItem&& item);
  void cache_route(Scope& s, const RouteItem& item);
  void cache_route(Scope& s, RouteItem&& item);
  void forward_multi(ActionInstanceId scope, Scope& s,
                     const std::vector<ObjectId>& targets, ObjectId origin,
                     net::MsgKind kind, const net::Bytes& payload);
  void deliver_ack_bitmap(ActionInstanceId scope, const Scope& s,
                          std::uint32_t round, const AckBitmap& bits);
  [[nodiscard]] static std::uint64_t squelch_key(ObjectId origin,
                                                 std::uint32_t seq) {
    return (static_cast<std::uint64_t>(origin.value()) << 32) | seq;
  }
  [[nodiscard]] static std::size_t rank_of(const std::vector<ObjectId>& members,
                                           ObjectId member);
  /// Recounts queued outbox items across managed scopes and pushes the
  /// delta into the backlog gauge. O(tree neighbors); no counters touched.
  void sync_backlog();

  ObjectId self_;
  Hooks hooks_;
  Counters* counters_ = nullptr;
  obs::HealthGauges* health_ = nullptr;
  std::int64_t backlog_gauge_ = 0;  // last-pushed contribution
  std::map<ActionInstanceId, Scope> scopes_;
};

}  // namespace caa::overlay
