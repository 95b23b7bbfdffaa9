// Step attribution, setup-call timing and world tallies.
#include <algorithm>
#include <limits>
#include <utility>

#include "bench.h"
#include "util/check.h"

namespace e2e {

using caa::CounterId;
using caa::net::MsgKind;

namespace {

struct KindProbe {
  CounterId delivered;
  Layer layer;
  int resolve_index;  // into kResolveKinds, or -1
};

Layer layer_of(MsgKind kind) {
  switch (kind) {
    case MsgKind::kTransportAck:
      return Layer::kNet;
    case MsgKind::kRelay:
      return Layer::kOverlay;
    case MsgKind::kActionJoin:
    case MsgKind::kActionJoinAck:
    case MsgKind::kActionAborted:
      return Layer::kCaa;
    case MsgKind::kActionDone:
    case MsgKind::kActionLeave:
    case MsgKind::kActionLeaveAck:
    case MsgKind::kPaxosPrepare:
    case MsgKind::kPaxosPromise:
    case MsgKind::kPaxosVote:
    case MsgKind::kPaxosAccepted:
      return Layer::kExit;
    case MsgKind::kTxnOpRequest:
    case MsgKind::kTxnOpReply:
    case MsgKind::kTxnPrepare:
    case MsgKind::kTxnVote:
    case MsgKind::kTxnDecision:
    case MsgKind::kTxnDecisionAck:
      return Layer::kTxn;
    case MsgKind::kHeartbeat:
      return Layer::kRt;
    case MsgKind::kAppData:
      return Layer::kApp;
    default:
      return Layer::kResolve;
  }
}

// Every kind the network can deliver, most frequent first so the probe
// after a delivery usually stops early.
constexpr MsgKind kAllKinds[] = {
    MsgKind::kAck,           MsgKind::kException,
    MsgKind::kNestedCompleted, MsgKind::kHaveNested,
    MsgKind::kCommit,        MsgKind::kRelay,
    MsgKind::kActionDone,    MsgKind::kActionLeave,
    MsgKind::kPaxosVote,     MsgKind::kPaxosAccepted,
    MsgKind::kTxnOpRequest,  MsgKind::kTxnOpReply,
    MsgKind::kTransportAck,  MsgKind::kFastCover,
    MsgKind::kCrashSync,     MsgKind::kActionLeaveAck,
    MsgKind::kPaxosPrepare,  MsgKind::kPaxosPromise,
    MsgKind::kTxnPrepare,    MsgKind::kTxnVote,
    MsgKind::kTxnDecision,   MsgKind::kTxnDecisionAck,
    MsgKind::kActionJoin,    MsgKind::kActionJoinAck,
    MsgKind::kActionAborted, MsgKind::kHeartbeat,
    MsgKind::kAppData,       MsgKind::kCrRaise,
    MsgKind::kCrCommit,      MsgKind::kCrAck,
    MsgKind::kArcheReport,   MsgKind::kArcheConcerted,
    MsgKind::kCentralException, MsgKind::kCentralFreeze,
    MsgKind::kCentralFrozenAck, MsgKind::kCentralCommit,
};

const std::vector<KindProbe>& probes() {
  static const std::vector<KindProbe> table = [] {
    std::vector<KindProbe> out;
    for (MsgKind kind : kAllKinds) {
      int index = -1;
      for (std::size_t i = 0; i < kResolveKinds.size(); ++i) {
        if (kResolveKinds[i] == kind) index = static_cast<int>(i);
      }
      out.push_back({caa::net::kind_counters(kind).delivered, layer_of(kind),
                     index});
    }
    return out;
  }();
  return table;
}

std::int64_t counter(caa::World& world, const char* name) {
  return world.metrics().counters().get(CounterId::of(name));
}

}  // namespace

void Ledger::add(const Ledger& other) {
  for (std::size_t i = 0; i < kLayers; ++i) {
    steps[i] += other.steps[i];
    ns[i] += other.ns[i];
  }
  for (std::size_t i = 0; i < kResolveKinds.size(); ++i) {
    kind_steps[i] += other.kind_steps[i];
    kind_ns[i] += other.kind_ns[i];
  }
  peak_pending = std::max(peak_pending, other.peak_pending);
}

std::int64_t Ledger::events() const {
  std::int64_t total = 0;
  for (std::int64_t s : steps) total += s;
  return total;
}

std::size_t traced_steps(caa::World& world, Ledger& ledger,
                         caa::sim::Time deadline) {
  caa::sim::Simulator& sim = world.simulator();
  const caa::net::Network& net = world.network();
  const caa::Counters& counters = world.metrics().counters();
  const std::vector<KindProbe>& table = probes();
  std::vector<std::int64_t> seen(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    seen[i] = counters.get(table[i].delivered);
  }
  std::size_t fired = 0;
  std::int64_t peak = ledger.peak_pending;
  while (!sim.idle() && sim.next_event_time() <= deadline) {
    const std::int64_t delivered = net.delivered_total();
    const Clock::time_point t0 = Clock::now();
    sim.step();
    const Clock::time_point t1 = Clock::now();
    ++fired;
    CAA_CHECK_MSG(fired < 50'000'000, "simulation did not quiesce");
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    Layer layer = Layer::kTimer;
    int resolve_index = -1;
    if (net.delivered_total() != delivered) {
      for (std::size_t i = 0; i < table.size(); ++i) {
        const std::int64_t now = counters.get(table[i].delivered);
        if (now == seen[i]) continue;
        seen[i] = now;
        layer = table[i].layer;
        resolve_index = table[i].resolve_index;
        break;
      }
    }
    const auto l = static_cast<std::size_t>(layer);
    ++ledger.steps[l];
    ledger.ns[l] += ns;
    if (resolve_index >= 0) {
      ++ledger.kind_steps[static_cast<std::size_t>(resolve_index)];
      ledger.kind_ns[static_cast<std::size_t>(resolve_index)] += ns;
    }
    peak = std::max(peak, static_cast<std::int64_t>(sim.pending_events()));
  }
  ledger.peak_pending = peak;
  return fired;
}

std::size_t traced_run(caa::World& world, Ledger& ledger) {
  const std::size_t fired = traced_steps(
      world, ledger, std::numeric_limits<caa::sim::Time>::max());
  world.watchdog().finish(world.simulator().now());
  return fired;
}

void CallTimes::add(const CallTimes& other) {
  add_participant_s += other.add_participant_s;
  add_participant_calls += other.add_participant_calls;
  create_instance_s += other.create_instance_s;
  create_instance_calls += other.create_instance_calls;
  enter_s += other.enter_s;
  enter_calls += other.enter_calls;
}

caa::action::Participant& SetupCalls::add_participant(caa::World& world,
                                                      const std::string& name) {
  if (!timing_) return world.add_participant(name);
  caa::action::Participant* p = nullptr;
  times_.add_participant_s += timed([&] { p = &world.add_participant(name); });
  ++times_.add_participant_calls;
  return *p;
}

caa::action::Participant& SetupCalls::add_participant(caa::World& world,
                                                      const std::string& name,
                                                      caa::NodeId node) {
  if (!timing_) return world.add_participant(name, node);
  caa::action::Participant* p = nullptr;
  times_.add_participant_s +=
      timed([&] { p = &world.add_participant(name, node); });
  ++times_.add_participant_calls;
  return *p;
}

const caa::action::InstanceInfo& SetupCalls::create_instance(
    caa::World& world, const caa::action::ActionDecl& decl,
    std::vector<caa::ObjectId> members, caa::ActionInstanceId parent) {
  if (!timing_) {
    return world.actions().create_instance(decl, std::move(members), parent);
  }
  const caa::action::InstanceInfo* info = nullptr;
  times_.create_instance_s += timed([&] {
    info =
        &world.actions().create_instance(decl, std::move(members), parent);
  });
  ++times_.create_instance_calls;
  return *info;
}

bool SetupCalls::enter(caa::action::Participant& p,
                       caa::ActionInstanceId instance,
                       caa::action::EnterConfig config) {
  if (!timing_) return p.enter(instance, std::move(config));
  bool ok = false;
  times_.enter_s += timed([&] { ok = p.enter(instance, std::move(config)); });
  ++times_.enter_calls;
  return ok;
}

void tally_world(caa::World& world, std::map<std::string, double>& counts) {
  const caa::obs::Metrics& m = world.metrics();
  const caa::Counters& c = m.counters();
  counts["net.packets"] += static_cast<double>(m.total_sent());
  counts["net.bytes"] += static_cast<double>(counter(world, "net.bytes_sent"));
  counts["net.dropped"] += static_cast<double>(c.sum_prefix("net.dropped."));
  counts["net.retransmits"] +=
      static_cast<double>(counter(world, "net.reliable.retransmit"));
  for (MsgKind kind : kAllKinds) {
    const char* layer = nullptr;
    switch (layer_of(kind)) {
      case Layer::kExit: layer = "sent.exit"; break;
      case Layer::kResolve: layer = "sent.resolve"; break;
      default: break;
    }
    if (layer != nullptr) counts[layer] += static_cast<double>(m.sent(kind));
  }
  for (const char* name :
       {"resolve.fast_commits", "resolve.fallbacks", "resolve.fallback_replays",
        "resolve.lattice_hits", "resolve.lattice_misses",
        "overlay.envelopes", "overlay.items_relayed", "overlay.squelched",
        "overlay.heals", "txn.waits", "txn.wait_die_victims"}) {
    counts[name] += static_cast<double>(counter(world, name));
  }
}

caa::ex::ExceptionTree TreeSpec::build() const {
  caa::ex::ExceptionTree tree;
  for (const auto& [name, parent] : nodes) {
    if (parent.empty()) {
      tree.declare(name);
    } else {
      const caa::ExceptionId p = tree.find(parent);
      CAA_CHECK_MSG(p.valid(), "TreeSpec: parent declared after child");
      tree.declare(name, p);
    }
  }
  return tree;
}

std::string TreeSpec::cover(const std::vector<std::string>& raised) const {
  const std::string root = "universal_exception";
  auto parent_of = [&](const std::string& name) -> std::string {
    for (const auto& [n, p] : nodes) {
      if (n == name) return p.empty() ? root : p;
    }
    return root;
  };
  auto ancestors = [&](std::string name) {
    std::vector<std::string> chain{name};
    while (name != root) {
      name = parent_of(name);
      chain.push_back(name);
    }
    return chain;
  };
  if (raised.empty()) return {};
  std::vector<std::string> common = ancestors(raised.front());
  for (std::size_t i = 1; i < raised.size(); ++i) {
    const std::vector<std::string> other = ancestors(raised[i]);
    std::erase_if(common, [&](const std::string& a) {
      return std::find(other.begin(), other.end(), a) == other.end();
    });
  }
  return common.front();  // chains run leaf-first: the lowest survivor
}

std::vector<std::string> TreeSpec::leaves() const {
  std::vector<std::string> out;
  for (const auto& [name, parent] : nodes) {
    const bool has_child =
        std::any_of(nodes.begin(), nodes.end(),
                    [&](const auto& n) { return n.second == name; });
    if (!has_child) out.push_back(name);
  }
  return out;
}

}  // namespace e2e
