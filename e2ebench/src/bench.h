// Shared types of the end-to-end benchmark binary, caa_e2ebench.
//
// Every workload runs "rounds": one round builds its world(s) with public
// calls only, runs them, checks the outputs against values the benchmark
// derives itself, and reports wall times, counts and raw virtual-time
// samples. Untraced rounds give the end-to-end metrics; traced rounds drive
// Simulator::step() by hand and charge each step to a layer (ledger.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "caa/world.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and returns its wall time in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// ---- Counting allocator (alloc.cpp) ---------------------------------------
// Global operator new/delete are replaced in this binary; counting is off
// until set_counting(true), so untraced rounds pay one predictable branch.
namespace mem {
void set_counting(bool on);
[[nodiscard]] std::int64_t allocs();
[[nodiscard]] std::int64_t live_bytes();
[[nodiscard]] std::int64_t peak_live_bytes();
/// Restarts the high-water mark at the current live size.
void reset_peak();
}  // namespace mem

/// Brackets one world's life on the current thread: live bytes after
/// setup, the high-water mark and the allocations made while it ran.
/// Construct before the world so the world is torn down inside the span.
class MemProbe {
 public:
  explicit MemProbe(bool on) : on_(on) {
    if (!on_) return;
    base_ = mem::live_bytes();
    mem::reset_peak();
  }
  void setup_done() {
    if (!on_) return;
    live_after_setup_ = mem::live_bytes() - base_;
    allocs0_ = mem::allocs();
  }
  void run_done() {
    if (!on_) return;
    peak_ = mem::peak_live_bytes() - base_;
    run_allocs_ = mem::allocs() - allocs0_;
  }
  [[nodiscard]] double live_mb_after_setup() const {
    return static_cast<double>(live_after_setup_) / 1e6;
  }
  [[nodiscard]] double peak_mb() const {
    return static_cast<double>(peak_) / 1e6;
  }
  [[nodiscard]] std::int64_t run_allocs() const { return run_allocs_; }

 private:
  bool on_;
  std::int64_t base_ = 0;
  std::int64_t live_after_setup_ = 0;
  std::int64_t allocs0_ = 0;
  std::int64_t peak_ = 0;
  std::int64_t run_allocs_ = 0;
};

// ---- Step attribution (ledger.cpp) ----------------------------------------

/// Where a simulator step is charged: to the layer whose delivered-packet
/// counter (net::kind_counters(kind).delivered) the step moved, or to the
/// simulator's timers when it delivered nothing.
enum class Layer : std::uint8_t {
  kTimer,    // no delivery: timers, scripted events, dropped deliveries
  kNet,      // transport acknowledgements
  kCaa,      // ActionJoin / ActionJoinAck / ActionAborted
  kResolve,  // the five §4.2 messages, FastCover, CrashSync, baselines
  kOverlay,  // Relay envelopes, including the protocol handling inside them
  kExit,     // ActionDone / ActionLeave / ActionLeaveAck / Paxos*
  kTxn,      // Txn*
  kRt,       // Heartbeat
  kApp,      // AppData
  kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// The resolve kinds that get a per-kind step time.
constexpr std::array<caa::net::MsgKind, 7> kResolveKinds = {
    caa::net::MsgKind::kException,       caa::net::MsgKind::kHaveNested,
    caa::net::MsgKind::kNestedCompleted, caa::net::MsgKind::kAck,
    caa::net::MsgKind::kCommit,          caa::net::MsgKind::kCrashSync,
    caa::net::MsgKind::kFastCover};

struct Ledger {
  std::array<std::int64_t, kLayers> steps{};
  std::array<std::int64_t, kLayers> ns{};
  std::array<std::int64_t, kResolveKinds.size()> kind_steps{};
  std::array<std::int64_t, kResolveKinds.size()> kind_ns{};
  std::int64_t peak_pending = 0;

  void add(const Ledger& other);
  [[nodiscard]] std::int64_t events() const;
  [[nodiscard]] std::int64_t steps_of(Layer layer) const {
    return steps[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::int64_t ns_of(Layer layer) const {
    return ns[static_cast<std::size_t>(layer)];
  }
};

/// Steps `world` by hand until the queue is empty or the next event lies
/// past `deadline`, timing each step and charging it to a layer. This is the
/// loop World::run() and Simulator::run_until() run, plus two clock reads
/// and a delivered-counter probe per step. Returns events fired.
std::size_t traced_steps(caa::World& world, Ledger& ledger,
                         caa::sim::Time deadline);

/// Equivalent of World::run() through traced_steps().
std::size_t traced_run(caa::World& world, Ledger& ledger);

// ---- Round results ---------------------------------------------------------

/// Mean per-call wall time of the setup calls, timed one by one.
struct CallTimes {
  double add_participant_s = 0.0;
  std::int64_t add_participant_calls = 0;
  double create_instance_s = 0.0;
  std::int64_t create_instance_calls = 0;
  double enter_s = 0.0;
  std::int64_t enter_calls = 0;
  void add(const CallTimes& other);
};

/// Wraps the three setup calls so traced rounds time each one on its own.
class SetupCalls {
 public:
  explicit SetupCalls(bool timing) : timing_(timing) {}
  caa::action::Participant& add_participant(caa::World& world,
                                            const std::string& name);
  caa::action::Participant& add_participant(caa::World& world,
                                            const std::string& name,
                                            caa::NodeId node);
  const caa::action::InstanceInfo& create_instance(
      caa::World& world, const caa::action::ActionDecl& decl,
      std::vector<caa::ObjectId> members,
      caa::ActionInstanceId parent = caa::ActionInstanceId::invalid());
  bool enter(caa::action::Participant& p, caa::ActionInstanceId instance,
             caa::action::EnterConfig config);
  [[nodiscard]] const CallTimes& times() const { return times_; }

 private:
  bool timing_;
  CallTimes times_;
};

/// What one round reports.
struct Round {
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Wall time of the whole round when worlds overlap (chaos_crash's
  /// campaign); 0 means setup_s + run_s.
  double wall_s = 0.0;
  std::int64_t attempted = 0;  // operations attempted
  std::int64_t failed = 0;     // operations whose output check failed
  std::int64_t completed = 0;  // operations completed (ops_per_s numerator)
  std::vector<std::int64_t> resolve_vt;  // raise -> handler start, ticks
  std::vector<std::int64_t> action_vt;   // first entry -> last leave, ticks
  /// Summed counters of the round's worlds ("net.packets", "resolve.rounds",
  /// ...); see tally_world().
  std::map<std::string, double> counts;
  // Traced rounds only.
  Ledger ledger;
  CallTimes calls;
  double live_mb_after_setup = 0.0;  // summed over mem_worlds worlds
  std::int64_t mem_worlds = 0;
  double peak_live_mb = 0.0;
  std::int64_t run_allocs = 0;
  std::vector<double> trial_ms;  // chaos_crash: per-trial wall
  std::vector<std::string> notes;  // failure descriptions (stderr)

  /// Records why a check failed; the workload sets `failed`, the number of
  /// operations the failures touch.
  void fail(std::string why) { notes.push_back(std::move(why)); }
  /// Folds one world's memory probe into the round.
  void add_mem(const MemProbe& probe) {
    live_mb_after_setup += probe.live_mb_after_setup();
    ++mem_worlds;
    peak_live_mb = std::max(peak_live_mb, probe.peak_mb());
    run_allocs += probe.run_allocs();
  }
};

/// Adds a finished world's counters to `counts`: packets, bytes, drops,
/// retransmits, per-layer message kinds and the resolve/overlay/txn
/// counters the per-layer metrics are computed from.
void tally_world(caa::World& world, std::map<std::string, double>& counts);

/// Shape of the work a workload did, handed to the standalone loops so they
/// run on inputs shaped like the workload's own.
struct LoopShape {
  std::uint32_t nodes = 3;        // N for the send/deliver and tree loops
  std::uint32_t fanout = 2;       // destinations per send burst
  std::uint32_t tree_members = 3; // members of one relay tree
  std::size_t payload_bytes = 32;
  std::int64_t pending = 1;       // observed peak pending events
  double delivery_share = 1.0;    // share of steps that were deliveries
  /// The exception tree raises were drawn from and the raise sets observed.
  std::function<caa::ex::ExceptionTree()> make_tree;
  std::vector<std::vector<std::string>> raise_sets;
};

struct LoopResults {
  double queue_ns = 0.0;
  double send_deliver_ns = 0.0;
  double tree_build_us = 0.0;
  double cover_ns = 0.0;
};

LoopResults run_loops(const LoopShape& shape, std::uint64_t seed);

/// Per-round context.
struct RoundCtx {
  std::uint64_t seed = 0;     // derived from --seed and the round index
  std::size_t index = 0;      // round index within the run
  std::size_t kind_index = 0; // index among the run's rounds of this kind
  bool traced = false;
  bool self_check = false;    // corrupt one expected value
};

using RoundFn = std::function<Round(const RoundCtx&, LoopShape&)>;

Round nested_abort_round(const RoundCtx& ctx, LoopShape& shape);
Round wide_tree_round(const RoundCtx& ctx, LoopShape& shape);
Round txn_transfer_round(const RoundCtx& ctx, LoopShape& shape);
Round chaos_crash_round(const RoundCtx& ctx, LoopShape& shape);

/// A hand-written exception tree: names with parent names ("" = root).
/// Workloads declare their action trees from one of these and derive the
/// expected cover by walking the same parent links, independently of
/// ex::ExceptionTree's resolution code.
struct TreeSpec {
  std::vector<std::pair<std::string, std::string>> nodes;  // (name, parent)

  [[nodiscard]] caa::ex::ExceptionTree build() const;
  /// Lowest common ancestor of `raised` by ancestor walks over `nodes`;
  /// the root is named "universal_exception".
  [[nodiscard]] std::string cover(const std::vector<std::string>& raised) const;
  [[nodiscard]] std::vector<std::string> leaves() const;
};

}  // namespace e2e
