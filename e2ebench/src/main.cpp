// caa_e2ebench: one workload per process, end-to-end or layer by layer.
//
//   caa_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                [--self-check]
//
// Runs whole rounds of the workload until S seconds have passed (at least
// three untraced rounds, or two untraced and two traced with --trace 1),
// checks every round's outputs, prints one human-readable line per metric
// and, as the last line, one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value":
//    X, "unit": U}, ...}}
// --trace 0 reports the end-to-end metrics from untraced rounds; --trace 1
// alternates untraced and traced rounds and reports the per-layer metrics.
// --self-check corrupts one expected value in the first round, so the run
// must report a failed operation and exit 1.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "run/campaign.h"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_check = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "caa_e2ebench: %s\n"
               "usage: caa_e2ebench --workload "
               "nested_abort|wide_tree|txn_transfer|chaos_crash --seed N "
               "--seconds S --trace 0|1 [--self-check]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--self-check") {
      args.self_check = true;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact nearest-rank order statistic of a value -> count table: the
/// smallest sample with at least q of the samples at or below it.
std::int64_t order_stat(const std::map<std::int64_t, std::int64_t>& samples,
                        std::int64_t n, double q) {
  const auto rank = std::max<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n))), 1);
  std::int64_t seen = 0;
  for (const auto& [value, count] : samples) {
    seen += count;
    if (seen >= rank) return value;
  }
  return samples.rbegin()->first;
}

double order_stat_d(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// VmHWM of this process. getrusage's ru_maxrss is not used: Linux carries
/// it across execve, so it would report the launcher's peak when that is
/// higher.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Machine-speed calibration. A shared machine's speed can drift by tens
/// of percent over minutes (other tenants load its cores and memory), and
/// the drift moves every wall time of a run alike. A fixed reference loop
/// that uses nothing of the library — dependent random updates over a
/// 32 MB table, the access pattern of a deep event queue — is timed every
/// 1/40 of the run, and each round's wall times are scaled by
/// kReferenceS / (median of the last five timings): seconds on a machine
/// where the loop takes kReferenceS. A slower program still reads slower;
/// a slower machine does not. The human-readable lines also print the
/// unscaled times.
constexpr double kReferenceS = 0.020;

double calibrate() {
  static std::vector<std::uint64_t> table(1u << 22, 1);
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < table.size(); i += 3) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t& cell = table[(x >> 20) & (table.size() - 1)];
    cell = cell * 31 + (x >> 7);
  }
  volatile std::uint64_t sink = x ^ table[x & (table.size() - 1)];
  (void)sink;
  return seconds_since(t0);
}

/// Times calibrate() in a child process on request, so the reference table
/// never counts towards this process's peak RSS. Construct it before any
/// thread starts: the child is forked at construction.
class Calibrator {
 public:
  Calibrator() {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) {
      std::perror("caa_e2ebench: pipe");
      std::exit(2);
    }
    pid_ = fork();
    if (pid_ < 0) {
      std::perror("caa_e2ebench: fork");
      std::exit(2);
    }
    if (pid_ == 0) {
      close(to_child[1]);
      close(from_child[0]);
      char request = 0;
      while (read(to_child[0], &request, 1) == 1) {
        const double t = calibrate();
        if (write(from_child[1], &t, sizeof t) != sizeof t) break;
      }
      _exit(0);
    }
    close(to_child[0]);
    close(from_child[1]);
    to_child_ = to_child[1];
    from_child_ = from_child[0];
  }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;
  ~Calibrator() {
    close(to_child_);  // EOF ends the child's loop
    close(from_child_);
    waitpid(pid_, nullptr, 0);
  }

  double measure() {
    const char request = 1;
    double t = 0.0;
    if (write(to_child_, &request, 1) != 1 ||
        read(from_child_, &t, sizeof t) != sizeof t) {
      std::fprintf(stderr, "caa_e2ebench: calibration child failed\n");
      std::exit(2);
    }
    return t;
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // human line only
};

/// Scales wall-time-derived values to the reference speed; counts, ratios,
/// sizes and virtual times are left as measured.
void to_reference_speed(std::vector<Metric>& metrics, double scale) {
  for (Metric& m : metrics) {
    if (m.unit == "s" || m.unit == "ms" || m.unit == "us" || m.unit == "ns") {
      m.value *= scale;
    } else if (m.unit == "ops/s" || m.unit == "events/s") {
      m.value /= scale;
    }
  }
}

/// Sums of the rounds of one kind (untraced or traced).
struct Totals {
  std::size_t rounds = 0;
  std::vector<double> setup_s, run_s, trial_ms;  // unscaled
  std::vector<double> scales;  // per round, to the reference speed
  double wall_s = 0.0;         // scaled
  std::int64_t attempted = 0, failed = 0, completed = 0;
  // Raw virtual-time samples as value -> count: exact order statistics,
  // without the harness's own memory growing with the run's length.
  std::map<std::int64_t, std::int64_t> resolve_vt, action_vt;
  std::map<std::string, double> counts;
  Ledger ledger;
  CallTimes calls;
  double live_mb = 0.0;
  std::int64_t mem_worlds = 0;
  double peak_live_mb = 0.0;
  std::int64_t run_allocs = 0;

  void add(const Round& r, double scale) {
    ++rounds;
    setup_s.push_back(r.setup_s);
    run_s.push_back(r.run_s);
    scales.push_back(scale);
    wall_s += scale * (r.wall_s > 0.0 ? r.wall_s : r.setup_s + r.run_s);
    attempted += r.attempted;
    failed += r.failed;
    completed += r.completed;
    for (std::int64_t v : r.resolve_vt) ++resolve_vt[v];
    for (std::int64_t v : r.action_vt) ++action_vt[v];
    trial_ms.insert(trial_ms.end(), r.trial_ms.begin(), r.trial_ms.end());
    for (const auto& [k, v] : r.counts) counts[k] += v;
    ledger.add(r.ledger);
    calls.add(r.calls);
    live_mb += r.live_mb_after_setup;
    mem_worlds += r.mem_worlds;
    peak_live_mb = std::max(peak_live_mb, r.peak_live_mb);
    run_allocs += r.run_allocs;
  }
  /// Median over rounds of a per-round wall time at the reference speed.
  [[nodiscard]] double scaled_median(const std::vector<double>& v) const {
    std::vector<double> scaled(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) scaled[i] = v[i] * scales[i];
    return median(std::move(scaled));
  }
  [[nodiscard]] double count(const std::string& key) const {
    const auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  }
  /// Per-round mean of a summed count.
  [[nodiscard]] double per_round(const std::string& key) const {
    return ratio(count(key), static_cast<double>(rounds));
  }
};

/// Adds the p50 and, when asked, the p99 of `samples` as `<base>_p50` /
/// `<base>_p99`; the human-readable note flags a p99 over fewer than 1,000
/// samples.
void percentiles(std::vector<Metric>& out, const std::string& base,
                 const std::map<std::int64_t, std::int64_t>& samples,
                 bool want_p99) {
  std::int64_t n = 0;
  for (const auto& [value, count] : samples) n += count;
  if (n == 0) {
    out.push_back({base + "_p50", 0.0, "ticks", "no samples"});
    if (want_p99) out.push_back({base + "_p99", 0.0, "ticks", "no samples"});
    return;
  }
  const std::string note = "n=" + std::to_string(n);
  out.push_back({base + "_p50", static_cast<double>(order_stat(samples, n, 0.50)),
                 "ticks", note});
  if (want_p99) {
    out.push_back({base + "_p99",
                   static_cast<double>(order_stat(samples, n, 0.99)), "ticks",
                   note + (n >= 1000 ? "" : " (fewer than 1000 samples)")});
  }
}

std::vector<Metric> end_to_end(const Totals& plain) {
  std::vector<Metric> out;
  out.push_back({"setup_s", plain.scaled_median(plain.setup_s), "s",
                 "median of " + std::to_string(plain.rounds) + " rounds"});
  out.push_back({"run_s", plain.scaled_median(plain.run_s), "s",
                 "median of " + std::to_string(plain.rounds) + " rounds"});
  out.push_back({"ops_per_s",
                 ratio(static_cast<double>(plain.completed), plain.wall_s),
                 "ops/s", std::to_string(plain.completed) + " ops"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "process peak"});
  out.push_back({"msgs_per_op",
                 ratio(plain.count("net.packets"),
                       static_cast<double>(std::max<std::int64_t>(
                           plain.completed, 1))),
                 "packets/op", ""});
  percentiles(out, "resolve_vt", plain.resolve_vt, true);
  percentiles(out, "action_vt", plain.action_vt, false);
  return out;
}

std::vector<Metric> per_layer(const Totals& plain, const Totals& traced,
                              const LoopResults& loops) {
  std::vector<Metric> out;
  const Ledger& lg = traced.ledger;
  auto step_ns = [&](Layer layer) {
    return ratio(static_cast<double>(lg.ns_of(layer)),
                 static_cast<double>(lg.steps_of(layer)));
  };
  auto steps = [&](Layer layer) {
    return ratio(static_cast<double>(lg.steps_of(layer)),
                 static_cast<double>(traced.rounds));
  };
  const CallTimes& c = traced.calls;
  out.push_back({"caa.add_participant_us",
                 1e6 * ratio(c.add_participant_s,
                             static_cast<double>(c.add_participant_calls)),
                 "us", std::to_string(c.add_participant_calls) + " calls"});
  out.push_back({"caa.create_instance_us",
                 1e6 * ratio(c.create_instance_s,
                             static_cast<double>(c.create_instance_calls)),
                 "us", std::to_string(c.create_instance_calls) + " calls"});
  out.push_back({"caa.enter_us",
                 1e6 * ratio(c.enter_s, static_cast<double>(c.enter_calls)),
                 "us", std::to_string(c.enter_calls) + " calls"});

  const double traced_events = static_cast<double>(lg.events());
  out.push_back({"mem.live_mb_after_setup",
                 ratio(traced.live_mb, static_cast<double>(traced.mem_worlds)),
                 "MB", "per world"});
  out.push_back({"mem.peak_live_mb", traced.peak_live_mb, "MB", "per world"});
  out.push_back({"mem.allocs_per_event",
                 ratio(static_cast<double>(traced.run_allocs), traced_events),
                 "allocs/event", ""});

  out.push_back({"sim.events", plain.per_round("sim.events"), "events",
                 "per round"});
  out.push_back({"sim.events_per_s",
                 ratio(plain.count("sim.events"),
                       [&] {
                         double s = 0.0;
                         for (double v : plain.run_s) s += v;
                         return s;
                       }()),
                 "events/s", "untraced rounds"});
  out.push_back({"sim.peak_pending", static_cast<double>(lg.peak_pending),
                 "events", ""});
  out.push_back({"sim.queue_ns", loops.queue_ns, "ns", "standalone loop"});
  out.push_back({"sim.timer_steps", steps(Layer::kTimer), "steps", "per round"});
  out.push_back({"sim.timer_step_ns", step_ns(Layer::kTimer), "ns", ""});

  const double packets = traced.count("net.packets");
  out.push_back({"net.packets", traced.per_round("net.packets"), "packets",
                 "per round"});
  out.push_back({"net.bytes_per_packet", ratio(traced.count("net.bytes"), packets),
                 "bytes", ""});
  out.push_back({"net.dropped", traced.per_round("net.dropped"), "packets",
                 "per round"});
  out.push_back({"net.retransmits", traced.per_round("net.retransmits"),
                 "packets", "per round"});
  out.push_back({"net.steps", steps(Layer::kNet), "steps",
                 "TransportAck deliveries per round"});
  out.push_back({"net.step_ns", step_ns(Layer::kNet), "ns", ""});
  out.push_back({"net.send_deliver_ns", loops.send_deliver_ns, "ns",
                 "standalone loop"});

  out.push_back({"resolve.steps", steps(Layer::kResolve), "steps", "per round"});
  out.push_back({"resolve.step_ns", step_ns(Layer::kResolve), "ns", ""});
  for (std::size_t i = 0; i < kResolveKinds.size(); ++i) {
    const std::string kind(caa::net::kind_name(kResolveKinds[i]));
    out.push_back({"resolve.step_ns." + kind,
                   ratio(static_cast<double>(lg.kind_ns[i]),
                         static_cast<double>(lg.kind_steps[i])),
                   "ns", std::to_string(lg.kind_steps[i]) + " steps"});
  }
  out.push_back({"resolve.rounds", traced.per_round("resolve.rounds"), "rounds",
                 "per round"});
  const double fast = traced.count("resolve.fast_commits");
  out.push_back({"resolve.fast_ratio",
                 ratio(fast, fast + traced.count("resolve.fallbacks")), "ratio",
                 ""});
  out.push_back({"resolve.fallback_replays",
                 traced.per_round("resolve.fallback_replays"), "replays",
                 "per round"});
  const double hits = traced.count("resolve.lattice_hits");
  out.push_back({"resolve.lattice_hit_ratio",
                 ratio(hits, hits + traced.count("resolve.lattice_misses")),
                 "ratio", ""});
  out.push_back({"ex.cover_ns", loops.cover_ns, "ns", "standalone loop"});

  out.push_back({"overlay.steps", steps(Layer::kOverlay), "steps", "per round"});
  out.push_back({"overlay.step_ns", step_ns(Layer::kOverlay), "ns",
                 "includes the protocol handling inside each envelope"});
  const double envelopes = traced.count("overlay.envelopes");
  out.push_back({"overlay.envelopes", traced.per_round("overlay.envelopes"),
                 "envelopes", "per round"});
  out.push_back({"overlay.items_per_envelope",
                 ratio(traced.count("overlay.items_relayed"), envelopes),
                 "items/envelope", ""});
  out.push_back({"overlay.squelch_ratio",
                 ratio(traced.count("overlay.squelched"),
                       traced.count("overlay.items_relayed")),
                 "ratio", "squelched per item relayed"});
  out.push_back({"overlay.heals", traced.per_round("overlay.heals"), "heals",
                 "per round"});
  out.push_back({"overlay.tree_build_us", loops.tree_build_us, "us",
                 "standalone loop"});

  out.push_back({"exit.steps", steps(Layer::kExit), "steps", "per round"});
  out.push_back({"exit.step_ns", step_ns(Layer::kExit), "ns", ""});
  out.push_back({"exit.msgs_per_action",
                 ratio(traced.count("sent.exit"), traced.count("actions")),
                 "packets/action", ""});

  out.push_back({"txn.steps", steps(Layer::kTxn), "steps", "per round"});
  out.push_back({"txn.step_ns", step_ns(Layer::kTxn), "ns", ""});
  out.push_back({"txn.commits", traced.per_round("txn.commits"), "txns",
                 "per round"});
  out.push_back({"txn.aborts", traced.per_round("txn.aborts"), "txns",
                 "per round"});
  out.push_back({"txn.wait_die_victims",
                 traced.per_round("txn.wait_die_victims"), "txns", "per round"});
  out.push_back({"txn.waits", traced.per_round("txn.waits"), "waits",
                 "per round"});
  out.push_back({"txn.commit_ratio",
                 ratio(traced.count("txn.commits"), traced.count("txn.begins")),
                 "ratio", "commits per begin"});

  // Trial wall times come from the untraced rounds.
  const std::string trials = "n=" + std::to_string(plain.trial_ms.size());
  out.push_back({"fault.trial_ms_p50", order_stat_d(plain.trial_ms, 0.50), "ms",
                 trials});
  out.push_back({"fault.trial_ms_p99", order_stat_d(plain.trial_ms, 0.99), "ms",
                 trials + (plain.trial_ms.size() >= 1000
                               ? ""
                               : " (fewer than 1000 samples)")});
  out.push_back({"fault.plan_gen_us",
                 1e6 * ratio(plain.count("fault.plan_s"),
                             plain.count("fault.plans")),
                 "us", "per plan"});
  out.push_back({"run.efficiency",
                 ratio(plain.count("campaign.world_s"),
                       plain.count("campaign.wall_s") *
                           ratio(plain.count("campaign.threads"),
                                 static_cast<double>(plain.rounds))),
                 "ratio", "world wall / (campaign wall x threads)"});

  double traced_run = 0.0;
  for (double v : traced.run_s) traced_run += v;
  double step_s = 0.0;
  for (std::int64_t ns : lg.ns) step_s += 1e-9 * static_cast<double>(ns);
  const double rounds = static_cast<double>(traced.rounds);
  out.push_back({"trace.overhead",
                 ratio(median(traced.run_s), median(plain.run_s)) - 1.0,
                 "ratio", "traced / untraced run_s - 1"});
  out.push_back({"trace.run_s", ratio(traced_run, rounds), "s",
                 "traced run_s per round"});
  out.push_back({"trace.remainder_s", ratio(traced_run - step_s, rounds), "s",
                 "traced run_s not inside a timed step, per round"});
  return out;
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int run(const Args& args) {
  RoundFn fn;
  if (args.workload == "nested_abort") {
    fn = nested_abort_round;
  } else if (args.workload == "wide_tree") {
    fn = wide_tree_round;
  } else if (args.workload == "txn_transfer") {
    fn = txn_transfer_round;
  } else if (args.workload == "chaos_crash") {
    fn = chaos_crash_round;
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  Totals plain;
  Totals traced;
  LoopShape shape;
  std::vector<std::string> notes;
  // One CPU for the whole run, calibration child included, so the
  // reference loop is timed on the core whose speed it stands for.
  if (const int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }
  Calibrator calibrator;
  std::vector<double> calibrations;
  Clock::time_point last_calibration = Clock::now();
  const std::size_t min_rounds = args.trace ? 4 : 3;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < min_rounds || seconds_since(start) < args.seconds; ++i) {
    RoundCtx ctx;
    ctx.seed = caa::run::derive_seed(args.seed, i);
    ctx.index = i;
    ctx.traced = args.trace && i % 2 == 1;
    ctx.kind_index = (ctx.traced ? traced : plain).rounds;
    ctx.self_check = args.self_check;
    if (calibrations.empty() ||
        seconds_since(last_calibration) >= args.seconds / 40) {
      calibrations.push_back(calibrator.measure());
      last_calibration = Clock::now();
    }
    const std::size_t recent = std::min<std::size_t>(calibrations.size(), 5);
    const double scale =
        kReferenceS / median(std::vector<double>(calibrations.end() - recent,
                                                 calibrations.end()));
    if (ctx.traced) mem::set_counting(true);
    const Round r = fn(ctx, shape);
    if (ctx.traced) mem::set_counting(false);
    (ctx.traced ? traced : plain).add(r, scale);
    notes.insert(notes.end(), r.notes.begin(), r.notes.end());
  }
  const double measured_s = seconds_since(start);

  const std::int64_t attempted = plain.attempted + traced.attempted;
  const std::int64_t failed = plain.failed + traced.failed;
  for (const std::string& note : notes) {
    std::fprintf(stderr, "check failed: %s\n", note.c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    const double packets = traced.count("net.packets");
    shape.payload_bytes = static_cast<std::size_t>(std::max(
        0.0, ratio(traced.count("net.bytes"), packets) - 24.0));
    shape.pending = traced.ledger.peak_pending;
    shape.delivery_share =
        1.0 - ratio(static_cast<double>(traced.ledger.steps_of(Layer::kTimer)),
                    static_cast<double>(traced.ledger.events()));
    const LoopResults loops = run_loops(shape, args.seed);
    metrics = per_layer(plain, traced, loops);
    to_reference_speed(metrics, kReferenceS / median(calibrations));
  } else {
    metrics = end_to_end(plain);
  }
  const double calibration_s = median(calibrations);

  std::printf("workload %s  seed %llu  trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("rounds %zu untraced + %zu traced in %.3f s; operations "
              "attempted %lld, failed %lld\n",
              plain.rounds, traced.rounds, measured_s,
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  std::printf("calibration %.4g ms (median of %zu): wall times below are "
              "scaled by about %.4f to the %.0f ms reference\n",
              1e3 * calibration_s, calibrations.size(),
              kReferenceS / calibration_s, 1e3 * kReferenceS);
  std::printf("untraced run_s per round, unscaled:");
  for (std::size_t i = 0; i < plain.run_s.size() && i < 16; ++i) {
    std::printf(" %.4g", plain.run_s[i]);
  }
  std::printf(plain.run_s.size() > 16 ? " ...\n" : "\n");
  std::printf("scale per round:");
  for (std::size_t i = 0; i < plain.scales.size() && i < 16; ++i) {
    std::printf(" %.4g", plain.scales[i]);
  }
  std::printf(plain.scales.size() > 16 ? " ...\n" : "\n");
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %-14s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::fflush(stdout);
  print_json(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::run(e2e::parse(argc, argv)); }
