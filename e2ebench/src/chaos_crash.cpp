// chaos_crash: a crash-heavy fault campaign of small worlds.
//
// Each round is one run::Campaign of kTrials trials on one worker thread:
// with more, other tenants of a shared machine move the figures far more. A trial is the world fault::run_chaos_trial builds —
// 3..6 participants over the reliable transport, a two-level tree, a crash
// exception, GC'd leave records — under a fault::chaos_plan of the
// crash-heavy mix, run to the 60,000-tick deadline and audited by
// fault::check_invariants. The benchmark builds the trial itself, with the
// same public calls, so it can time setup and run apart and read raise,
// handler and leave times.
//
// Three settings differ from the crash-heavy campaign defaults, because
// each of them fails on some trial seeds and would make a run's outcome
// depend on its seed: restarts are dropped from the plans (fail-stop
// crashes only; with restarts, about one trial in 10^6 leaves a survivor
// stuck in its action), the resolver committee is 1 (with 2, about one in
// 500,000 ends in a resolution disagreement), and the exit is the
// done-barrier (with Paxos Commit a CAA_CHECK in caa/participant.cpp,
// "exit host: scope not open here", aborts the process).
//
// Check, per trial (one operation): zero oracle violations.
#include <map>
#include <set>
#include <string>

#include "bench.h"
#include "fault/chaos.h"
#include "fault/injector.h"
#include "fault/oracle.h"
#include "run/campaign.h"
#include "util/check.h"
#include "util/rng.h"

namespace e2e {
namespace {

constexpr std::size_t kTrials = 240;

caa::fault::ChaosOptions chaos_options() {
  caa::fault::ChaosOptions options;
  options.mix = caa::fault::FaultMix::kCrashHeavy;
  options.committee = 1;
  return options;
}

/// What one trial hands back besides its WorldResult.
struct TrialOut {
  double setup_s = 0.0;
  double run_s = 0.0;
  double plan_s = 0.0;
  bool clean = false;
  std::string violation;
  std::vector<std::int64_t> resolve_vt;
  std::int64_t action_vt = -1;
  std::int64_t events = 0;
  std::map<std::string, double> counts;
  Ledger ledger;
  CallTimes calls;
  double live_mb_after_setup = 0.0;
  double peak_mb = 0.0;
  std::int64_t run_allocs = 0;
};

void run_trial(std::uint64_t trial_seed, bool traced,
               const caa::fault::ChaosOptions& options, TrialOut& out) {
  using caa::action::Participant;
  caa::fault::FaultPlan plan;
  out.plan_s =
      timed([&] { plan = caa::fault::chaos_plan(trial_seed, options); });
  // Fail-stop: crashed nodes stay down.
  std::erase_if(plan.events, [](const caa::fault::FaultEvent& e) {
    return e.kind == caa::fault::FaultKind::kRestart;
  });

  MemProbe probe(traced);
  SetupCalls calls(traced);
  const Clock::time_point setup_start = Clock::now();
  caa::Rng rng(trial_seed);
  const std::uint32_t n =
      options.min_participants +
      static_cast<std::uint32_t>(rng.below(
          options.max_participants - options.min_participants + 1));
  caa::WorldConfig config;
  config.link = caa::net::LinkParams::lan();
  config.seed = trial_seed;
  config.reliable_transport = true;
  config.reliable.rto = 300;
  config.reliable.max_retries = 40;
  config.exit_protocol = plan.exit;
  config.resolve_avoidance = plan.avoid;
  config.exit_gc = true;
  caa::World w(config);

  std::vector<Participant*> objects;
  std::vector<caa::ObjectId> ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    const caa::NodeId node = w.add_node();
    objects.push_back(
        &calls.add_participant(w, "O" + std::to_string(i + 1), node));
    ids.push_back(objects.back()->id());
  }
  caa::ex::ExceptionTree tree;
  const auto cover = tree.declare("cover");
  tree.declare("ea", cover);
  tree.declare("eb", cover);
  tree.declare("peer_crash");
  const auto& decl = w.actions().declare("A", std::move(tree));
  const auto& inst = calls.create_instance(w, decl, ids);
  caa::sim::Time last_leave = -1;
  for (auto* o : objects) {
    const bool entered = calls.enter(
        *o, inst.instance,
        caa::action::EnterConfig::with(
            caa::action::uniform_handlers(
                decl.tree(),
                caa::ex::HandlerResult::recovered(
                    static_cast<caa::sim::Time>(rng.below(300)))))
            .committee(options.committee)
            .on_peer_crash(decl.tree().find("peer_crash"))
            .on_leave([&w, &last_leave](caa::action::LeaveOutcome,
                                        caa::ExceptionId) {
              last_leave = w.simulator().now();
            }));
    CAA_CHECK_MSG(entered, "chaos trial: initial enter refused");
  }
  // 1-2 raisers at random times, guarded as in run_chaos_trial; the time
  // of the first raise that actually happens starts the latency samples.
  caa::sim::Time first_raise = -1;
  const int raisers = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < raisers; ++i) {
    Participant* p = objects[rng.below(objects.size())];
    const caa::sim::Time t = 1000 + static_cast<caa::sim::Time>(rng.below(500));
    const bool which = rng.chance(0.5);
    w.at(t, [p, which, &w, &first_raise] {
      if (!p->in_action()) return;
      if (p->at_acceptance_line()) return;
      if (p->resolver_state() != caa::resolve::ResolverCore::State::kNormal) {
        return;
      }
      if (first_raise < 0) first_raise = w.simulator().now();
      p->raise(which ? "ea" : "eb");
    });
  }
  for (auto* o : objects) {
    for (caa::sim::Time t = 6000; t <= 30000; t += 2000) {
      w.at(t, [o] {
        if (o->in_action() && !o->at_acceptance_line() &&
            o->resolver_state() ==
                caa::resolve::ResolverCore::State::kNormal) {
          o->complete();
        }
      });
    }
  }
  caa::fault::FaultInjector injector(w, plan);
  out.setup_s = seconds_since(setup_start);
  probe.setup_done();

  out.run_s = timed([&] {
    if (traced) {
      out.events = static_cast<std::int64_t>(
          traced_steps(w, out.ledger, options.deadline));
    }
    out.events += static_cast<std::int64_t>(
        w.simulator().run_until(options.deadline));
  });
  probe.run_done();

  caa::fault::OracleOptions oracle;
  oracle.deadline = options.deadline;
  const caa::fault::OracleReport report = caa::fault::check_invariants(w, oracle);
  out.clean = report.ok();
  if (!out.clean) out.violation = report.summary();

  if (first_raise >= 0) {
    for (const Participant* o : objects) {
      // Each participant's first handler start after the first raise;
      // rounds opened by a crash exception before it carry no sample.
      for (const caa::action::HandledRecord& rec : o->handled()) {
        if (rec.at < first_raise) continue;
        out.resolve_vt.push_back(rec.at - first_raise);
        break;
      }
    }
  }
  out.action_vt = last_leave;  // every entry happened at t=0
  tally_world(w, out.counts);
  out.counts["actions"] += 1;
  std::set<std::pair<std::uint64_t, std::uint32_t>> rounds;
  for (const Participant* o : objects) {
    for (const caa::action::HandledRecord& rec : o->handled()) {
      rounds.emplace(rec.instance.value(), rec.round);
    }
  }
  out.counts["resolve.rounds"] += static_cast<double>(rounds.size());
  out.calls = calls.times();
  out.live_mb_after_setup = probe.live_mb_after_setup();
  out.peak_mb = probe.peak_mb();
  out.run_allocs = probe.run_allocs();
}

}  // namespace

Round chaos_crash_round(const RoundCtx& ctx, LoopShape& shape) {
  const caa::fault::ChaosOptions options = chaos_options();
  std::vector<TrialOut> outs(kTrials);
  caa::run::CampaignOptions campaign_options;
  campaign_options.seed = ctx.seed;
  campaign_options.threads = 1;
  caa::run::Campaign campaign(campaign_options);
  for (std::size_t i = 0; i < kTrials; ++i) {
    campaign.add("chaos#" + std::to_string(i),
                 [&outs, &options, traced = ctx.traced](
                     const caa::run::WorldContext& wc) {
                   TrialOut& out = outs[wc.index];
                   const Clock::time_point t0 = Clock::now();
                   run_trial(wc.seed, traced, options, out);
                   caa::run::WorldResult result;
                   result.name = "chaos#" + std::to_string(wc.index);
                   result.wall_ms = 1e3 * seconds_since(t0);
                   result.ok = out.clean;
                   result.error = out.violation;
                   return result;
                 });
  }
  const Clock::time_point t0 = Clock::now();
  const caa::run::CampaignResult result = campaign.run();
  const double campaign_s = seconds_since(t0);

  Round r;
  r.attempted = static_cast<std::int64_t>(kTrials);
  double world_s = 0.0;
  double plan_s = 0.0;
  for (std::size_t i = 0; i < kTrials; ++i) {
    const TrialOut& out = outs[i];
    // The expected violation count is zero; the self-check expects one of
    // trial 0 instead.
    const bool expect_clean = !(ctx.self_check && ctx.index == 0 && i == 0);
    if (out.clean != expect_clean) {
      ++r.failed;
      // caa-chaos --seed <campaign seed> --index <trial> replays the trial.
      r.fail("chaos_crash: campaign seed " + std::to_string(ctx.seed) +
             " trial " + std::to_string(i) + ": " +
             (out.clean ? "expected a violation" : out.violation));
    }
    r.setup_s += out.setup_s;
    r.run_s += out.run_s;
    plan_s += out.plan_s;
    world_s += result.worlds[i].wall_ms / 1e3;
    r.trial_ms.push_back(result.worlds[i].wall_ms);
    r.resolve_vt.insert(r.resolve_vt.end(), out.resolve_vt.begin(),
                        out.resolve_vt.end());
    if (out.action_vt >= 0) r.action_vt.push_back(out.action_vt);
    for (const auto& [k, v] : out.counts) r.counts[k] += v;
    r.counts["sim.events"] += static_cast<double>(out.events);
    r.ledger.add(out.ledger);
    r.calls.add(out.calls);
    r.live_mb_after_setup += out.live_mb_after_setup;
    ++r.mem_worlds;
    r.peak_live_mb = std::max(r.peak_live_mb, out.peak_mb);
    r.run_allocs += out.run_allocs;
  }
  r.completed = r.attempted - r.failed;
  r.counts["campaign.wall_s"] += campaign_s;
  r.counts["campaign.world_s"] += world_s;
  r.counts["campaign.threads"] = result.threads_used;
  r.counts["fault.plans"] += static_cast<double>(kTrials);
  r.counts["fault.plan_s"] += plan_s;
  r.wall_s = campaign_s;

  shape.nodes = options.max_participants;
  shape.fanout = options.max_participants - 1;
  shape.tree_members = options.max_participants;
  shape.make_tree = [] {
    caa::ex::ExceptionTree tree;
    const auto cover = tree.declare("cover");
    tree.declare("ea", cover);
    tree.declare("eb", cover);
    tree.declare("peer_crash");
    return tree;
  };
  shape.raise_sets = {{"ea", "eb"}, {"ea"}, {"eb"}, {"ea", "peer_crash"}};
  return r;
}

}  // namespace e2e
