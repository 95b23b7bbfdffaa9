// wide_tree: one action of N = 4096 members over the fanout-8 relay tree.
//
// Built with the public calls scenario::FlatScenario uses: every member
// enters one instance, and 16 raisers — every fourth of the 64
// lowest-ranked members from a seeded offset; FlatScenario's raisers also
// take the lowest ranks — raise seeded leaves of a two-level tree
// concurrently at t=1000. Relaying dominates
// the run; `enter` builds an engine, an overlay scope and a relay tree per
// member, so setup grows as N².
//
// Checks, per world (one operation): every member handled the cover the
// benchmark derives by its own ancestor walk, and no action failed. On the
// first round of a run the same world is also run in flat mode, and each
// member's resolved sequence must match: overlay mode must not change what
// is resolved.
#include <string>

#include "bench.h"
#include "util/check.h"
#include "util/rng.h"

namespace e2e {
namespace {

constexpr int kMembers = 4096;
constexpr int kRaisers = 16;
constexpr int kRaiserRanks = 64;
constexpr caa::sim::Time kRaiseAt = 1000;

TreeSpec wide_tree_spec() {
  TreeSpec spec;
  for (int g = 0; g < 8; ++g) {
    const std::string group = "g" + std::to_string(g);
    spec.nodes.emplace_back(group, "");
    for (int l = 0; l < 8; ++l) {
      spec.nodes.emplace_back(group + "_e" + std::to_string(l), group);
    }
  }
  return spec;
}

struct Plan {
  std::vector<int> raisers;          // member indices
  std::vector<std::string> leaves;   // raised by raisers[i]
};

/// Alternate rounds of each kind (untraced, traced) raise inside one group
/// (cover: the group) and across groups (cover: usually the root), so every
/// run mixes both evenly.
Plan make_plan(std::uint64_t seed, bool one_group) {
  caa::Rng rng(seed);
  Plan plan;
  // Every fourth of the 64 lowest ranks from a seeded offset, so the
  // raisers sit alike in the relay tree from round to round.
  const int offset = static_cast<int>(rng.below(kRaiserRanks / kRaisers));
  for (int i = 0; i < kRaisers; ++i) {
    plan.raisers.push_back(offset + i * (kRaiserRanks / kRaisers));
  }
  const std::uint64_t group = rng.below(8);
  for (int i = 0; i < kRaisers; ++i) {
    const std::uint64_t g = one_group ? group : rng.below(8);
    plan.leaves.push_back("g" + std::to_string(g) + "_e" +
                          std::to_string(rng.below(8)));
  }
  return plan;
}

/// One world; fills `resolved` with each member's (round, exception)
/// sequence and returns the events fired.
struct WorldRun {
  Round& round;
  const RoundCtx& ctx;
  const TreeSpec& spec;
  const Plan& plan;
  bool tree;
  bool measured;  // false for the flat twin: no timing, no samples
  std::vector<std::vector<std::pair<std::uint32_t, std::string>>> resolved;

  std::size_t run() {
    using caa::action::EnterConfig;
    using caa::action::uniform_handlers;
    MemProbe probe(ctx.traced && measured);
    SetupCalls calls(ctx.traced && measured);
    caa::WorldConfig config;
    config.seed = ctx.seed;
    config.link = caa::net::LinkParams::lan();
    config.overlay.mode = tree ? caa::overlay::OverlayParams::Mode::kTree
                               : caa::overlay::OverlayParams::Mode::kFlat;

    const Clock::time_point setup_start = Clock::now();
    caa::World world(config);
    std::vector<caa::action::Participant*> objects;
    std::vector<caa::ObjectId> ids;
    for (int i = 0; i < kMembers; ++i) {
      objects.push_back(
          &calls.add_participant(world, "O" + std::to_string(i + 1)));
      ids.push_back(objects.back()->id());
    }
    caa::sim::Time last_leave = -1;
    const auto& decl = world.actions().declare("A", spec.build());
    const auto& inst = calls.create_instance(world, decl, ids);
    for (auto* o : objects) {
      CAA_CHECK(calls.enter(
          *o, inst.instance,
          EnterConfig::with(uniform_handlers(
                                decl.tree(), caa::ex::HandlerResult::recovered()))
              .abortion([] { return caa::ex::AbortResult::none(0); })
              .on_leave([&world, &last_leave](caa::action::LeaveOutcome,
                                              caa::ExceptionId) {
                last_leave = world.simulator().now();
              })));
    }
    world.at(kRaiseAt, [this, &objects] {
      for (std::size_t i = 0; i < plan.raisers.size(); ++i) {
        objects[static_cast<std::size_t>(plan.raisers[i])]->raise(
            plan.leaves[i]);
      }
    });
    const double setup_s = seconds_since(setup_start);
    probe.setup_done();

    std::size_t events = 0;
    const double run_s = timed([&] {
      events = ctx.traced && measured ? traced_run(world, round.ledger)
                                      : world.run();
    });
    probe.run_done();

    resolved.assign(objects.size(), {});
    for (std::size_t i = 0; i < objects.size(); ++i) {
      for (const caa::action::HandledRecord& rec : objects[i]->handled()) {
        resolved[i].emplace_back(rec.round, decl.tree().name_of(rec.resolved));
        if (measured) round.resolve_vt.push_back(rec.at - kRaiseAt);
      }
    }
    if (!world.failures().empty()) round.fail("wide_tree: an action failed");
    if (!measured) return events;

    round.setup_s = setup_s;
    round.run_s = run_s;
    if (last_leave >= 0) round.action_vt.push_back(last_leave);
    tally_world(world, round.counts);
    round.counts["sim.events"] += static_cast<double>(events);
    round.counts["resolve.rounds"] += 1;
    round.counts["actions"] += 1;
    round.calls = calls.times();
    round.add_mem(probe);
    return events;
  }
};

}  // namespace

Round wide_tree_round(const RoundCtx& ctx, LoopShape& shape) {
  Round r;
  r.attempted = 1;
  const TreeSpec spec = wide_tree_spec();
  const Plan plan = make_plan(ctx.seed, ctx.kind_index % 2 == 0);
  const std::string cover = spec.cover(plan.leaves);

  WorldRun tree_run{r, ctx, spec, plan, /*tree=*/true, /*measured=*/true,
                    {}};
  tree_run.run();
  int wrong = 0;
  for (std::size_t i = 0; i < tree_run.resolved.size(); ++i) {
    std::string expected = cover;
    if (ctx.self_check && ctx.index == 0 && i == 0) expected += "_corrupted";
    const auto& seq = tree_run.resolved[i];
    if (seq.size() != 1 || seq.front().second != expected) ++wrong;
  }
  if (wrong > 0) {
    r.fail("wide_tree: " + std::to_string(wrong) +
           " members did not handle exactly the derived cover " + cover);
  }
  if (ctx.index == 0) {
    WorldRun flat_run{r, ctx, spec, plan, /*tree=*/false, /*measured=*/false,
                      {}};
    flat_run.run();
    if (flat_run.resolved != tree_run.resolved) {
      r.fail("wide_tree: tree mode resolved differently from flat mode");
    }
  }
  // One operation per round, however many of its checks failed.
  r.failed = r.notes.empty() ? 0 : 1;
  r.completed = 1 - r.failed;

  shape.nodes = kMembers;
  shape.fanout = 8;
  shape.tree_members = kMembers;
  shape.make_tree = [spec] { return spec.build(); };
  shape.raise_sets = {plan.leaves};
  return r;
}

}  // namespace e2e
