// nested_abort: the §4.4 nested configuration.
//
// One raiser and N-1 members in a depth-3 nested chain, flat fan-out,
// N = 512 — built with the public calls scenario::NestedChainScenario
// uses. The raiser raises one leaf of A0's tree at t=1000; the N-1 members
// abort A3, A2, A1 innermost-first and every member handles the cover in A0.
//
// Checks, per world (one operation):
//   * the five resolution kinds total (N-1)(2P+3Q+1) packets, P=1, Q=N-1;
//   * every member handled, in A0, the cover the benchmark derives from the
//     declared tree by its own ancestor walk;
//   * no action failed.
#include <string>

#include "bench.h"
#include "util/check.h"
#include "util/rng.h"

namespace e2e {
namespace {

constexpr int kMembers = 512;
constexpr int kDepth = 3;
constexpr caa::sim::Time kRaiseAt = 1000;

TreeSpec outer_tree() {
  TreeSpec spec;
  for (int g = 0; g < 4; ++g) {
    const std::string group = "g" + std::to_string(g);
    spec.nodes.emplace_back(group, "");
    for (int l = 0; l < 4; ++l) {
      spec.nodes.emplace_back(group + "_e" + std::to_string(l), group);
    }
  }
  return spec;
}

}  // namespace

Round nested_abort_round(const RoundCtx& ctx, LoopShape& shape) {
  using caa::action::EnterConfig;
  using caa::action::uniform_handlers;
  using caa::net::MsgKind;

  Round r;
  caa::Rng rng(ctx.seed);
  const TreeSpec spec = outer_tree();
  const std::vector<std::string> leaves = spec.leaves();
  const std::string raised = leaves[rng.below(leaves.size())];
  const std::string expected_cover = spec.cover({raised});
  // §4.4 general formula with P = 1 raiser and Q = N-1 nested members.
  const std::int64_t p = 1;
  const std::int64_t q = kMembers - 1;
  std::int64_t expected_packets = (kMembers - 1) * (2 * p + 3 * q + 1);
  if (ctx.self_check && ctx.index == 0) ++expected_packets;

  MemProbe probe(ctx.traced);
  SetupCalls calls(ctx.traced);
  caa::WorldConfig config;
  config.seed = ctx.seed;
  config.link = caa::net::LinkParams::lan();
  config.overlay.mode = caa::overlay::OverlayParams::Mode::kFlat;

  const Clock::time_point setup_start = Clock::now();
  caa::World world(config);
  std::vector<caa::action::Participant*> objects;
  std::vector<caa::ObjectId> ids;
  for (int i = 0; i < kMembers; ++i) {
    objects.push_back(
        &calls.add_participant(world, "O" + std::to_string(i + 1)));
    ids.push_back(objects.back()->id());
  }
  // Leave times per level (0 = A0), for the action latency samples.
  std::vector<caa::sim::Time> last_leave(kDepth + 1, -1);
  auto on_leave = [&world, &last_leave](int level) {
    return [&world, &last_leave, level](caa::action::LeaveOutcome,
                                        caa::ExceptionId) {
      last_leave[level] = std::max(last_leave[level], world.simulator().now());
    };
  };
  const auto& outer_decl = world.actions().declare("A0", spec.build());
  const auto& outer = calls.create_instance(world, outer_decl, ids);
  for (auto* o : objects) {
    CAA_CHECK(calls.enter(
        *o, outer.instance,
        EnterConfig::with(uniform_handlers(outer_decl.tree(),
                                           caa::ex::HandlerResult::recovered()))
            .on_leave(on_leave(0))));
  }
  const caa::action::InstanceInfo* parent = &outer;
  const std::vector<caa::ObjectId> nested_ids(ids.begin() + 1, ids.end());
  for (int level = 1; level <= kDepth; ++level) {
    const auto& decl = world.actions().declare(
        "A" + std::to_string(level), caa::ex::shapes::star(1));
    const auto& inst =
        calls.create_instance(world, decl, nested_ids, parent->instance);
    for (int i = 1; i < kMembers; ++i) {
      CAA_CHECK(calls.enter(
          *objects[i], inst.instance,
          EnterConfig::with(uniform_handlers(
                                decl.tree(), caa::ex::HandlerResult::recovered()))
              .abortion([] { return caa::ex::AbortResult::none(0); })
              .on_leave(on_leave(level))));
    }
    parent = &inst;
  }
  world.at(kRaiseAt, [&objects, &raised] { objects[0]->raise(raised); });
  r.setup_s = seconds_since(setup_start);
  probe.setup_done();

  std::size_t events = 0;
  r.run_s = timed([&] {
    events = ctx.traced ? traced_run(world, r.ledger) : world.run();
  });
  probe.run_done();

  // ---- Output checks ----------------------------------------------------
  r.attempted = 1;
  const caa::obs::Metrics& m = world.metrics();
  const std::int64_t packets =
      m.sent(MsgKind::kException) + m.sent(MsgKind::kHaveNested) +
      m.sent(MsgKind::kNestedCompleted) + m.sent(MsgKind::kAck) +
      m.sent(MsgKind::kCommit);
  if (packets != expected_packets) {
    r.fail("nested_abort: resolution packets " + std::to_string(packets) +
           " != (N-1)(2P+3Q+1) = " + std::to_string(expected_packets));
  }
  int wrong = 0;
  for (const caa::action::Participant* o : objects) {
    bool handled = false;
    for (const caa::action::HandledRecord& rec : o->handled()) {
      if (rec.instance != outer.instance) continue;
      handled = outer_decl.tree().name_of(rec.resolved) == expected_cover;
      r.resolve_vt.push_back(rec.at - kRaiseAt);
    }
    if (!handled) ++wrong;
  }
  if (wrong > 0) {
    r.fail("nested_abort: " + std::to_string(wrong) +
           " members did not handle the derived cover " + expected_cover);
  }
  if (!world.failures().empty()) {
    r.fail("nested_abort: an action failed");
  }
  r.failed = r.notes.empty() ? 0 : 1;
  r.completed = 1 - r.failed;
  for (caa::sim::Time t : last_leave) {
    if (t >= 0) r.action_vt.push_back(t);  // every entry happened at t=0
  }

  tally_world(world, r.counts);
  r.counts["sim.events"] += static_cast<double>(events);
  r.counts["resolve.rounds"] += 1;
  r.counts["actions"] += kDepth + 1;
  r.calls = calls.times();
  r.add_mem(probe);

  shape.nodes = kMembers;
  shape.fanout = kMembers - 1;
  shape.tree_members = kMembers;
  shape.make_tree = [spec] { return spec.build(); };
  shape.raise_sets = {{raised}};
  return r;
}

}  // namespace e2e
