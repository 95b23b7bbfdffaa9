// Unit tests of the discrete-event simulator: ordering, determinism,
// cancellation, quiescence, trace log.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/trace.h"

namespace caa::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // double cancel
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_after(100, [&] { seen = sim.now(); });
  sim.run_to_quiescence();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule_after(10, [&] {
    times.push_back(sim.now());
    sim.schedule_after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run_to_quiescence();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(10, [&] { ++fired; });
  sim.schedule_after(100, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_to_quiescence();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(i % 7, [&order, i] { order.push_back(i); });
    }
    sim.run_to_quiescence();
    return order;
  };
  EXPECT_EQ(run(), run());
}

/// One step_block() cohort is every event at the earliest time, whichever
/// queue tier holds it: timers, posted deliveries, and the zero-delay
/// continuations (scheduled or posted) the cohort's own handlers add.
TEST(Simulator, StepBlockCohortSpansBothQueueTiers) {
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(100, [&] {
    order.push_back('A');
    sim.post_at(sim.now(), [&] { order.push_back('E'); });
    sim.schedule_after(0, [&] { order.push_back('F'); });
  });
  sim.post_at(100, [&] { order.push_back('B'); });
  sim.schedule_at(100, [&] { order.push_back('C'); });
  sim.post_at(101, [&] { order.push_back('D'); });
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.step_block(), 5u);
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'E', 'F'}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_GT(sim.next_event_time(), sim.now());
  EXPECT_EQ(sim.step_block(), 1u);
  EXPECT_TRUE(sim.idle());
}

/// run_until() moves the clock without popping, so the queue's wheel still
/// sits at the latest pop; posts made after a long idle stretch must keep
/// (time, seq) order with timers all the same.
TEST(Simulator, PostAtAfterRunUntilPastTheHorizonKeepsOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.post_at(10, [&] { order.push_back(0); });
  sim.run_until(10 * EventQueue::kWheelTicks);
  const Time t = sim.now();
  sim.post_at(t + 5, [&] { order.push_back(2); });
  sim.schedule_at(t + 5, [&] { order.push_back(3); });
  sim.post_at(t + 5, [&] { order.push_back(4); });
  sim.post_at(t + 1, [&] {
    order.push_back(1);
    sim.post_at(sim.now() + 4, [&] { order.push_back(5); });
    sim.post_at(sim.now() + 3, [&] { order.push_back(-1); });
  });
  sim.run_to_quiescence();
  EXPECT_EQ(order, (std::vector<int>{0, 1, -1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.now(), t + 5);
}

TEST(SimulatorDeathTest, PostAtIntoThePastFails) {
  Simulator sim;
  sim.run_until(100);
  EXPECT_DEATH(sim.post_at(99, [] {}), "into the past");
  EXPECT_DEATH(sim.schedule_at(99, [] {}), "into the past");
}

TEST(Simulator, CountersAccumulate) {
  Simulator sim;
  const CounterId foo = CounterId::of("sim_test.foo");
  sim.counters().add(foo, 2);
  sim.counters().add(foo, 3);
  EXPECT_EQ(sim.counters().get(foo), 5);
  // Name-based reads (tests/debugging) go through the metrics facade.
  EXPECT_EQ(sim.obs().metrics().value("sim_test.foo"), 5);
}

TEST(TraceLog, DisabledRecordsNothing) {
  TraceLog log;
  log.record(1, "cat", "ev", "subj");
  EXPECT_TRUE(log.records().empty());
}

TEST(TraceLog, FilterAndCount) {
  TraceLog log;
  log.enable();
  log.record(1, "resolve", "raise", "O1");
  log.record(2, "net", "send Exception", "O1");
  log.record(3, "resolve", "raise", "O2");
  EXPECT_EQ(log.filter("resolve").size(), 2u);
  EXPECT_EQ(log.count_event("raise"), 2u);
  EXPECT_EQ(log.count_event("send Exception"), 1u);
  EXPECT_NE(log.to_string().find("send Exception"), std::string::npos);
}

}  // namespace
}  // namespace caa::sim
