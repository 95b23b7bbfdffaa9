// Stress and determinism tests for the two-tier event queue.
//
// The queue is the engine under every reproduced claim in the repo, so both
// tiers get adversarial coverage: randomized schedule/post/cancel/pop
// interleavings checked against a reference model, same-time ordering across
// the tiers, sequence renumbering, slot-leak and chunk-pool accounting,
// small-buffer-callable semantics, and a pinned trace fingerprint of the
// paper's §4.3 Example 1 proving protocol behaviour is byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "caa/world.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace caa::sim {

/// Test-only access to the queue's shared sequence counter.
struct EventQueueTestPeer {
  static void set_next_seq(EventQueue& q, std::uint32_t seq) {
    q.next_seq_ = seq;
  }
  static std::uint32_t next_seq(const EventQueue& q) { return q.next_seq_; }
};

namespace {

/// Golden FNV-1a digest of the §4.3 Example 1 protocol trace (computed by
/// TraceLog::fingerprint()). See Determinism.Example1TraceFingerprintIsPinned.
constexpr std::uint64_t kExample1Fingerprint = 0xC84D7FC7C975FA47ULL;

TEST(EventFn, InlineSmallCapturesHeapLargeOnes) {
  int hits = 0;
  EventFn small = [&hits] { ++hits; };
  EXPECT_TRUE(small.is_inline());

  struct Big {
    std::byte blob[2 * EventFn::kInlineSize];
  };
  Big big{};
  EventFn large = [&hits, big] {
    (void)big;
    ++hits;
  };
  EXPECT_FALSE(large.is_inline());

  small();
  large();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersTheCallable) {
  int fired = 0;
  EventFn a = [&fired] { ++fired; };
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, SupportsMoveOnlyCaptures) {
  auto value = std::make_unique<int>(7);
  int seen = 0;
  EventFn fn = [&seen, v = std::move(value)] { seen = *v; };
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(EventFn, DestroysCaptureWithoutFiring) {
  auto tracker = std::make_shared<int>(0);
  {
    EventFn fn = [tracker] { (void)tracker; };
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

/// Randomized interleavings against a reference model: a sorted set of
/// (time, seq) plus id bookkeeping. schedule(), post(), cancel() and pop()
/// interleave; posts land inside the wheel's horizon, beyond it and before
/// the latest pop, so both tiers and the fallback between them are hit.
/// Verifies pop order (time, then scheduling order) across the tiers, cancel
/// semantics, size accounting, and that neither tier leaks storage.
TEST(EventQueueStress, RandomScheduleCancelPopMatchesReferenceModel) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    Rng rng(seed);
    EventQueue q;

    struct ModelEvent {
      Time time;
      std::uint64_t order;  // scheduling order among all events
      EventId id;
    };
    // Reference: live events sorted by (time, order).
    std::set<std::pair<Time, std::uint64_t>> model;
    std::map<std::uint64_t, ModelEvent> by_order;  // live scheduled only
    std::vector<EventId> dead_ids;
    std::uint64_t next_order = 0;
    std::uint64_t fired_payload = 0;  // written by event bodies
    std::size_t max_live = 0;
    std::size_t max_posted = 0;
    std::size_t posted_live = 0;
    Time last_pop = 0;

    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t action = rng.below(100);
      if (action < 35) {  // schedule
        const Time at = last_pop + static_cast<Time>(rng.below(500)) - 100;
        const std::uint64_t order = next_order++;
        const EventId id = q.schedule(at, [order, &fired_payload] {
          fired_payload = fired_payload * 31 + order;
        });
        EXPECT_TRUE(id.valid());
        model.emplace(at, order);
        by_order.emplace(order, ModelEvent{at, order, id});
      } else if (action < 55) {  // post: mostly in the horizon, some not
        constexpr auto window =
            static_cast<std::uint64_t>(2 * EventQueue::kWheelTicks);
        const Time at = last_pop + static_cast<Time>(rng.below(window)) -
                        static_cast<Time>(rng.below(50));
        const std::uint64_t order = next_order++;
        q.post(at, [order, &fired_payload] {
          fired_payload = fired_payload * 31 + order;
        });
        model.emplace(at, order);
        ++posted_live;
      } else if (action < 70) {  // cancel a random live scheduled event
        if (by_order.empty()) continue;
        auto it = by_order.begin();
        std::advance(it, static_cast<long>(rng.below(by_order.size())));
        EXPECT_TRUE(q.cancel(it->second.id));
        EXPECT_FALSE(q.cancel(it->second.id)) << "double cancel must fail";
        model.erase({it->second.time, it->second.order});
        dead_ids.push_back(it->second.id);
        by_order.erase(it);
      } else if (action < 95) {  // pop
        if (model.empty()) {
          EXPECT_TRUE(q.empty());
          continue;
        }
        const auto expected = *model.begin();
        auto fired = q.pop();
        EXPECT_EQ(fired.time, expected.first);
        const std::uint64_t before = fired_payload;
        fired.fn();
        EXPECT_EQ(fired_payload, before * 31 + expected.second)
            << "pop order diverged from (time, scheduling order)";
        model.erase(model.begin());
        const bool scheduled = by_order.erase(expected.second) == 1;
        EXPECT_EQ(fired.id.valid(), scheduled)
            << "only scheduled events carry an id";
        if (scheduled) {
          dead_ids.push_back(fired.id);
        } else {
          --posted_live;
        }
        last_pop = std::max(last_pop, fired.time);
      } else {  // cancel of an already-dead id must fail
        if (dead_ids.empty()) continue;
        const EventId id = dead_ids[rng.below(dead_ids.size())];
        EXPECT_FALSE(q.cancel(id));
      }
      EXPECT_EQ(q.size(), model.size());
      EXPECT_EQ(q.empty(), model.empty());
      if (!model.empty()) {
        EXPECT_EQ(q.next_time(), model.begin()->first);
      }
      max_live = std::max(max_live, model.size());
      max_posted = std::max(max_posted, posted_live);
    }

    // Drain; order must still match the model.
    while (!model.empty()) {
      const auto expected = *model.begin();
      auto fired = q.pop();
      EXPECT_EQ(fired.time, expected.first);
      const std::uint64_t before = fired_payload;
      fired.fn();
      EXPECT_EQ(fired_payload, before * 31 + expected.second);
      model.erase(model.begin());
    }
    EXPECT_TRUE(q.empty());

    // No leaks: the slot arena never outgrows the concurrency high-water
    // mark, and the wheel's chunks never outgrow what the peak number of
    // pending posts needs (plus a partly filled head and tail per bucket).
    EXPECT_LE(q.arena_slots(), max_live);
    EXPECT_LE(q.wheel_chunks(), max_posted / EventQueue::kChunkEntries +
                                    2 * EventQueue::kWheelTicks);
  }
}

/// Same-time events fire in scheduling order whichever tier holds them:
/// schedule() goes to the heap, post() within the horizon to the wheel,
/// post() beyond it to the heap.
TEST(EventQueueStress, SameTimeEventsFireInSchedulingOrderAcrossTiers) {
  EventQueue q;
  std::vector<int> order;
  constexpr Time kNear = 40;
  constexpr Time kFar = EventQueue::kWheelTicks + 10;
  for (int i = 0; i < 12; ++i) {
    const Time at = i < 6 ? kNear : kFar;
    auto fn = [&order, i] { order.push_back(i); };
    if (i % 3 == 0) {
      q.schedule(at, fn);
    } else {
      q.post(at, fn);
    }
  }
  EXPECT_EQ(q.size(), 12u);
  EXPECT_EQ(q.next_time(), kNear);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

/// A standalone queue takes posts before the latest pop and beyond the
/// horizon; both fall back to the heap and still merge by (time, seq).
TEST(EventQueueStress, PostsBeforeLastPopAndBeyondHorizonKeepOrder) {
  EventQueue q;
  std::vector<Time> times;
  q.post(1000, [] {});  // beyond the horizon from 0: heap
  EXPECT_EQ(q.wheel_chunks(), 0u);
  EXPECT_EQ(q.pop().time, 1000);

  const Time last = EventQueue::kWheelTicks - 1;
  q.post(1000 + last, [&] { times.push_back(1000 + last); });  // wheel
  q.post(1000 + last + 1, [&] { times.push_back(1000 + last + 1); });  // heap
  q.post(900, [&] { times.push_back(900); });  // before the latest pop: heap
  q.post(1000, [&] { times.push_back(1000); });  // at the latest pop: wheel
  EXPECT_EQ(q.wheel_chunks(), 2u);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.next_time(), 900);
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_FALSE(fired.id.valid()) << "a posted event has no id";
    fired.fn();
  }
  EXPECT_EQ(times,
            (std::vector<Time>{900, 1000, 1000 + last, 1000 + last + 1}));
}

/// Near the 2^32 wrap of the shared sequence counter, renumbering must
/// cover pending wheel entries too, or posts made after the wrap would jump
/// ahead of same-time events made before it.
TEST(EventQueueStress, RenumberingCoversBothTiers) {
  EventQueue q;
  std::vector<int> order;
  int next = 0;
  auto add = [&](Time at, bool post) {
    auto fn = [&order, i = next++] { order.push_back(i); };
    if (post) {
      q.post(at, std::move(fn));
    } else {
      q.schedule(at, std::move(fn));
    }
  };
  add(10, true);
  add(20, false);
  EventQueueTestPeer::set_next_seq(q, 0xFFFFFFFFu - 5);
  for (int i = 0; i < 24; ++i) add(10 + 10 * (i % 2), i % 3 != 0);
  EXPECT_LT(EventQueueTestPeer::next_seq(q), 100u) << "no renumbering ran";
  std::vector<int> expected;
  for (int i = 0; i < next; ++i) {
    if (i % 2 == 0) expected.push_back(i);
  }
  for (int i = 0; i < next; ++i) {
    if (i % 2 == 1) expected.push_back(i);
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, expected);
}

TEST(EventQueueStress, WheelChunkPoolStaysFlatUnderChurn) {
  EventQueue q;
  int fired = 0;
  // 16 pending posts at all times, 50k post/pop cycles.
  for (int i = 0; i < 16; ++i) q.post(i, [&fired] { ++fired; });
  for (int i = 0; i < 50000; ++i) {
    auto f = q.pop();
    f.fn();
    q.post(f.time + 16, [&fired] { ++fired; });
  }
  EXPECT_EQ(fired, 50000);
  EXPECT_EQ(q.size(), 16u);
  EXPECT_EQ(q.arena_slots(), 0u) << "in-horizon posts touched the heap";
  EXPECT_LE(q.wheel_chunks(), 16u) << "wheel chunk pool leaked under churn";
}

/// Chunks are pooled across buckets: bursts into different ticks reuse the
/// same chunks, and a burst spread over every bucket needs no more than the
/// peak number of pending posts (plus one partly filled chunk per bucket).
TEST(EventQueueStress, WheelBurstsStayBoundedByPeakPendingPosts) {
  EventQueue q;
  constexpr std::size_t kBurst = 8 * EventQueue::kWheelTicks;
  Time base = 0;
  for (int burst = 0; burst < 8; ++burst) {  // each into one other tick
    const Time at = base + 1 + 29 * burst;
    for (std::size_t i = 0; i < kBurst; ++i) q.post(at, [] {});
    while (!q.empty()) base = q.pop().time;
    EXPECT_EQ(q.wheel_chunks(), kBurst / EventQueue::kChunkEntries);
  }
  // The same number of posts spread over every bucket.
  for (std::size_t i = 0; i < kBurst; ++i) {
    q.post(base + static_cast<Time>(i) % EventQueue::kWheelTicks, [] {});
  }
  EXPECT_LE(q.wheel_chunks(),
            kBurst / EventQueue::kChunkEntries + EventQueue::kWheelTicks);
  std::size_t drained = 0;
  Time last = base;
  while (!q.empty()) {
    const Time t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
    ++drained;
  }
  EXPECT_EQ(drained, kBurst);
  EXPECT_EQ(q.arena_slots(), 0u);
}

TEST(EventQueueStress, ArenaStaysFlatUnderChurn) {
  EventQueue q;
  int fired = 0;
  // 16 pending events at all times, 50k schedule/pop cycles.
  for (int i = 0; i < 16; ++i) q.schedule(i, [&fired] { ++fired; });
  for (int i = 0; i < 50000; ++i) {
    auto f = q.pop();
    f.fn();
    q.schedule(f.time + 16, [&fired] { ++fired; });
  }
  EXPECT_EQ(fired, 50000);
  EXPECT_EQ(q.size(), 16u);
  EXPECT_LE(q.arena_slots(), 16u) << "slot arena leaked under churn";
}

TEST(EventQueueStress, CancelledEventsFreeTheirSlotsImmediately) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int round = 0; round < 1000; ++round) {
    ids.clear();
    for (int i = 0; i < 32; ++i) {
      ids.push_back(q.schedule(round * 100 + i, [] {}));
    }
    for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
  }
  EXPECT_LE(q.arena_slots(), 32u) << "cancellation accumulated tombstones";
}

TEST(EventQueueStress, StaleIdsNeverCancelRecycledSlots) {
  EventQueue q;
  const EventId first = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(first));
  // The slot is recycled for a new event; the stale id must not kill it.
  const EventId second = q.schedule(20, [] {});
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_TRUE(q.empty());
}

/// §4.3 Example 1, pinned byte-for-byte. Two participants raise
/// concurrently; the full protocol trace (every send/recv/state record)
/// must hash to the same fingerprint before and after any optimization of
/// the simulator core. If an intentional protocol change lands, update the
/// constant — in its own PR, with the narrative diff reviewed.
TEST(Determinism, Example1TraceFingerprintIsPinned) {
  WorldConfig wc;
  wc.trace = true;
  World w(wc);
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  ex::ExceptionTree tree;
  const auto parent = tree.declare("E");
  tree.declare("E1", parent);
  tree.declare("E2", parent);
  const auto& decl = w.actions().declare("A1", std::move(tree));
  const auto& a1 =
      w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});
  for (auto* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(a1.instance,
                         action::EnterConfig::with(action::uniform_handlers(
                             decl.tree(), ex::HandlerResult::recovered()))));
  }
  w.at(1000, [&] { o1.raise("E1"); });
  w.at(1000, [&] { o2.raise("E2"); });
  w.run();

  ASSERT_FALSE(w.trace().records().empty());
  EXPECT_EQ(w.trace().fingerprint(), kExample1Fingerprint)
      << "§4.3 Example 1 trace changed — full narrative:\n"
      << w.trace().to_string();
}

}  // namespace
}  // namespace caa::sim
