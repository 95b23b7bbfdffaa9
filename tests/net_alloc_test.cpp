// Allocation accounting for the packet hot path.
//
// This binary overrides global operator new/delete with a counting
// allocator and pins the zero-allocation steady state the pooled send
// path promises: once buffers, counters and the event arena are warm, a
// ping-pong of AppData packets performs NO heap allocations — payloads
// come from the thread-local BytesPool, delivery events live in the
// EventFn small-buffer and the queue's slot arena, and counter writes hit
// a pre-grown dense table.
//
// Also covers WireWriter reuse after take() (the writer re-arms from its
// pool) and the pool's retention caps, and pins linear memory growth of
// relay-tree worlds in the committee size: the same allocator tracks live
// bytes (malloc_usable_size on both sides, so allocation and release always
// agree) and their high-water mark.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "caa/world.h"
#include "net/wire.h"
#include "rt/managed_object.h"
#include "rt/runtime.h"
#include "scenario/scenarios.h"

// GCC cross-pairs inlined std::vector allocations with the replaced global
// delete and warns; the replacement new/delete below are malloc/free-matched
// by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void* counted(void* p) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void released(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Counting allocator: every global allocation in this binary bumps the
// counter and the live-byte tally. Deallocation stays free-based so
// mismatched sized/unsized forms cannot double-count.
void* operator new(std::size_t size) {
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return counted(p);
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  return counted(p);
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { released(p); }
void operator delete[](void* p) noexcept { released(p); }
void operator delete(void* p, std::size_t) noexcept { released(p); }
void operator delete[](void* p, std::size_t) noexcept { released(p); }
void operator delete(void* p, std::align_val_t) noexcept { released(p); }
void operator delete[](void* p, std::align_val_t) noexcept { released(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  released(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  released(p);
}

namespace caa {
namespace {

/// Bounces every AppData packet straight back, taking its payload copy
/// from the thread-local pool (the zero-allocation idiom).
class PingPong final : public rt::ManagedObject {
 public:
  void on_message(ObjectId from, net::MsgKind kind,
                  const net::Bytes& payload) override {
    ++received_;
    if (kind == net::MsgKind::kAppData && bounces_left_ > 0) {
      --bounces_left_;
      send(from, net::MsgKind::kAppData,
           net::BytesPool::local().copy_of(payload));
    }
  }
  std::int64_t bounces_left_ = 0;
  std::int64_t received_ = 0;
};

TEST(NetAlloc, SteadyStatePacketTrafficAllocatesNothing) {
  WorldConfig wc;
  wc.link = net::LinkParams::lan();  // 20-tick latency: time advances
  World w(wc);
  PingPong a, b;
  const NodeId na = w.add_node(), nb = w.add_node();
  w.attach(a, "a", na);
  w.attach(b, "b", nb);
  a.bounces_left_ = 1'000'000;
  b.bounces_left_ = 1'000'000;

  w.at(0, [&] {
    net::WireWriter payload;
    payload.u64(0xfeedfacecafebeefULL);
    payload.str("steady-state probe");
    w.runtime(na).send(a.id(), b.id(), net::MsgKind::kAppData,
                       payload.take());
  });

  // Warm-up: grows the event arena, interns every counter this traffic
  // touches, and seeds the BytesPool free list. One hop costs ~100-120
  // virtual ticks (lan latency + jitter), so 10k ticks ≈ 90 deliveries.
  w.simulator().run_until(10'000);
  const std::int64_t received_before = a.received_ + b.received_;
  ASSERT_GT(received_before, 10) << "ping-pong never got going";

  const std::int64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  w.simulator().run_until(100'000);
  const std::int64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::int64_t received_after = a.received_ + b.received_;

  ASSERT_GT(received_after, received_before + 500)
      << "measurement window carried no traffic";
  EXPECT_EQ(allocs_after - allocs_before, 0)
      << "steady-state packet path allocated "
      << (allocs_after - allocs_before) << " times over "
      << (received_after - received_before) << " deliveries";

  // Wind down cleanly: stop bouncing and drain in-flight packets.
  a.bounces_left_ = 0;
  b.bounces_left_ = 0;
  w.run();
}

TEST(NetAlloc, WriterReuseAfterTake) {
  net::BytesPool pool;
  net::WireWriter writer(pool);
  writer.u32(7);
  writer.str("first");
  const net::Bytes first = writer.take();

  // The writer re-armed itself from the pool; a second message must not
  // see any bytes of the first.
  writer.u32(9);
  writer.str("second");
  const net::Bytes second = writer.take();

  net::WireReader r1(first);
  EXPECT_EQ(r1.u32().value(), 7u);
  EXPECT_EQ(r1.str().value(), "first");
  EXPECT_EQ(r1.remaining(), 0u);

  net::WireReader r2(second);
  EXPECT_EQ(r2.u32().value(), 9u);
  EXPECT_EQ(r2.str().value(), "second");
  EXPECT_EQ(r2.remaining(), 0u);

  // Round-trip the reuse: recycling a taken buffer and writing again must
  // serve it from the free list, not the heap.
  pool.recycle(net::Bytes(first));
  const std::int64_t reused_before = pool.reused();
  net::WireWriter again(pool);
  again.u64(42);
  const net::Bytes third = again.take();
  EXPECT_GT(pool.reused(), reused_before);
  net::WireReader r3(third);
  EXPECT_EQ(r3.u64().value(), 42u);
}

TEST(NetAlloc, PoolDropsOversizedAndOverflowBuffers) {
  net::BytesPool pool;

  // A buffer beyond the retention cap is dropped, not hoarded.
  net::Bytes huge;
  huge.reserve(net::BytesPool::kMaxRetainedCapacity + 1);
  pool.recycle(std::move(huge));
  EXPECT_EQ(pool.pooled(), 0u);

  // Moved-from (capacity 0) husks are ignored.
  pool.recycle(net::Bytes{});
  EXPECT_EQ(pool.pooled(), 0u);

  // The free list never grows past kMaxPooled.
  for (std::size_t i = 0; i < net::BytesPool::kMaxPooled + 10; ++i) {
    net::Bytes b;
    b.reserve(16);
    pool.recycle(std::move(b));
  }
  EXPECT_EQ(pool.pooled(), net::BytesPool::kMaxPooled);

  // copy_of produces equal bytes through a pooled buffer.
  net::Bytes src;
  src.push_back(std::byte{0xab});
  src.push_back(std::byte{0xcd});
  const net::Bytes copy = pool.copy_of(src);
  EXPECT_EQ(copy, src);
}

struct Footprint {
  std::int64_t after_setup = 0;  // live bytes once every member entered
  std::int64_t peak = 0;         // high-water mark over setup and run
};

/// Live heap of one relay-tree world of `members` members with 4 raisers,
/// measured against what was live before it was built.
Footprint tree_world_footprint(int members) {
  const std::int64_t base = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(base, std::memory_order_relaxed);
  Footprint out;
  {
    scenario::FlatOptions options;
    options.participants = members;
    options.raisers = 4;
    options.world.overlay.mode = overlay::OverlayParams::Mode::kTree;
    scenario::FlatScenario world(options);
    out.after_setup = g_live_bytes.load(std::memory_order_relaxed) - base;
    EXPECT_TRUE(world.run().all_handled) << members << " members";
  }
  out.peak = g_peak_bytes.load(std::memory_order_relaxed) - base;
  return out;
}

TEST(NetAlloc, TreeWorldMemoryGrowsLinearlyInMembers) {
  // 4x the members: per-member state grows the heap 4x; an O(N) copy of
  // the committee per member, or a dense per-pair channel table, grows it
  // 16x. Allow 6x for fixed costs and allocator rounding.
  const Footprint small = tree_world_footprint(512);
  const Footprint large = tree_world_footprint(2048);
  EXPECT_LE(large.after_setup, 6 * small.after_setup)
      << "after setup: " << small.after_setup << " B at N=512, "
      << large.after_setup << " B at N=2048";
  EXPECT_LE(large.peak, 6 * small.peak)
      << "peak: " << small.peak << " B at N=512, " << large.peak
      << " B at N=2048";
}

}  // namespace
}  // namespace caa
