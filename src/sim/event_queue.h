// Priority queue of timestamped events with stable tie-breaking, in two
// tiers: a near-horizon wheel for fire-once posts and a 4-ary heap for
// everything else.
//
// Determinism contract: two events for the same virtual time fire in the
// order they were scheduled or posted (sequence numbers break ties). Both
// tiers draw from one sequence counter and pop()/next_time() merge them by
// exact (time, seq), so which tier holds an event never changes pop order.
// This is what makes every protocol trace in tests and benches exactly
// reproducible.
//
// Which tier an event goes on:
//   - schedule() always uses the far tier: a free-listed slot arena plus a
//     flat vector of (time, seq, slot) heap entries, 4-ary so a sift touches
//     half the levels a binary heap would and the four children of a node
//     share a cache line. It returns an EventId, and cancel() removes the
//     heap entry immediately (O(log n) sift), so cancelled events occupy no
//     memory and never slow later pops. Timers live here.
//   - post() is for events that are never cancelled — packet deliveries and
//     their duplicates. A post within kWheelTicks ticks at or after the
//     latest popped time goes on the near tier: one FIFO bucket per tick,
//     kWheelTicks buckets, with an occupancy bitmap to find the earliest
//     non-empty one. Bucket entries hold {seq, cause, EventFn} inline in
//     fixed-size chunks from a free-list pool the queue owns, so a pop reads
//     memory sequentially, a post never sifts, and resident memory tracks
//     the peak number of pending posts. A post outside that window (beyond
//     the horizon, or before the latest pop, which a standalone queue
//     allows) falls back to the far tier. A posted event has no id: its
//     Fired::id is invalid, whichever tier held it.
//
// The wheel's bucket array is allocated on the first post() it takes, so a
// queue that only schedules pays nothing for it. next_time() is genuinely
// const — there is no lazy state to launder.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.h"
#include "util/ids.h"

namespace caa::sim {

/// Virtual time in integral ticks. The library treats one tick as one
/// microsecond by convention; nothing depends on the unit.
using Time = std::int64_t;

class EventQueue {
 public:
  /// Near-tier horizon in ticks (a power of two). Covers the latency plus
  /// jitter of LinkParams::lan()/ideal()/lossy().
  static constexpr Time kWheelTicks = 256;
  /// Entries per near-tier chunk.
  static constexpr std::uint32_t kChunkEntries = 8;

  EventQueue() = default;
  // Buckets and the chunk free list hold raw pointers into chunks_.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at`. Returns an id usable with
  /// cancel(). `cause` is opaque to the queue: the simulator stores the
  /// flight-recorder record active at scheduling time and gets it back from
  /// pop(), which is what keeps causal chains connected across scheduled
  /// continuations (obs/flight_recorder.h).
  EventId schedule(Time at, EventFn fn, std::uint64_t cause = 0);

  /// Posts a fire-once event that cannot be cancelled. Same ordering and
  /// `cause` semantics as schedule(); see the header comment for the tier.
  void post(Time at, EventFn fn, std::uint64_t cause = 0);

  /// Cancels a scheduled event; returns false if it already fired or was
  /// cancelled.
  bool cancel(EventId id);

  /// Both tiers count.
  [[nodiscard]] bool empty() const {
    return heap_.empty() && wheel_size_ == 0;
  }
  [[nodiscard]] std::size_t size() const { return heap_.size() + wheel_size_; }

  /// Time of the earliest pending event; only valid when !empty().
  [[nodiscard]] Time next_time() const;

  /// Pops the earliest live event. Only valid when !empty().
  struct Fired {
    Time time;
    EventId id;  // invalid for posted events
    EventFn fn;
    std::uint64_t cause = 0;  // as passed to schedule()/post()
  };
  Fired pop();

  /// Number of arena slots ever allocated (live + free-listed). Bounded by
  /// the high-water mark of concurrently pending events; tests assert it
  /// stays flat under schedule/pop churn (no slot leaks).
  [[nodiscard]] std::size_t arena_slots() const { return slots_.size(); }

  /// Number of near-tier chunks ever allocated (in use + pooled). Bounded
  /// by the peak number of pending posts / kChunkEntries plus two chunks per
  /// occupied bucket; tests assert it stays flat under post/pop churn.
  [[nodiscard]] std::size_t wheel_chunks() const { return chunks_.size(); }

 private:
  friend struct EventQueueTestPeer;  // sets next_seq_ to force renumbering

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Slot {
    std::uint32_t generation = 0; // bumped on free; validates stale EventIds
    std::uint32_t heap_pos = kNone;  // position in heap_ while live
    std::uint32_t next_free = kNone; // free-list link while free
    bool posted = false;             // a post() beyond the wheel: no id
    std::uint64_t cause = 0;         // caller-opaque causal tag
    EventFn fn;
  };

  // 16 bytes, so the four children of a 4-ary node span one cache line.
  // seq is 32-bit: schedule()/post() renumber the pending entries
  // (preserving their relative order) in the astronomically rare case the
  // counter would wrap.
  struct HeapEntry {
    Time time;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  // A bucket's entries all share one time (the bucket's tick), so none is
  // stored.
  struct WheelEntry {
    std::uint32_t seq = 0;
    std::uint64_t cause = 0;
    EventFn fn;
  };

  struct Chunk {
    Chunk* next = nullptr;  // next chunk of the bucket, or free-list link
    std::array<WheelEntry, kChunkEntries> entries;
  };

  // FIFO of chunks: pops read head->entries[head_pos], posts write
  // tail->entries[tail_fill]. Both null while the bucket is empty.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::uint32_t head_pos = 0;
    std::uint32_t tail_fill = 0;
  };

  static constexpr std::size_t kWords = kWheelTicks / 64;

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void place(std::uint32_t heap_pos, const HeapEntry& entry) {
    heap_[heap_pos] = entry;
    slots_[entry.slot].heap_pos = heap_pos;
  }

  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);

  /// Reassigns dense sequence numbers to the pending entries of both tiers
  /// in their current (time, seq) order. Called when next_seq_ is about to
  /// wrap; heap order and bucket FIFO order are untouched because relative
  /// entry order is preserved.
  void renumber_seqs();

  /// Detaches heap_[pos], restores the heap property, and returns the
  /// detached entry.
  HeapEntry remove_at(std::uint32_t pos);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Index of the earliest non-empty bucket; only valid when wheel_size_>0.
  [[nodiscard]] std::size_t wheel_front() const;
  /// The tick bucket `index` holds, given every wheel entry lies in
  /// [wheel_base_, wheel_base_ + kWheelTicks).
  [[nodiscard]] Time bucket_time(std::size_t index) const {
    return wheel_base_ +
           static_cast<Time>((index - static_cast<std::size_t>(wheel_base_)) &
                             (kWheelTicks - 1));
  }
  Fired pop_wheel(std::size_t index);

  Chunk* acquire_chunk();
  void release_chunk(Chunk* chunk);

  // Far tier.
  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;  // min-heap by (time, seq)
  std::uint32_t free_head_ = kNone;
  std::uint32_t next_seq_ = 0;   // shared by both tiers

  // Near tier. wheel_base_ is the latest popped time (never decreases);
  // every wheel entry's time lies in [wheel_base_, wheel_base_+kWheelTicks).
  std::unique_ptr<Bucket[]> buckets_;  // kWheelTicks, on the first post()
  std::array<std::uint64_t, kWords> occupied_{};
  std::size_t wheel_size_ = 0;
  Time wheel_base_ = 0;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // owns every chunk
  Chunk* free_chunks_ = nullptr;
};

}  // namespace caa::sim
