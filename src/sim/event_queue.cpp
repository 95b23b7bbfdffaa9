#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.h"

namespace caa::sim {
namespace {

// EventId layout: generation in the high 32 bits, slot index in the low 32.
// The all-ones pattern is StrongId's invalid value; generations wrap below
// 2^32-1 so a live id can never collide with it.
constexpr std::uint64_t encode(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<std::uint64_t>(generation) << 32) | slot;
}
constexpr std::uint32_t slot_of(std::uint64_t id) {
  return static_cast<std::uint32_t>(id);
}
constexpr std::uint32_t generation_of(std::uint64_t id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNone) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNone;
    return index;
  }
  CAA_CHECK_MSG(slots_.size() < kNone, "event arena exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = EventFn();  // drop the capture eagerly
  slot.heap_pos = kNone;
  slot.posted = false;
  // 2^32-2 cap keeps encode() clear of StrongId's invalid all-ones value.
  slot.generation = slot.generation >= kNone - 1 ? 0 : slot.generation + 1;
  slot.next_free = free_head_;
  free_head_ = index;
}

// 4-ary heap: pops dominate the workload, and a wider node halves the tree
// depth sift_down() walks while keeping all four children adjacent in
// memory — markedly fewer cache misses than a binary heap once hundreds of
// thousands of deliveries are pending.
namespace {
constexpr std::uint32_t kArity = 4;
}  // namespace

void EventQueue::sift_up(std::uint32_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, moving);
}

void EventQueue::sift_down(std::uint32_t pos) {
  // Bottom-up variant: walk the hole down along best children without
  // comparing against `moving` at each level, then bubble `moving` back up.
  // remove_at() mostly sifts the former tail entry, which nearly always
  // belongs near the leaves, so the upward pass is O(1) expected and each
  // level costs kArity-1 comparisons instead of kArity. Any arrangement a
  // valid sift produces yields the same pop order — (time, seq) is a strict
  // total order — so this changes cost only, not behaviour.
  const HeapEntry moving = heap_[pos];
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint32_t first = kArity * pos + 1;
    if (first >= size) break;
    std::uint32_t best = first;
    const std::uint32_t last = std::min(first + kArity, size);
    for (std::uint32_t child = first + 1; child < last; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    place(pos, heap_[best]);
    pos = best;
  }
  // `moving` now belongs somewhere on the chain of ancestors of the leaf
  // hole; sift_up restores the heap property along exactly that chain.
  place(pos, moving);
  sift_up(pos);
}

EventQueue::HeapEntry EventQueue::remove_at(std::uint32_t pos) {
  const HeapEntry removed = heap_[pos];
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (removed.slot != last.slot) {
    // Fill the hole with the former tail; it may need to move either way.
    place(pos, last);
    if (pos > 0 && before(last, heap_[(pos - 1) / kArity])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }
  return removed;
}

void EventQueue::renumber_seqs() {
  struct Ref {
    Time time;
    std::uint32_t seq;
    std::uint32_t* where;
  };
  std::vector<Ref> refs;
  refs.reserve(size());
  for (HeapEntry& entry : heap_) {
    refs.push_back({entry.time, entry.seq, &entry.seq});
  }
  for (std::size_t index = 0; wheel_size_ != 0 && index < kWheelTicks;
       ++index) {
    const Bucket& bucket = buckets_[index];
    const Time time = bucket_time(index);
    std::uint32_t pos = bucket.head_pos;
    for (Chunk* chunk = bucket.head; chunk != nullptr;
         chunk = chunk->next, pos = 0) {
      const std::uint32_t end =
          chunk == bucket.tail ? bucket.tail_fill : kChunkEntries;
      for (; pos < end; ++pos) {
        WheelEntry& entry = chunk->entries[pos];
        refs.push_back({time, entry.seq, &entry.seq});
      }
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  std::uint32_t next = 0;
  for (const Ref& ref : refs) *ref.where = next++;
  next_seq_ = next;
}

EventId EventQueue::schedule(Time at, EventFn fn, std::uint64_t cause) {
  if (next_seq_ == kNone) renumber_seqs();  // pending count < 2^32 - 1
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.cause = cause;
  heap_.push_back(HeapEntry{at, next_seq_++, index});
  slot.heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(slot.heap_pos);
  return EventId(encode(slot.generation, index));
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t index = slot_of(id.value());
  if (!id.valid() || index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.heap_pos == kNone || slot.generation != generation_of(id.value())) {
    return false;  // already fired, cancelled, or a recycled slot
  }
  remove_at(slot.heap_pos);
  release_slot(index);
  return true;
}

void EventQueue::post(Time at, EventFn fn, std::uint64_t cause) {
  if (at < wheel_base_ || at - wheel_base_ >= kWheelTicks) {
    // Outside the wheel's window: the heap holds it, still without an id.
    slots_[slot_of(schedule(at, std::move(fn), cause).value())].posted = true;
    return;
  }
  if (next_seq_ == kNone) renumber_seqs();
  if (!buckets_) buckets_ = std::make_unique<Bucket[]>(kWheelTicks);
  const auto index = static_cast<std::size_t>(at) & (kWheelTicks - 1);
  Bucket& bucket = buckets_[index];
  if (bucket.tail == nullptr) {
    bucket.head = bucket.tail = acquire_chunk();
    occupied_[index / 64] |= std::uint64_t{1} << (index % 64);
  } else if (bucket.tail_fill == kChunkEntries) {
    Chunk* chunk = acquire_chunk();
    bucket.tail->next = chunk;
    bucket.tail = chunk;
    bucket.tail_fill = 0;
  }
  WheelEntry& entry = bucket.tail->entries[bucket.tail_fill++];
  entry.seq = next_seq_++;
  entry.cause = cause;
  entry.fn = std::move(fn);
  ++wheel_size_;
}

EventQueue::Chunk* EventQueue::acquire_chunk() {
  if (free_chunks_ != nullptr) {
    Chunk* chunk = free_chunks_;
    free_chunks_ = chunk->next;
    chunk->next = nullptr;
    return chunk;
  }
  chunks_.push_back(std::make_unique<Chunk>());
  return chunks_.back().get();
}

void EventQueue::release_chunk(Chunk* chunk) {
  chunk->next = free_chunks_;  // every entry was moved out by pop_wheel()
  free_chunks_ = chunk;
}

std::size_t EventQueue::wheel_front() const {
  // Scan the bitmap cyclically from wheel_base_'s bucket: the first set bit
  // is the earliest tick, because every entry lies within one horizon.
  const auto start = static_cast<std::size_t>(wheel_base_) & (kWheelTicks - 1);
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  CAA_CHECK_MSG(false, "wheel_front() on an empty wheel");
  return 0;
}

EventQueue::Fired EventQueue::pop_wheel(std::size_t index) {
  Bucket& bucket = buckets_[index];
  WheelEntry& entry = bucket.head->entries[bucket.head_pos++];
  const Time time = bucket_time(index);
  Fired fired{time, EventId(), std::move(entry.fn), entry.cause};
  if (bucket.head == bucket.tail && bucket.head_pos == bucket.tail_fill) {
    release_chunk(bucket.head);
    bucket = Bucket{};
    occupied_[index / 64] &= ~(std::uint64_t{1} << (index % 64));
  } else if (bucket.head_pos == kChunkEntries) {
    Chunk* done = bucket.head;
    bucket.head = done->next;
    bucket.head_pos = 0;
    release_chunk(done);
  }
  --wheel_size_;
  wheel_base_ = time;  // the global minimum, so never below the old base
  return fired;
}

Time EventQueue::next_time() const {
  CAA_CHECK_MSG(!empty(), "next_time() on empty queue");
  if (wheel_size_ == 0) return heap_.front().time;
  const Time wheel = bucket_time(wheel_front());
  return heap_.empty() ? wheel : std::min(wheel, heap_.front().time);
}

EventQueue::Fired EventQueue::pop() {
  CAA_CHECK_MSG(!empty(), "pop() on empty queue");
  if (wheel_size_ != 0) {
    // Merge the tiers by exact (time, seq).
    const std::size_t index = wheel_front();
    if (heap_.empty()) return pop_wheel(index);
    const Bucket& bucket = buckets_[index];
    const HeapEntry front{bucket_time(index),
                          bucket.head->entries[bucket.head_pos].seq, 0};
    if (before(front, heap_.front())) return pop_wheel(index);
  }
  const HeapEntry entry = remove_at(0);
  Slot& slot = slots_[entry.slot];
  Fired fired{entry.time,
              slot.posted ? EventId() : EventId(encode(slot.generation,
                                                       entry.slot)),
              std::move(slot.fn), slot.cause};
  release_slot(entry.slot);
  wheel_base_ = std::max(wheel_base_, entry.time);
  return fired;
}

}  // namespace caa::sim
