// Standalone loops: the floors of the sim, net, overlay and ex layers,
// measured apart from any handler, on inputs shaped by the workload that
// ran before them (LoopShape).
#include <algorithm>

#include "bench.h"
#include "net/network.h"
#include "overlay/relay_tree.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace e2e {
namespace {

constexpr double kLoopSeconds = 0.15;

// Keeps loop results observable so the work is not folded away.
volatile std::uint64_t g_sink = 0;

/// EventQueue schedule + pop at the workload's peak pending depth: the
/// queue is filled to that depth, then each iteration pops the earliest
/// event and schedules one more, with delays drawn from the workload's mix:
/// LinkParams::lan() latency (100 + 0..20) for the share of steps that were
/// deliveries, uniform in [0, 1000] otherwise.
double queue_ns(const LoopShape& s, caa::Rng& rng) {
  using caa::sim::Time;
  std::vector<Time> delays(4096);
  for (Time& d : delays) {
    d = rng.chance(s.delivery_share) ? 100 + static_cast<Time>(rng.below(21))
                                     : static_cast<Time>(rng.below(1001));
  }
  const std::int64_t depth = std::clamp<std::int64_t>(s.pending, 1, 2'000'000);
  caa::sim::EventQueue queue;
  Time now = 0;
  std::size_t next = 0;
  for (std::int64_t i = 0; i < depth; ++i) {
    queue.schedule(now + delays[next++ & 4095], [] {});
  }
  std::int64_t ops = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < kLoopSeconds) {
    for (int i = 0; i < 4096; ++i) {
      caa::sim::EventQueue::Fired fired = queue.pop();
      now = fired.time;
      queue.schedule(now + delays[next++ & 4095], [] {});
    }
    ops += 4096;
    elapsed = seconds_since(t0);
  }
  g_sink = g_sink + static_cast<std::uint64_t>(now);
  return 1e9 * elapsed / static_cast<double>(ops);
}

/// Network::send plus delivery between bare nodes with no-op endpoints:
/// bursts of `fanout` sends from rotating sources to their next neighbours,
/// drained through the simulator. Returns ns per packet.
double send_deliver_ns(const LoopShape& s, std::uint64_t seed) {
  caa::sim::Simulator sim;
  caa::net::Network net(sim, seed);
  net.set_default_link(caa::net::LinkParams::lan());
  const std::uint32_t nodes = std::max<std::uint32_t>(s.nodes, 2);
  std::uint64_t delivered_bytes = 0;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    net.add_node(caa::NodeId(i));
    net.set_endpoint(caa::NodeId(i), [&delivered_bytes](caa::net::Packet&& p) {
      delivered_bytes += p.payload.size();
    });
  }
  const std::uint32_t fanout = std::clamp<std::uint32_t>(s.fanout, 1, nodes - 1);
  const std::uint32_t senders = std::min<std::uint32_t>(nodes, 64);
  const caa::net::Bytes payload(s.payload_bytes);
  std::int64_t packets = 0;
  std::uint32_t src = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < kLoopSeconds) {
    for (std::uint32_t f = 1; f <= fanout; ++f) {
      caa::net::Packet p;
      p.src = {caa::NodeId(src), caa::ObjectId(src)};
      const std::uint32_t dst = (src + f) % nodes;
      p.dst = {caa::NodeId(dst), caa::ObjectId(dst)};
      p.kind = caa::net::MsgKind::kAppData;
      p.payload = caa::net::BytesPool::local().copy_of(payload);
      net.send(std::move(p));
    }
    sim.run_to_quiescence();
    packets += fanout;
    src = (src + 1) % senders;
    elapsed = seconds_since(t0);
  }
  g_sink = g_sink + delivered_bytes;
  return 1e9 * elapsed / static_cast<double>(packets);
}

/// overlay::RelayTree construction over `tree_members` sorted members,
/// fanout 8. Returns us per construction.
double tree_build_us(const LoopShape& s) {
  std::vector<caa::ObjectId> members;
  for (std::uint32_t i = 0; i < std::max<std::uint32_t>(s.tree_members, 2); ++i) {
    members.emplace_back(i + 1);
  }
  std::int64_t builds = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < kLoopSeconds) {
    for (int i = 0; i < 64; ++i) {
      caa::overlay::RelayTree tree(members, 8);
      g_sink = g_sink + tree.live_count();
    }
    builds += 64;
    elapsed = seconds_since(t0);
  }
  return 1e6 * elapsed / static_cast<double>(builds);
}

/// ex::ExceptionTree::resolve over the raise sets the workload raised.
/// Returns ns per cover query.
double cover_ns(const LoopShape& s) {
  if (!s.make_tree || s.raise_sets.empty()) return 0.0;
  caa::ex::ExceptionTree tree = s.make_tree();
  tree.freeze();
  std::vector<std::vector<caa::ExceptionId>> sets;
  for (const auto& names : s.raise_sets) {
    std::vector<caa::ExceptionId> ids;
    for (const std::string& name : names) ids.push_back(tree.find(name));
    sets.push_back(std::move(ids));
  }
  std::int64_t queries = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < kLoopSeconds) {
    for (int i = 0; i < 256; ++i) {
      for (const auto& set : sets) {
        g_sink = g_sink + tree.resolve(set).value();
      }
    }
    queries += 256 * static_cast<std::int64_t>(sets.size());
    elapsed = seconds_since(t0);
  }
  return 1e9 * elapsed / static_cast<double>(queries);
}

}  // namespace

LoopResults run_loops(const LoopShape& shape, std::uint64_t seed) {
  caa::Rng rng(seed);
  LoopResults out;
  out.queue_ns = queue_ns(shape, rng);
  out.send_deliver_ns = send_deliver_ns(shape, seed);
  out.tree_build_us = tree_build_us(shape);
  out.cover_ns = cover_ns(shape);
  return out;
}

}  // namespace e2e
