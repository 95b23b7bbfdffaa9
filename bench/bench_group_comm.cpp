// E12 — §4.5 implementation substrate: group communication cost.
//
// Measures (a) multicast fan-out over closed groups of size N on the
// simulated network, and (b) the reliable transport's retransmission
// overhead as channel loss grows — the machinery the paper assumes when it
// says "if a reliable multicast can be used, acknowledgement messages will
// no longer be necessary".
#include "bench_common.h"
#include "rt/runtime.h"

namespace caa::bench {
namespace {

class Sink final : public rt::ManagedObject {
 public:
  void on_message(ObjectId, net::MsgKind, const net::Bytes&) override {
    ++received_;
  }
  [[nodiscard]] int received() const { return received_; }

 private:
  int received_ = 0;
};

class Sender final : public rt::ManagedObject {
 public:
  void on_message(ObjectId, net::MsgKind, const net::Bytes&) override {}
  void multicast(const std::vector<ObjectId>& members, int times) {
    net::WireWriter w;
    w.str("payload-of-a-resolution-message");
    const net::Bytes payload = std::move(w).take();
    for (int i = 0; i < times; ++i) {
      for (ObjectId m : members) send(m, net::MsgKind::kAppData, payload);
    }
  }
};

}  // namespace
}  // namespace caa::bench

int main() {
  using namespace caa;
  using namespace caa::bench;

  header("E12a — multicast fan-out over closed groups (loss-free)");
  std::printf("%6s %10s %14s %18s\n", "N", "packets", "bytes on wire",
              "delivery span (ticks)");
  for (int n : {2, 4, 8, 16, 32, 64}) {
    World w;
    Sender sender;
    std::vector<std::unique_ptr<Sink>> sinks;
    w.attach(sender, "sender", w.add_node());
    std::vector<ObjectId> members;
    for (int i = 0; i < n; ++i) {
      sinks.push_back(std::make_unique<Sink>());
      w.attach(*sinks.back(), "sink" + std::to_string(i), w.add_node());
      members.push_back(sinks.back()->id());
    }
    const sim::Time start = w.simulator().now();
    sender.multicast(members, 1);
    w.run();
    std::printf("%6d %10lld %14lld %18lld\n", n,
                static_cast<long long>(w.metrics().sent(net::MsgKind::kAppData)),
                static_cast<long long>(w.metrics().value("net.bytes_sent")),
                static_cast<long long>(w.simulator().now() - start));
  }

  header("E12b — reliable transport overhead vs channel loss");
  std::printf("(100 messages over one lossy channel; retransmit timer 500)\n");
  std::printf("%8s %12s %14s %12s\n", "loss", "delivered", "retransmits",
              "time (ticks)");
  for (double loss : {0.0, 0.1, 0.2, 0.4, 0.6}) {
    WorldConfig config;
    config.link = net::LinkParams::lossy(loss);
    config.reliable_transport = true;
    World w(config);
    Sender sender;
    Sink sink;
    w.attach(sender, "sender", w.add_node());
    w.attach(sink, "sink", w.add_node());
    const sim::Time start = w.simulator().now();
    sender.multicast({sink.id()}, 100);
    w.run();
    std::printf("%8.2f %12d %14lld %12lld\n", loss, sink.received(),
                static_cast<long long>(
                    w.metrics().value("net.reliable.retransmit")),
                static_cast<long long>(w.simulator().now() - start));
  }
  std::printf("=> exactly-once FIFO delivery survives heavy transient loss; "
              "the cost\n   surfaces as retransmissions and latency, not "
              "lost protocol messages.\n");
  return 0;
}
