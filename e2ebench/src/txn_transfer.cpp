// txn_transfer: short transfer CA actions over atomic accounts.
//
// 8 lanes of 3 participants run 150 transfers each, one after another, so
// 8 transfers are in flight at any time (a closed loop of 8 clients). Each
// transfer is a CA action over its lane's members whose leader — the
// lane's teller — moves `amount` between two accounts. 64 accounts live on
// 4 hosts; half the account picks hit 4 hot accounts, so transfers contend
// and wait-die victims retry by backward recovery.
//
// Each attempt runs as a nested transaction under one top-level
// transaction per transfer, begun on the first attempt: wait-die ranks a
// transaction by its top-level id, so a retried transfer keeps its age and
// cannot starve. All transactions go through one TxnClient on its own node,
// because a TxnId orders by client id before sequence number: with one
// client per lane, every transaction of a higher-id client would rank
// younger than every one of a lower-id client. Each attempt posts to its
// two accounts in ascending account order: txn::LockManager's wait-die
// test looks only at lock holders, so a younger transaction can queue
// behind an older waiter and two transfers posting in opposite orders
// deadlock. Exit is Paxos Commit and coordination
// avoidance is on. The mix:
//
//   clean        35%  ops, then every member completes
//   commutative  20%  ops, then 2-3 members raise audit_* leaves together:
//                     one universal cover, the avoidance fast path
//   conflicting  15%  ops, then audit_a and hardware/disk/disk_slow: the
//                     covers differ, the census falls back to the engine
//   forward      15%  the second posting is off by kMispost; the teller
//                     raises `misposted` and its handler repairs in place
//   backward     15%  the first attempt fails its acceptance test: abort,
//                     before-images restored, a clean retry commits
//
// Checks: the balance sum is conserved; each account ends at its initial
// value plus its planned deltas; each transfer commits its transaction
// exactly once and every member leaves committed, having handled the cover
// the benchmark derives from the raised set; fault::check_invariants is
// clean. One operation is one transfer.
#include <memory>
#include <string>

#include "bench.h"
#include "fault/oracle.h"
#include "txn/atomic_object.h"
#include "txn/txn_manager.h"
#include "util/check.h"
#include "util/rng.h"

namespace e2e {
namespace {

using caa::sim::Time;

constexpr int kLanes = 8;
constexpr int kLaneMembers = 3;
constexpr int kTransfersPerLane = 150;
constexpr int kHosts = 4;
constexpr int kAccounts = 64;
constexpr int kHotAccounts = 4;
constexpr std::int64_t kInitial = 1'000'000;
constexpr std::int64_t kMispost = 7;
constexpr std::uint32_t kMaxAttempts = 64;
constexpr Time kHandlerTime = 1500;
constexpr Time kPoll = 50;
constexpr int kMaxPolls = 200;

enum class Mix : std::uint8_t {
  kClean,
  kCommutative,
  kConflicting,
  kForward,
  kBackward
};

TreeSpec transfer_tree() {
  TreeSpec spec;
  spec.nodes = {{"misposted", ""},  {"audit", ""},
                {"audit_a", "audit"}, {"audit_b", "audit"},
                {"audit_c", "audit"}, {"hardware", ""},
                {"disk", "hardware"}, {"disk_slow", "disk"},
                {"net_fault", "hardware"}};
  return spec;
}

struct Transfer {
  Mix mix = Mix::kClean;
  int lane = 0;
  int src = 0;
  int dst = 0;
  std::int64_t amount = 0;
  int raisers = 2;     // commutative: how many members raise
  Time backoff = 0;    // per-transfer retry spacing
  // Runtime state.
  caa::ActionInstanceId instance;
  caa::TxnId top;  // begun on the first attempt, committed once
  caa::TxnId txn;  // this attempt's nested transaction
  std::uint32_t attempt = 0;
  Time entered_at = -1;
  Time raised_at = -1;
  Time last_leave = -1;
  std::vector<std::string> raised;
  int commits = 0;
  int final_leaves = 0;
  bool broken = false;  // a member left uncommitted, or a step gave up
};

class TransferWorld {
 public:
  TransferWorld(const RoundCtx& ctx, Round& round)
      : ctx_(ctx), round_(round), calls_(ctx.traced), spec_(transfer_tree()) {
    plan(ctx.seed);
  }

  void setup() {
    caa::WorldConfig config;
    config.seed = ctx_.seed;
    config.link = caa::net::LinkParams::lan();
    config.exit_protocol = caa::exit::ExitKind::kPaxos;
    config.resolve_avoidance = true;
    world_ = std::make_unique<caa::World>(config);
    caa::World& w = *world_;
    for (int h = 0; h < kHosts; ++h) {
      hosts_.push_back(std::make_unique<caa::txn::AtomicObjectHost>());
      w.attach(*hosts_.back(), "host" + std::to_string(h), w.add_node());
    }
    for (int a = 0; a < kAccounts; ++a) {
      hosts_[host_of(a)]->put_initial(account(a), kInitial);
    }
    for (int l = 0; l < kLanes; ++l) {
      std::vector<caa::action::Participant*> lane;
      for (int m = 0; m < kLaneMembers; ++m) {
        lane.push_back(&calls_.add_participant(
            w, "L" + std::to_string(l) + "M" + std::to_string(m)));
      }
      lanes_.push_back(std::move(lane));
    }
    w.attach(client_, "client", w.add_node());
    decl_ = &w.actions().declare("Transfer", spec_.build());
    for (int l = 0; l < kLanes; ++l) {
      w.at(1 + l, [this, l] { start(l, 0); });
    }
  }

  std::size_t run() {
    return ctx_.traced ? traced_run(*world_, round_.ledger) : world_->run();
  }

  void check() {
    caa::World& w = *world_;
    const caa::ex::ExceptionTree& tree = decl_->tree();
    std::int64_t broken = 0;
    for (Transfer& t : transfers_) {
      bool ok = t.commits == 1 && !t.broken && t.final_leaves == kLaneMembers;
      if (!t.raised.empty()) {
        const std::string cover = spec_.cover(t.raised);
        for (const caa::action::Participant* p : lanes_[t.lane]) {
          bool handled = false;
          for (const caa::action::HandledRecord& rec : p->handled()) {
            if (rec.instance != t.instance) continue;
            handled = tree.name_of(rec.resolved) == cover;
            round_.resolve_vt.push_back(rec.at - t.raised_at);
          }
          ok = ok && handled;
        }
      }
      if (t.last_leave >= 0) round_.action_vt.push_back(t.last_leave - t.entered_at);
      if (!ok) ++broken;
    }
    if (broken > 0) {
      round_.fail("txn_transfer: " + std::to_string(broken) +
                  " transfers did not commit exactly once with the derived "
                  "cover");
    }
    // Balances, against the planned deltas.
    std::vector<std::int64_t> expected(kAccounts, kInitial);
    for (const Transfer& t : transfers_) {
      expected[t.src] -= t.amount;
      expected[t.dst] += t.amount;
    }
    if (ctx_.self_check && ctx_.index == 0) expected[0] += 1;
    std::int64_t sum = 0;
    int wrong = 0;
    for (int a = 0; a < kAccounts; ++a) {
      const auto value = hosts_[host_of(a)]->peek(account(a));
      if (!value.has_value() || *value != expected[a]) ++wrong;
      if (value.has_value()) sum += *value;
    }
    bool round_ok = true;
    if (sum != kInitial * kAccounts) {
      round_ok = false;
      round_.fail("txn_transfer: balance sum " + std::to_string(sum) +
                  " not conserved");
    }
    if (wrong > 0) {
      round_ok = false;
      round_.fail("txn_transfer: " + std::to_string(wrong) +
                  " accounts differ from initial + planned deltas");
    }
    caa::fault::OracleOptions oracle;
    oracle.deadline = w.simulator().now();
    for (const auto& h : hosts_) oracle.hosts.push_back(h.get());
    oracle.clients.push_back(&client_);
    const caa::fault::OracleReport report =
        caa::fault::check_invariants(w, oracle);
    if (!report.ok()) {
      round_ok = false;
      round_.fail("txn_transfer: oracle: " + report.summary());
    }
    if (!w.failures().empty()) {
      round_ok = false;
      round_.fail("txn_transfer: an action failed");
    }
    round_.attempted = static_cast<std::int64_t>(transfers_.size());
    // A round-level check failing taints every transfer of the round.
    round_.failed = round_ok ? broken : round_.attempted;
    round_.completed = round_.attempted - round_.failed;

    tally_world(w, round_.counts);
    round_.counts["txn.commits"] += static_cast<double>(client_.commits());
    round_.counts["txn.aborts"] += static_cast<double>(client_.aborts());
    round_.counts["txn.begins"] += static_cast<double>(begins_);
    round_.counts["actions"] += static_cast<double>(transfers_.size());
    round_.counts["resolve.rounds"] += static_cast<double>(raised_rounds_);
    round_.calls = calls_.times();
  }

  [[nodiscard]] const TreeSpec& spec() const { return spec_; }
  [[nodiscard]] std::vector<std::vector<std::string>> raise_sets() const {
    std::vector<std::vector<std::string>> sets;
    for (const Transfer& t : transfers_) {
      if (t.raised.size() > 1) sets.push_back(t.raised);
    }
    return sets;
  }

 private:
  static int host_of(int a) { return a % kHosts; }
  static std::string account(int a) { return "acct" + std::to_string(a); }

  void plan(std::uint64_t seed) {
    caa::Rng rng(seed);
    auto pick = [&rng] {
      return static_cast<int>(rng.chance(0.5) ? rng.below(kHotAccounts)
                                              : rng.below(kAccounts));
    };
    for (int k = 0; k < kTransfersPerLane; ++k) {
      for (int l = 0; l < kLanes; ++l) {
        Transfer t;
        t.lane = l;
        t.src = pick();
        do {
          t.dst = pick();
        } while (t.dst == t.src);
        t.amount = 1 + static_cast<std::int64_t>(rng.below(100));
        const std::uint64_t roll = rng.below(100);
        t.mix = roll < 35   ? Mix::kClean
                : roll < 55 ? Mix::kCommutative
                : roll < 70 ? Mix::kConflicting
                : roll < 85 ? Mix::kForward
                            : Mix::kBackward;
        t.raisers = 2 + static_cast<int>(rng.below(2));
        t.backoff = 200 + static_cast<Time>(rng.below(200));
        transfers_.push_back(std::move(t));
      }
    }
  }

  Transfer& transfer(int lane, int k) {
    return transfers_[static_cast<std::size_t>(k * kLanes + lane)];
  }

  caa::sim::Simulator& sim() { return world_->simulator(); }

  void start(int lane, int k) {
    if (k == kTransfersPerLane) return;
    Transfer& t = transfer(lane, k);
    std::vector<caa::ObjectId> ids;
    for (const auto* p : lanes_[lane]) ids.push_back(p->id());
    const auto& inst = calls_.create_instance(*world_, *decl_, ids);
    t.instance = inst.instance;
    t.entered_at = sim().now();
    for (int m = 0; m < kLaneMembers; ++m) {
      CAA_CHECK(calls_.enter(*lanes_[lane][m], inst.instance,
                             config_for(lane, k, m)));
    }
  }

  caa::action::EnterConfig config_for(int lane, int k, int member) {
    const caa::ex::ExceptionTree& tree = decl_->tree();
    caa::ex::HandlerTable handlers = caa::action::uniform_handlers(
        tree, caa::ex::HandlerResult::recovered(kHandlerTime));
    if (member == 0) {
      handlers.set(tree.find("misposted"), [this, lane, k](caa::ExceptionId) {
        repair(lane, k);
        return caa::ex::HandlerResult::recovered(kHandlerTime);
      });
    }
    auto builder = caa::action::EnterConfig::with(std::move(handlers));
    builder.retries(kMaxAttempts)
        .on_commit([this, lane, k] { commit_txn(lane, k); })
        .on_abort([this, lane, k] { abort_txn(lane, k); })
        .on_leave([this, lane, k](caa::action::LeaveOutcome outcome,
                                  caa::ExceptionId) {
          on_leave(lane, k, outcome);
        });
    if (member == 0) {
      builder.body([this, lane, k](std::uint32_t attempt) {
        Transfer& t = transfer(lane, k);
        t.attempt = attempt;
        const Time delay =
            attempt == 0 ? 0
                         : t.backoff * static_cast<Time>(std::min(attempt, 8u));
        sim().schedule_after(delay,
                             [this, lane, k, attempt] { ops(lane, k, attempt); });
      });
    }
    return std::move(builder).build();
  }

  /// One attempt's postings: -amount on src and +amount (+kMispost in the
  /// forward mix) on dst, in ascending account order.
  void ops(int lane, int k, std::uint32_t attempt) {
    Transfer& t = transfer(lane, k);
    if (t.attempt != attempt) return;
    if (!t.top.valid()) {
      t.top = client_.begin();
      ++begins_;
    }
    t.txn = client_.begin(t.top);
    ++begins_;
    struct Posting {
      int account;
      std::int64_t delta;
    };
    const Posting debit{t.src, -t.amount};
    const Posting credit{t.dst,
                         t.amount + (t.mix == Mix::kForward ? kMispost : 0)};
    const Posting first = t.src < t.dst ? debit : credit;
    const Posting second = t.src < t.dst ? credit : debit;
    const caa::TxnId txn = t.txn;
    auto post = [this, txn](const Posting& p, caa::txn::TxnClient::ValueCb cb) {
      client_.add(txn, hosts_[host_of(p.account)]->id(), account(p.account),
                  p.delta, std::move(cb));
    };
    post(first, [this, lane, k, attempt, second,
                 post](caa::Result<std::int64_t> r) {
      if (!r.is_ok()) return ops_failed(lane, k, attempt);
      post(second, [this, lane, k, attempt](caa::Result<std::int64_t> r2) {
        if (!r2.is_ok()) return ops_failed(lane, k, attempt);
        ops_done(lane, k, attempt);
      });
    });
  }

  /// Runs `act` on `member` once it is working normally in this transfer's
  /// current attempt; polls while it is still catching up with a restart.
  void when_ready(int lane, int k, std::uint32_t attempt, int member,
                  std::function<void(caa::action::Participant&)> act,
                  int polls = 0) {
    Transfer& t = transfer(lane, k);
    caa::action::Participant& p = *lanes_[lane][member];
    const bool current = p.in_action() && p.active_instance() == t.instance &&
                         p.attempt_of(t.instance) == attempt;
    if (current && !p.at_acceptance_line() &&
        p.resolver_state() == caa::resolve::ResolverCore::State::kNormal) {
      act(p);
      return;
    }
    if (polls >= kMaxPolls) {
      t.broken = true;
      return;
    }
    sim().schedule_after(kPoll, [this, lane, k, attempt, member,
                                 act = std::move(act), polls]() mutable {
      when_ready(lane, k, attempt, member, std::move(act), polls + 1);
    });
  }

  void complete_all(int lane, int k, std::uint32_t attempt, bool accept) {
    when_ready(lane, k, attempt, 0, [accept](caa::action::Participant& p) {
      p.complete(accept);
    });
    for (int m = 1; m < kLaneMembers; ++m) {
      when_ready(lane, k, attempt, m,
                 [](caa::action::Participant& p) { p.complete(); });
    }
  }

  void ops_failed(int lane, int k, std::uint32_t attempt) {
    // A wait-die victim: fail the acceptance test so backward recovery
    // aborts the transaction and retries.
    complete_all(lane, k, attempt, /*accept=*/false);
  }

  void ops_done(int lane, int k, std::uint32_t attempt) {
    Transfer& t = transfer(lane, k);
    std::vector<std::pair<int, std::string>> raises;
    switch (t.mix) {
      case Mix::kClean:
        return complete_all(lane, k, attempt, true);
      case Mix::kBackward:
        return complete_all(lane, k, attempt, attempt > 0);
      case Mix::kForward:
        raises = {{0, "misposted"}};
        break;
      case Mix::kCommutative:
        raises = {{0, "audit_a"}, {1, "audit_b"}};
        if (t.raisers == 3) raises.emplace_back(2, "audit_c");
        break;
      case Mix::kConflicting:
        raises = {{0, "audit_a"}, {1, "disk_slow"}};
        break;
    }
    // Every raiser must be ready in the same tick for the raises to be
    // concurrent: check all first, then raise all.
    for (const auto& [member, name] : raises) {
      caa::action::Participant& p = *lanes_[lane][member];
      const bool ready =
          p.in_action() && p.active_instance() == t.instance &&
          p.attempt_of(t.instance) == attempt && !p.at_acceptance_line() &&
          p.resolver_state() == caa::resolve::ResolverCore::State::kNormal;
      if (!ready) {
        sim().schedule_after(kPoll, [this, lane, k, attempt] {
          ops_done(lane, k, attempt);
        });
        return;
      }
    }
    t.raised_at = sim().now();
    t.raised.clear();
    ++raised_rounds_;
    for (const auto& [member, name] : raises) {
      t.raised.push_back(name);
      lanes_[lane][member]->raise(name);
    }
  }

  void repair(int lane, int k) {
    Transfer& t = transfer(lane, k);
    // The transaction already holds the write lock on dst (strict 2PL), so
    // the corrective posting never waits or dies.
    client_.add(t.txn, hosts_[host_of(t.dst)]->id(), account(t.dst), -kMispost,
                [this, lane, k](caa::Result<std::int64_t> r) {
                  if (!r.is_ok()) transfer(lane, k).broken = true;
                });
  }

  /// The action committed: merge the attempt into the top-level
  /// transaction, then commit that by two-phase commit.
  void commit_txn(int lane, int k) {
    client_.commit(transfer(lane, k).txn, [this, lane, k](caa::Status s) {
      Transfer& t = transfer(lane, k);
      if (!s.is_ok()) {
        t.broken = true;
        return;
      }
      client_.commit(t.top, [this, lane, k](caa::Status s2) {
        Transfer& t = transfer(lane, k);
        if (s2.is_ok()) {
          ++t.commits;
        } else {
          t.broken = true;
        }
      });
    });
  }

  /// The attempt was restored (or the action signalled): abort the
  /// attempt's nested transaction, restoring its before-images.
  void abort_txn(int lane, int k) {
    Transfer& t = transfer(lane, k);
    if (client_.active(t.txn)) {
      client_.abort(t.txn, [](caa::Status) {});
    }
  }

  void on_leave(int lane, int k, caa::action::LeaveOutcome outcome) {
    if (outcome == caa::action::LeaveOutcome::kRestored) return;
    Transfer& t = transfer(lane, k);
    if (outcome != caa::action::LeaveOutcome::kCommitted) {
      t.broken = true;
      if (client_.active(t.top) && !client_.active(t.txn)) {
        client_.abort(t.top, [](caa::Status) {});
      }
    }
    t.last_leave = sim().now();
    if (++t.final_leaves < kLaneMembers) return;
    // The members pop the finished context after this hook returns; the
    // lane's next transfer starts one tick later.
    sim().schedule_after(1, [this, lane, k] { start(lane, k + 1); });
  }

  const RoundCtx& ctx_;
  Round& round_;
  SetupCalls calls_;
  TreeSpec spec_;
  std::vector<Transfer> transfers_;
  std::unique_ptr<caa::World> world_;
  std::vector<std::unique_ptr<caa::txn::AtomicObjectHost>> hosts_;
  caa::txn::TxnClient client_;
  std::vector<std::vector<caa::action::Participant*>> lanes_;
  const caa::action::ActionDecl* decl_ = nullptr;
  std::int64_t begins_ = 0;
  std::int64_t raised_rounds_ = 0;
};

}  // namespace

Round txn_transfer_round(const RoundCtx& ctx, LoopShape& shape) {
  Round r;
  MemProbe probe(ctx.traced);
  {
    TransferWorld tw(ctx, r);
    r.setup_s = timed([&] { tw.setup(); });
    probe.setup_done();
    std::size_t events = 0;
    r.run_s = timed([&] { events = tw.run(); });
    probe.run_done();
    tw.check();
    r.counts["sim.events"] += static_cast<double>(events);
    shape.make_tree = [spec = tw.spec()] { return spec.build(); };
    shape.raise_sets = tw.raise_sets();
  }
  r.add_mem(probe);
  shape.nodes = kHosts + kLanes * kLaneMembers;
  shape.fanout = kLaneMembers - 1;
  shape.tree_members = kLaneMembers;
  return r;
}

}  // namespace e2e
