// Gray & Lamport's Paxos Commit as an ExitProtocol (PAPERS.md: "Consensus
// on Transaction Commit").
//
// Each committee member's Done (ok / acceptance-failed / signal) is the
// proposed value of its own Paxos instance; the instances share a ballot
// space and an acceptor set of 2F+1 members drawn deterministically from
// the front of the sorted committee. The fast path is ballot 0: a member
// sends its vote straight to the acceptors, acceptors accept the first
// ballot-0 value for an instance unconditionally (the voter is that
// instance's unique ballot-0 proposer) and report acceptance to the current
// exit leader, who decides once every member's instance has a value chosen
// by a majority of the live acceptors.
//
// Crashes never block the exit on any single member — including the leader:
//   * a crashed voter's instance is driven to a Waived value by the leader
//     through a classic Prepare/Promise recovery round at a higher ballot;
//   * a crashed leader is succeeded by the next-lowest live member, whose
//     recovery round re-discovers every accepted value from the surviving
//     acceptors before re-proposing them (so an outcome one leader may have
//     announced is re-derived, not contradicted);
//   * a crashed acceptor's reports are pruned and quorums re-evaluated
//     against the live acceptor set (accurate fail-stop detection — the
//     same group-membership assumption the rest of the system builds on).
//
// The decision itself is delegated to the host (ExitHost::exit_decide) over
// the chosen non-waived values in member order — exactly the tuple the
// barrier hands it — so both protocols resolve identical outcomes from
// identical votes, which the barrier-vs-paxos checksum-equality tests pin.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <span>

#include "exit/exit_protocol.h"

namespace caa::exit {

class PaxosCommitExit final : public ExitProtocol {
 public:
  PaxosCommitExit(ExitHost& host, const action::InstanceInfo& info);

  [[nodiscard]] ExitKind kind() const override { return ExitKind::kPaxos; }

  void on_complete(const action::DoneMsg& m) override;
  void on_message(ObjectId from, net::MsgKind kind,
                  const net::Bytes& payload) override;
  void on_peer_crashed(ObjectId peer, ObjectId old_leader,
                       ObjectId new_leader) override;
  void on_restored() override;
  void describe(std::string& phase,
                std::vector<ObjectId>& awaited) const override;

  /// Acceptors used for a committee of `members` objects: 2F+1 with
  /// F = (members-1)/2, except that both members of a pair serve (a lone
  /// acceptor would be a single point of blocking at N=2).
  [[nodiscard]] static std::size_t acceptor_count(std::size_t members);

 private:
  /// A proposed/accepted value for one member's instance: the member's vote
  /// or the Waived placeholder for a member that crashed voteless.
  struct Value {
    bool waived = false;
    bool ok = true;
    ExceptionId signal;
  };
  struct Accepted {
    std::uint32_t ballot = 0;
    Value value;
  };
  struct VoteMsg {  // kPaxosVote: phase-2a (ballot 0 = the fast path)
    ActionInstanceId scope;
    std::uint32_t round = 0;
    std::uint32_t ballot = 0;
    ObjectId voter;
    Value value;
  };
  struct AcceptedMsg {  // kPaxosAccepted: phase-2b, acceptor -> leader
    ActionInstanceId scope;
    std::uint32_t round = 0;
    std::uint32_t ballot = 0;
    ObjectId acceptor;
    ObjectId voter;
    Value value;
  };
  struct PrepareMsg {  // kPaxosPrepare: phase-1a, new leader -> acceptors
    ActionInstanceId scope;
    std::uint32_t round = 0;
    std::uint32_t ballot = 0;
    ObjectId sender;
  };
  struct PromiseMsg {  // kPaxosPromise: phase-1b with full accepted state
    ActionInstanceId scope;
    std::uint32_t round = 0;
    std::uint32_t ballot = 0;  // the promised (or higher, when nacking)
    ObjectId acceptor;
    std::map<ObjectId, Accepted> accepted;  // voter -> accepted
  };

  // Per-round acceptor state (one logical acceptor for all N instances).
  struct AcceptorRound {
    std::uint32_t promised = 0;  // highest Prepare ballot answered
    std::map<ObjectId, Accepted> accepted;  // voter -> highest accepted
  };
  // Per-round leader state (any member may need it after re-election).
  struct LeaderRound {
    // voter -> acceptor -> its reported acceptance (pruned on crashes).
    std::map<ObjectId, std::map<ObjectId, Accepted>> reports;
    std::set<ObjectId> promised;  // acceptors that answered my_ballot
    // Voters re-proposed at my_ballot in phase 2; their 2b reports are in
    // flight, so seeing them value-less is no reason to start a new ballot.
    std::set<ObjectId> proposed;
    std::uint32_t my_ballot = 0;
    bool preparing = false;
    // True while the phase-2 re-proposal loop is on the stack: inline
    // self-deliveries cascade into maybe_decide, which must not start a
    // fresh prepare mid-loop (that recursion is unbounded).
    bool proposing = false;
    bool decided = false;
  };

  [[nodiscard]] bool is_member(ObjectId o) const;
  void handle_vote(const VoteMsg& m);
  void handle_accepted(const AcceptedMsg& m);
  void handle_prepare(const PrepareMsg& m);
  void handle_promise(const PromiseMsg& m);

  void send_vote(std::uint32_t round, std::uint32_t ballot, ObjectId voter,
                 const Value& value);
  /// Leader, committee with exclusions: runs phase 1 once per round so
  /// accepted state that died with a previous leader is re-discovered.
  void ensure_recovery(std::uint32_t round);
  void start_prepare(std::uint32_t round);
  void maybe_finish_prepare(std::uint32_t round);
  void maybe_decide(std::uint32_t round);

  [[nodiscard]] ObjectId self() const { return host_.exit_self(); }
  [[nodiscard]] ObjectId leader() const {
    return live_leader(info_, host_.exit_excluded(info_.instance));
  }
  [[nodiscard]] bool is_acceptor(ObjectId o) const;
  [[nodiscard]] std::size_t live_acceptors() const;
  [[nodiscard]] std::uint32_t next_ballot();
  void observe_ballot(std::uint32_t ballot) {
    if (ballot > max_ballot_seen_) max_ballot_seen_ = ballot;
  }

  ExitHost& host_;
  const action::InstanceInfo& info_;
  // The first acceptor_count(N) members, viewed in place in info_.members.
  std::span<const ObjectId> acceptors_;
  std::optional<action::DoneMsg> last_done_;  // this member's current vote
  std::uint32_t max_ballot_seen_ = 0;
  std::map<std::uint32_t, AcceptorRound> acceptor_;  // by round
  std::map<std::uint32_t, LeaderRound> leader_;      // by round
};

}  // namespace caa::exit
