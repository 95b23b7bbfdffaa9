// Runtime action instances and the entry/exit coordination messages.
//
// An InstanceInfo is the immutable description every participant receives
// when it enters one execution of a CA action: the instance id (globally
// unique — nested actions and retries get fresh ids), the declaration, the
// sorted member list (the §4.1 ordering), the designated leader (smallest
// member id; used only for exit synchronization, not for resolution), and
// the parent instance for nesting.
//
// `members` is the action's closed group (§4.5) and the only copy of it:
// the ActionManager keeps every InstanceInfo alive for the World's
// lifetime, and the per-participant engines — ResolverCore, the overlay's
// Disseminator scopes and RelayTrees, AvoidanceCoordinator — borrow the
// list by reference instead of copying it.
#pragma once

#include <vector>

#include "caa/action_decl.h"
#include "exit/exit_kind.h"
#include "net/message.h"
#include "overlay/params.h"
#include "sim/event_queue.h"
#include "util/ids.h"
#include "util/status.h"

namespace caa::action {

struct InstanceInfo {
  ActionInstanceId instance;
  const ActionDecl* decl = nullptr;
  std::vector<ObjectId> members;  // sorted; the closed group (§4.5)
  ActionInstanceId parent;        // invalid for an outermost action

  /// Overlay dissemination decision, stamped at create_instance from the
  /// manager's defaults so every member derives the identical relay tree
  /// from this shared record (src/overlay/).
  bool use_tree = false;
  overlay::OverlayParams overlay;

  /// Exit/commit protocol every member of this instance synchronizes its
  /// exit through, stamped at create_instance from the manager's defaults
  /// (WorldConfig.exit_protocol); a participant's EnterConfig may override
  /// its own selection. All members must agree — mixed selections within
  /// one committee are a scenario bug.
  exit::ExitKind exit = exit::ExitKind::kBarrier;

  /// Coordination avoidance for this instance's resolutions, stamped at
  /// create_instance from the manager's defaults (WorldConfig.
  /// resolve_avoidance); a participant's EnterConfig may override its own
  /// selection — a member with it off simply answers census probes and
  /// never initiates fast rounds.
  bool resolve_avoidance = false;

  /// Census probe delay for this instance's fast rounds (see
  /// WorldConfig::avoidance_probe_delay).
  sim::Time avoidance_probe_delay = 250;

  [[nodiscard]] ObjectId leader() const { return members.front(); }
  [[nodiscard]] bool is_member(ObjectId o) const;
  [[nodiscard]] bool is_outermost() const { return !parent.valid(); }
};

/// Exit-barrier outcome decided by the leader.
enum class LeaveOutcome : std::uint8_t {
  kCommitted = 0,  // all participants done and accepted: action succeeds
  kSignalled = 1,  // handlers failed: signal an exception to the container
  kRestored = 2,   // acceptance test failed: backward recovery, new attempt
};

/// Participant -> leader: "my part is finished".
/// `ok=false` means the local acceptance test failed (requests backward
/// recovery); `signal` (when valid) means this participant's handler asked
/// to signal that exception to the containing action.
struct DoneMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;  // resolution-round/attempt tag (see Participant)
  ObjectId sender;
  bool ok = true;
  ExceptionId signal;
};

/// Leader -> all members: the exit decision.
struct LeaveMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;
  LeaveOutcome outcome = LeaveOutcome::kCommitted;
  ExceptionId signal;        // valid iff outcome == kSignalled
  std::uint32_t attempt = 0; // next attempt number for kRestored
};

net::Bytes encode(const DoneMsg& m);
net::Bytes encode(const LeaveMsg& m);
Result<DoneMsg> decode_done(const net::Bytes& bytes);
Result<LeaveMsg> decode_leave(const net::Bytes& bytes);

}  // namespace caa::action
