/// \file list_core.hpp
/// Shared list-scheduling machinery: tentative/committed placement of one
/// replica together with its incoming communications, following the one-port
/// accounting of equations (4)-(6).
///
/// A placement is described by one IncomingPlan per in-edge: the list of
/// sender replicas that will actually transmit. The FT fallback used by FTSA
/// and FTBAR lists *all* primaries of the predecessor (the replica may start
/// once the first copy arrives); CAFT's one-to-one mapping lists exactly one.
///
/// Placement protocol (identical for evaluation and commit, so the committed
/// times are exactly the evaluated ones):
///   1. every pending message gets a sort key = its link finish time as if
///      posted alone (Algorithm 5.2 line 3 / equation (6)'s sorted order);
///   2. messages are posted to the engine in key order, serializing on the
///      sender, the link and the receiver;
///   3. the replica's earliest input time is max over in-edges of the *first*
///      arrival for that edge (the paper's Section 6 note: a task runs as
///      soon as one copy of each input has landed; later copies still occupy
///      the receive port);
///   4. the replica executes at max(earliest input, r(P)).
///
/// Evaluation allocates nothing once warm: the caller refills one plan
/// buffer per candidate (receive_all_plans' out-parameter form reuses every
/// plan's `senders` capacity), the Placer owns the scratch of step 1-3,
/// and a trial post is given no hop sink. A commit collects each message's
/// hops in a Placer-owned buffer and appends them to the schedule's hop
/// pool, so a commit allocates only when the schedule's arrays grow.
///
/// Support masks: the set of processors whose simultaneous health guarantees
/// the replica completes (given at most ε total failures). Receive-from-all
/// plans contribute nothing beyond the host (any surviving predecessor copy
/// feeds them); one-to-one plans add the chosen sender's own support. CAFT
/// keeps the ε+1 masks of every task pairwise disjoint, which is what makes
/// Proposition 5.2 hold transitively (see docs/architecture.md, "Modelling
/// decisions").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/engine.hpp"
#include "common/ids.hpp"
#include "platform/cost_model.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"

namespace caft {

/// Bit p set means processor p's failure can prevent the replica from
/// completing. Platforms are capped at kMaxProcessors processors.
using SupportMask = std::uint64_t;
static_assert(sizeof(SupportMask) * 8 == kMaxProcessors);

/// Mask with only processor `p`.
[[nodiscard]] constexpr SupportMask support_of(ProcId p) {
  return SupportMask{1} << p.index();
}

/// Per-replica support masks of the schedule under construction.
class SupportMap {
 public:
  explicit SupportMap(std::size_t task_count, std::size_t primaries);

  [[nodiscard]] SupportMask get(TaskId t, ReplicaIndex r) const;
  void set(TaskId t, ReplicaIndex r, SupportMask mask);

 private:
  std::size_t primaries_;
  std::vector<SupportMask> masks_;
};

/// One sender replica that will transmit over a given edge.
struct SenderOption {
  ReplicaRef ref;
  ProcId proc;
  double data_ready = 0.0;  ///< the sender replica's finish time
};

/// All senders feeding one in-edge of the replica being placed.
struct IncomingPlan {
  EdgeIndex edge = 0;
  double volume = 0.0;
  std::vector<SenderOption> senders;
};

/// Placement executor bound to one (graph, costs, engine, schedule) run.
/// Owns the scratch buffers of place(), so one Placer serves one thread.
class Placer {
 public:
  Placer(const TaskGraph& graph, const CostModel& costs, CommEngine& engine,
         Schedule& schedule);

  [[nodiscard]] const TaskGraph& graph() const { return *graph_; }
  [[nodiscard]] const CostModel& costs() const { return *costs_; }
  [[nodiscard]] CommEngine& engine() const { return *engine_; }
  [[nodiscard]] Schedule& schedule() const { return *schedule_; }
  [[nodiscard]] std::size_t proc_count() const {
    return schedule_->platform().proc_count();
  }

  /// Simulates placing a replica of `t` on `p`: posts the plan's messages
  /// inside a CommEngine::Trial, reads start/finish, then rolls the engine
  /// back. O(slots the trial touches) beyond the placement itself.
  /// When `first_arrivals` is non-null it receives, per plan, the earliest
  /// arrival among that plan's senders (FTBAR's critical-parent detection).
  [[nodiscard]] TaskTimes evaluate(TaskId t, ProcId p,
                                   std::span<const IncomingPlan> plans,
                                   std::vector<double>* first_arrivals = nullptr);

  /// Like evaluate() but leaves the engine mutated and records nothing in
  /// the schedule — building block for multi-step what-if analyses (e.g.
  /// "duplicate the parent, then place the child"). The caller holds a
  /// CommEngine::Trial.
  TaskTimes tentative(TaskId t, ProcId p, std::span<const IncomingPlan> plans,
                      std::vector<double>* first_arrivals = nullptr);

  /// Commits primary replica `r` of `t` on `p`: posts messages for real,
  /// records them and the replica into the schedule.
  TaskTimes commit(TaskId t, ReplicaIndex r, ProcId p,
                   std::span<const IncomingPlan> plans);

  /// Commits a *duplicate* of `t` on `p` (FTBAR's Minimize-Start-Time);
  /// returns the duplicate's replica index through `out_replica`.
  TaskTimes commit_duplicate(TaskId t, ProcId p,
                             std::span<const IncomingPlan> plans,
                             ReplicaIndex& out_replica);

  /// Fills `out` with the receive-from-all plan of `t` targeting processor
  /// `p`: for each in-edge, all committed primaries of the predecessor —
  /// except that a co-located replica serves alone (the paper's Section 6
  /// note) when it is safe to rely on it. Safety: without `supports` every
  /// replica is assumed to complete whenever its processor is alive (true
  /// for FTSA and FTBAR); with `supports`, the co-located replica serves
  /// alone only if its support mask is contained in {p}. `out` is refilled
  /// in place: its plans and their `senders` keep their capacity, so a
  /// buffer reused across candidates stops allocating once warm.
  void receive_all_plans(TaskId t, ProcId p, std::vector<IncomingPlan>& out,
                         const SupportMap* supports = nullptr) const;

 private:
  TaskTimes place(TaskId t, ProcId p, std::span<const IncomingPlan> plans,
                  bool commit_mode, ReplicaRef as_replica,
                  std::vector<double>* first_arrivals);

  /// One message of a placement, with its step-1 sort key.
  struct PendingComm {
    std::size_t plan_index;
    const SenderOption* sender;
    double sort_key;
  };

  const TaskGraph* graph_;
  const CostModel* costs_;
  CommEngine* engine_;
  Schedule* schedule_;
  std::vector<PendingComm> pending_;   ///< place() scratch: messages to post
  std::vector<double> first_arrival_;  ///< place() scratch: per plan
  std::vector<LinkOccupancy> hops_;    ///< place() scratch: one commit's hops
};

/// Streaming selector of the k best (smallest-key) processor candidates —
/// the heap-based replacement for the schedulers' "evaluate every
/// processor, sort all m candidates, keep ε+1" scan. A bounded max-heap
/// keeps the k best seen so far (worst kept candidate on top), so a sweep
/// over m processors costs O(m log k) instead of O(m log m), and no
/// m-sized candidate array is ever materialized.
///
/// The total order is (key, proc id) ascending — identical to the full
/// sort's tie-break, so the kept set and its emitted order are exactly what
/// the sort-based selection produced.
class BestKSelector {
 public:
  /// `k` > 0: how many candidates to keep.
  explicit BestKSelector(std::size_t k);

  /// Number of candidates currently kept (min(k, offered)).
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Considers one candidate.
  void offer(double key, ProcId proc);

  struct Candidate {
    double key;
    ProcId proc;
  };
  /// Moves the kept candidates into `out` in ascending (key, proc) order,
  /// best first, and leaves the selector empty, ready for the next sweep.
  /// Neither the selector nor a reused `out` allocates once warm.
  void take_sorted(std::vector<Candidate>& out);

 private:
  std::size_t k_;
  std::vector<Candidate> heap_;  ///< max-heap: worst kept candidate on top
};

/// Instantiates the engine matching `model` (both engines share CommEngine).
[[nodiscard]] std::unique_ptr<CommEngine> make_engine(CommModelKind model,
                                                      const Platform& platform,
                                                      const CostModel& costs);

/// Options shared by every scheduler in this library.
struct SchedulerOptions {
  std::size_t eps = 0;  ///< number of failures ε to tolerate
  CommModelKind model = CommModelKind::kOnePort;
};

}  // namespace caft
