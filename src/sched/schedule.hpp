/// \file schedule.hpp
/// The fault-tolerant schedule a scheduler emits: for every task its ε+1
/// *primary* replica placements B(t) = {t^(1), ..., t^(ε+1)} with start and
/// finish times, plus every committed communication between replica pairs.
///
/// Beyond the primaries, a task may carry extra *duplicates*: FTBAR's
/// Minimize-Start-Time procedure (Ahmad & Kwok [1]) copies a predecessor onto
/// the processor of its consumer to shorten the start time. Duplicates are
/// addressed by replica indices >= ε+1 and participate in data availability
/// and latency exactly like primaries, but the space-exclusion guarantee
/// (Proposition 5.2) is carried by the primaries alone.
///
/// The crash simulator, the validator, the bounds and all metrics read this
/// structure; schedulers only append to it.
///
/// Layout: the primaries of all tasks live in one task-major array, with a
/// 64-bit mask per task of the primary slots already set and another of the
/// processors hosting any replica (duplicates included), so the lookups of
/// trial placement are O(1). Committed per-hop link occupancy lives in one
/// hop pool; each CommAssignment names its range there.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/engine.hpp"
#include "common/check.hpp"
#include "common/ids.hpp"
#include "dag/task_graph.hpp"
#include "platform/platform.hpp"

namespace caft {

/// Which platform model produced (and must re-execute) a schedule.
enum class CommModelKind {
  kMacroDataflow,  ///< contention-free (Section 2's traditional model)
  kOnePort,        ///< bi-directional one-port (this paper's model)
};

/// Placement of one replica t^(r).
struct ReplicaAssignment {
  ProcId proc;
  double start = 0.0;
  double finish = 0.0;
};

/// Where one committed communication's hops sit in Schedule's hop pool.
struct HopRange {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// One committed communication from a replica of edge.src to a replica of
/// edge.dst (or an intra-processor hand-off when src_proc == dst_proc).
struct CommAssignment {
  EdgeIndex edge = 0;
  ReplicaRef from;
  ReplicaRef to;
  ProcId src_proc;
  ProcId dst_proc;
  double volume = 0.0;
  CommTimes times;
  /// Per-hop link occupancy (Schedule::hops); set by Schedule::add_comm.
  /// Empty for intra-processor hand-offs and for the macro-dataflow model.
  HopRange hops;

  /// True iff both endpoints run on the same processor (free hand-off).
  [[nodiscard]] bool intra() const { return src_proc == dst_proc; }
};

/// Complete fault-tolerant mapping of a task graph on a platform.
class Schedule {
 public:
  /// `eps` is the number of supported failures ε; every task must receive
  /// exactly ε+1 primary replicas before the schedule is used.
  Schedule(const TaskGraph& graph, const Platform& platform, std::size_t eps,
           CommModelKind model);

  [[nodiscard]] const TaskGraph& graph() const { return *graph_; }
  [[nodiscard]] const Platform& platform() const { return *platform_; }
  [[nodiscard]] std::size_t eps() const { return eps_; }
  /// ε + 1: primary replicas required per task.
  [[nodiscard]] std::size_t primary_count() const { return eps_ + 1; }
  [[nodiscard]] CommModelKind model() const { return model_; }

  /// Records primary replica `r` (< ε+1) of task `t`; each slot set once.
  void set_replica(TaskId t, ReplicaIndex r, ReplicaAssignment assignment);

  /// Appends a duplicate of task `t`; returns its replica index (>= ε+1).
  ReplicaIndex add_duplicate(TaskId t, ReplicaAssignment assignment);

  /// Overwrites the times of duplicate `r` of `t` (duplicate slots are
  /// reserved before their communications are posted, then patched); the
  /// processor must stay the one the slot was reserved on.
  void patch_duplicate(TaskId t, ReplicaIndex r, ReplicaAssignment assignment);

  /// True once set_replica was called for primary (t, r).
  [[nodiscard]] bool has_replica(TaskId t, ReplicaIndex r) const {
    CAFT_CHECK(t.index() < primary_set_.size());
    CAFT_CHECK(r < primary_count());
    return (primary_set_[t.index()] >> r & 1) != 0;
  }
  /// Number of primary replicas recorded for `t` so far.
  [[nodiscard]] std::size_t primaries_recorded(TaskId t) const {
    CAFT_CHECK(t.index() < primary_set_.size());
    return static_cast<std::size_t>(std::popcount(primary_set_[t.index()]));
  }
  /// Total replicas of `t` (recorded primaries + duplicates).
  [[nodiscard]] std::size_t total_replicas(TaskId t) const {
    const std::size_t primaries = primaries_recorded(t);
    return primaries + duplicates_[t.index()].size();
  }
  /// Processors hosting a replica of `t` (primaries recorded so far and
  /// duplicates), one bit per processor; a replica on a processor >= 64 sets
  /// every bit, so a clear bit always means "no replica there".
  [[nodiscard]] std::uint64_t host_mask(TaskId t) const {
    CAFT_CHECK(t.index() < hosts_.size());
    return hosts_[t.index()];
  }
  /// The host_mask() bit(s) of processor `p`.
  [[nodiscard]] static constexpr std::uint64_t host_bit(ProcId p) {
    return p.index() < 64 ? std::uint64_t{1} << p.index() : ~std::uint64_t{0};
  }

  /// Placement of replica (t, r); r may address a duplicate.
  [[nodiscard]] const ReplicaAssignment& replica(TaskId t,
                                                 ReplicaIndex r) const {
    CAFT_CHECK(t.index() < primary_set_.size());
    const std::size_t primaries = primary_count();
    if (r < primaries) {
      CAFT_CHECK_MSG((primary_set_[t.index()] >> r & 1) != 0,
                     "replica not placed yet");
      return primaries_[t.index() * primaries + r];
    }
    const auto& dups = duplicates_[t.index()];
    CAFT_CHECK_MSG(r - primaries < dups.size(), "replica index out of range");
    return dups[r - primaries];
  }
  /// The ε+1 primary replicas (requires all recorded).
  [[nodiscard]] std::span<const ReplicaAssignment> primaries(TaskId t) const;
  /// Duplicates of `t` (possibly empty).
  [[nodiscard]] std::span<const ReplicaAssignment> duplicates(TaskId t) const;

  /// Records a committed communication; its `hops` (in route order) are
  /// appended to the hop pool and `comm.hops` is set to their range.
  void add_comm(CommAssignment comm, std::span<const LinkOccupancy> hops = {});

  [[nodiscard]] const std::vector<CommAssignment>& comms() const { return comms_; }

  /// Per-hop link occupancy of a committed communication of this schedule.
  [[nodiscard]] std::span<const LinkOccupancy> hops(
      const CommAssignment& c) const {
    CAFT_CHECK(std::size_t{c.hops.first} + c.hops.count <= hops_.size());
    return {hops_.data() + c.hops.first, c.hops.count};
  }

  /// True once every task has all ε+1 primaries.
  [[nodiscard]] bool complete() const;

  /// Zero-crash latency (the paper's lower bound): the latest time at which
  /// at least one replica of each task has completed, i.e.
  /// max_t min_r finish(t^(r)). Requires complete().
  [[nodiscard]] double zero_crash_latency() const;

  /// Upper bound (Section 4.2 / [4]): same expression with the *last*
  /// replica, max_t max_r finish(t^(r)).
  [[nodiscard]] double upper_bound_latency() const;

  /// Time by which every committed operation (replica executions *and*
  /// message arrivals) has finished — the natural range for crash-at-θ
  /// windows and the upper bound of the replay engine's prefix timeline.
  /// Requires complete().
  [[nodiscard]] double horizon() const;

  /// Number of inter-processor messages (intra-processor hand-offs excluded),
  /// the quantity Proposition 5.1 bounds.
  [[nodiscard]] std::size_t message_count() const;

  /// Total inter-processor data volume.
  [[nodiscard]] double message_volume() const;

 private:
  const TaskGraph* graph_;
  const Platform* platform_;
  std::size_t eps_;
  CommModelKind model_;
  /// Primary r of task t at primaries_[t * (ε+1) + r].
  std::vector<ReplicaAssignment> primaries_;
  /// Bit r of primary_set_[t]: primary r of t is recorded.
  std::vector<std::uint64_t> primary_set_;
  /// Per task: duplicate i is replica index ε+1+i.
  std::vector<std::vector<ReplicaAssignment>> duplicates_;
  /// host_mask() per task.
  std::vector<std::uint64_t> hosts_;
  std::vector<CommAssignment> comms_;
  /// Every committed comm's hops, in commit order.
  std::vector<LinkOccupancy> hops_;
};

}  // namespace caft
