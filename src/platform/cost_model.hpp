/// \file cost_model.hpp
/// Heterogeneous cost functions of the paper's Section 2:
///   - E(t, P_k): execution time of task t on processor P_k;
///   - d(P_k, P_h): time to ship one unit of data from P_k to P_h
///     (d(P_k, P_k) = 0, intra-processor communication is free);
///   - W(t_i, t_j) = V(t_i, t_j) · d(P_k, P_h): communication time of an edge
///     whose endpoints are mapped on P_k and P_h.
/// On sparse topologies d(P_k, P_h) is the sum of the per-link unit delays
/// along the routing table's path (store-and-forward, documented in
/// docs/architecture.md, "Modelling decisions"); on the paper's clique it
/// is exactly the direct link's delay.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "dag/analysis.hpp"
#include "dag/task_graph.hpp"
#include "platform/platform.hpp"

namespace caft {

/// Execution and communication costs for one (graph, platform) pairing.
/// Holds a reference to the platform; the platform must outlive the model.
class CostModel {
 public:
  CostModel(std::size_t task_count, const Platform& platform);

  [[nodiscard]] std::size_t task_count() const { return task_count_; }
  [[nodiscard]] std::size_t proc_count() const { return platform_->proc_count(); }
  [[nodiscard]] const Platform& platform() const { return *platform_; }

  /// E(t, P_k). Must be set for every pair before scheduling.
  [[nodiscard]] double exec(TaskId t, ProcId p) const {
    CAFT_CHECK(t.index() < task_count_ && p.index() < proc_count());
    return exec_[t.index() * proc_count() + p.index()];
  }
  void set_exec(TaskId t, ProcId p, double time);
  /// Sets E(t, P_k) = time for all processors (homogeneous task).
  void set_exec_all(TaskId t, double time);

  /// Unit delay of one directed link.
  [[nodiscard]] double unit_delay(LinkId l) const {
    CAFT_CHECK(l.index() < link_delay_.size());
    return link_delay_[l.index()];
  }
  void set_unit_delay(LinkId l, double delay);
  /// Sets both directions of every link to `delay`.
  void set_all_unit_delays(double delay);

  /// d(P_k, P_h): route delay per data unit; 0 iff same processor.
  [[nodiscard]] double pair_delay(ProcId from, ProcId to) const;

  /// W = volume · d(from, to).
  [[nodiscard]] double comm_time(double volume, ProcId from, ProcId to) const {
    return volume * pair_delay(from, to);
  }

  /// Average of E(t, ·) over processors — the paper's node weight for
  /// priority computation (Section 5, following [27, 4]).
  [[nodiscard]] double avg_exec(TaskId t) const;
  /// max_k E(t, P_k) — the "slowest computation time" of the granularity
  /// definition (Section 2).
  [[nodiscard]] double slowest_exec(TaskId t) const;
  /// min_k E(t, P_k) — used by the SLR normalization.
  [[nodiscard]] double fastest_exec(TaskId t) const;

  /// Average d(P_k, P_h) over ordered pairs of *distinct* processors.
  [[nodiscard]] double avg_pair_delay() const;
  /// max d(P_k, P_h) over ordered pairs of distinct processors.
  [[nodiscard]] double max_pair_delay() const;

  /// Granularity g(G, P) (Section 2): Σ_t slowest-exec / Σ_e slowest-comm.
  /// Graphs without edges have infinite granularity; we return +inf.
  [[nodiscard]] double granularity(const TaskGraph& g) const;

  /// Node/edge weights for tℓ/bℓ priorities: average execution per task,
  /// average communication (volume · average pair delay) per edge.
  [[nodiscard]] DagWeights average_weights(const TaskGraph& g) const;

  /// Weights for the SLR normalization: per-task minimum execution time and
  /// zero communication.
  [[nodiscard]] DagWeights fastest_weights(const TaskGraph& g) const;

  /// Multiplies every execution time by `factor` (granularity retargeting).
  void scale_exec(double factor);

 private:
  std::size_t task_count_;
  const Platform* platform_;
  std::vector<double> exec_;        ///< task-major [t][p]
  std::vector<double> link_delay_;  ///< per directed link
};

}  // namespace caft
