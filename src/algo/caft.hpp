/// \file caft.hpp
/// CAFT — Contention-Aware Fault Tolerant scheduling (the paper's Section 5,
/// Algorithms 5.1 and 5.2).
///
/// Each task t is mapped on ε+1 processors. Whenever the replicas of t's
/// predecessors offer enough *singleton processors* (processors hosting
/// exactly one replica of one predecessor), the one-to-one mapping procedure
/// builds per-replica communication channels: every chosen predecessor
/// replica transmits to exactly one replica of t, the processors involved
/// are locked (equation (7)) so no processor serves two channels, and the
/// used heads are consumed. When the structure runs out (θ < ε+1, a locked
/// head, or an exhausted candidate set) the remaining replicas fall back to
/// FTSA-style receive-from-all placement — the paper's "greedily add extra
/// communications to guarantee failure tolerance".
///
/// Support masks make Proposition 5.2 robust transitively: a channel's mask
/// is its host plus the masks of its one-to-one senders, head eligibility
/// requires a mask disjoint from the locked set, and locking covers the full
/// committed mask. The ε+1 masks of every task are therefore pairwise
/// disjoint, so ε arbitrary failures always leave one replica whose entire
/// supply chain is alive (see docs/architecture.md, "Modelling decisions").
#pragma once

#include "algo/list_core.hpp"
#include "dag/task_graph.hpp"
#include "platform/cost_model.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"

namespace caft {

/// Run counters for the mechanism analyses (bench/ablation_one_to_one.cpp).
struct CaftRunStats {
  std::size_t one_to_one_commits = 0;  ///< replicas placed by Algorithm 5.2
  std::size_t fallback_commits = 0;    ///< replicas placed receive-from-all
  std::size_t per_edge_fallbacks = 0;  ///< edges inside a channel that had to
                                       ///< receive from all replicas
  std::size_t evaluations = 0;  ///< trial placements the channel search ran
};

/// How far the mutual-exclusion locking of equation (7) reaches.
enum class CaftSupportMode {
  /// The paper's rule: a committed channel locks its host and the
  /// processors of its chosen senders. This reproduces the published
  /// behaviour (message counts near e(ε+1), the latency gaps of Figures
  /// 1-6), but inherits the paper's blind spot: a replica chosen as a
  /// sender may itself depend on a processor another channel also depends
  /// on, and a single failure can then break two channels at once. At the
  /// paper's own shape this entanglement is common, not rare: on a
  /// 112-task instance at m = 20, ε = 5, 9 of the 20 single crashes already
  /// lose a result (docs/architecture.md, "Transitive supports"; the
  /// ablation bench quantifies it).
  kDirect,
  /// Strengthened rule (docs/architecture.md, "Modelling decisions"): every
  /// replica carries the full set of processors its completion depends on;
  /// eligibility and locking use those masks, and a per-channel budget
  /// keeps one unlocked host per remaining replica. The resulting ε+1
  /// supports are pairwise disjoint, which makes Proposition 5.2 a theorem
  /// — at the cost of more receive-from-all edges (and latency closer to
  /// FTSA) for large ε on small platforms.
  kTransitive,
};

/// Tuning knobs specific to CAFT.
struct CaftOptions {
  SchedulerOptions base;
  /// Disables Algorithm 5.2 entirely (every replica falls back to
  /// receive-from-all) — the ablation bench's "CAFT minus one-to-one".
  bool one_to_one = true;
  /// See CaftSupportMode; defaults to the provably resistant rule (the
  /// adaptive channel construction keeps it ahead of FTSA and FTBAR on both
  /// latency and messages at every ε — see bench/ablation_support_mode.cpp).
  CaftSupportMode support_mode = CaftSupportMode::kTransitive;
};

/// Runs CAFT; the result has ε+1 replicas per task and passes the validator
/// as well as the exhaustive ε-resistance check. `stats`, when non-null,
/// receives mechanism counters.
[[nodiscard]] Schedule caft_schedule(const TaskGraph& graph,
                                     const Platform& platform,
                                     const CostModel& costs,
                                     const CaftOptions& options,
                                     CaftRunStats* stats = nullptr);

}  // namespace caft
