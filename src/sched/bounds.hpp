/// \file bounds.hpp
/// Derived per-schedule quantities beyond the latency bounds that live on
/// Schedule itself: processor utilization, communication breakdowns, and the
/// replication profile used by the message-count benches (bench/messages_*).
#pragma once

#include <cstddef>
#include <vector>

#include "sched/schedule.hpp"

namespace caft {

/// Aggregate accounting of one schedule.
struct ScheduleStats {
  double zero_crash_latency = 0.0;
  double upper_bound_latency = 0.0;
  std::size_t inter_proc_messages = 0;  ///< Proposition 5.1's count
  std::size_t intra_proc_handoffs = 0;
  double inter_proc_volume = 0.0;
  /// Average inter-processor messages per DAG edge; the paper contrasts
  /// CAFT's ~(ε+1) with FTSA/FTBAR's ~(ε+1)².
  double messages_per_edge = 0.0;
  /// Busy time per processor (sum of replica durations).
  std::vector<double> busy_time;
  /// Busy / makespan, averaged over processors that run at least one replica.
  double mean_utilization = 0.0;
  /// Number of processors that received at least one replica.
  std::size_t procs_used = 0;
};

/// Computes the aggregate stats of a complete schedule.
[[nodiscard]] ScheduleStats schedule_stats(const Schedule& schedule);

}  // namespace caft
