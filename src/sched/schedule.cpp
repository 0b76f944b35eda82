#include "sched/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/check.hpp"

namespace caft {

Schedule::Schedule(const TaskGraph& graph, const Platform& platform,
                   std::size_t eps, CommModelKind model)
    : graph_(&graph), platform_(&platform), eps_(eps), model_(model) {
  CAFT_CHECK_MSG(eps + 1 <= platform.proc_count(),
                 "need at least eps+1 processors for space exclusion");
  CAFT_CHECK_MSG(eps + 1 <= kMaxProcessors,
                 "primary flags cap eps+1 at " +
                     std::to_string(kMaxProcessors) + " replicas");
  primaries_.assign(graph.task_count() * primary_count(), ReplicaAssignment{});
  primary_set_.assign(graph.task_count(), 0);
  duplicates_.assign(graph.task_count(), {});
  hosts_.assign(graph.task_count(), 0);
}

void Schedule::set_replica(TaskId t, ReplicaIndex r,
                           ReplicaAssignment assignment) {
  CAFT_CHECK(t.index() < graph_->task_count());
  CAFT_CHECK_MSG(r < primary_count(), "primary replica index out of range");
  CAFT_CHECK_MSG((primary_set_[t.index()] >> r & 1) == 0,
                 "replica already placed");
  CAFT_CHECK(assignment.proc.index() < platform_->proc_count());
  CAFT_CHECK(assignment.start >= 0.0 && assignment.finish >= assignment.start);
  primaries_[t.index() * primary_count() + r] = assignment;
  primary_set_[t.index()] |= std::uint64_t{1} << r;
  hosts_[t.index()] |= host_bit(assignment.proc);
}

ReplicaIndex Schedule::add_duplicate(TaskId t, ReplicaAssignment assignment) {
  CAFT_CHECK(t.index() < graph_->task_count());
  CAFT_CHECK(assignment.proc.index() < platform_->proc_count());
  CAFT_CHECK(assignment.start >= 0.0 && assignment.finish >= assignment.start);
  auto& dups = duplicates_[t.index()];
  const auto r = static_cast<ReplicaIndex>(primary_count() + dups.size());
  dups.push_back(assignment);
  hosts_[t.index()] |= host_bit(assignment.proc);
  return r;
}

void Schedule::patch_duplicate(TaskId t, ReplicaIndex r,
                               ReplicaAssignment assignment) {
  CAFT_CHECK(t.index() < graph_->task_count());
  auto& dups = duplicates_[t.index()];
  CAFT_CHECK_MSG(r >= primary_count() && r - primary_count() < dups.size(),
                 "patch_duplicate only addresses duplicate slots");
  CAFT_CHECK(assignment.proc.index() < platform_->proc_count());
  CAFT_CHECK(assignment.start >= 0.0 && assignment.finish >= assignment.start);
  ReplicaAssignment& slot = dups[r - primary_count()];
  CAFT_CHECK_MSG(assignment.proc == slot.proc,
                 "a duplicate stays on the processor it was reserved on");
  slot = assignment;
}

std::span<const ReplicaAssignment> Schedule::primaries(TaskId t) const {
  CAFT_CHECK_MSG(primaries_recorded(t) == primary_count(),
                 "task does not have all primary replicas yet");
  return {primaries_.data() + t.index() * primary_count(), primary_count()};
}

std::span<const ReplicaAssignment> Schedule::duplicates(TaskId t) const {
  CAFT_CHECK(t.index() < graph_->task_count());
  return duplicates_[t.index()];
}

void Schedule::add_comm(CommAssignment comm,
                        std::span<const LinkOccupancy> hops) {
  CAFT_CHECK(comm.edge < graph_->edge_count());
  const Edge& e = graph_->edge(comm.edge);
  CAFT_CHECK_MSG(comm.from.task == e.src && comm.to.task == e.dst,
                 "communication endpoints must match the edge");
  CAFT_CHECK(comm.from.replica <
             primary_count() + duplicates_[comm.from.task.index()].size());
  CAFT_CHECK(comm.to.replica <
             primary_count() + duplicates_[comm.to.task.index()].size());
  CAFT_CHECK_MSG(hops_.size() + hops.size() <= UINT32_MAX,
                 "hop pool is full");
  comm.hops = HopRange{static_cast<std::uint32_t>(hops_.size()),
                       static_cast<std::uint32_t>(hops.size())};
  hops_.insert(hops_.end(), hops.begin(), hops.end());
  comms_.push_back(comm);
}

bool Schedule::complete() const {
  const std::uint64_t all =
      primary_count() == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << primary_count()) - 1;
  return std::all_of(primary_set_.begin(), primary_set_.end(),
                     [all](std::uint64_t flags) { return flags == all; });
}

double Schedule::zero_crash_latency() const {
  CAFT_CHECK_MSG(complete(), "schedule is incomplete");
  double latency = 0.0;
  for (const TaskId t : graph_->all_tasks()) {
    double first = std::numeric_limits<double>::infinity();
    for (const ReplicaAssignment& a : primaries(t))
      first = std::min(first, a.finish);
    for (const ReplicaAssignment& a : duplicates_[t.index()])
      first = std::min(first, a.finish);
    latency = std::max(latency, first);
  }
  return latency;
}

double Schedule::upper_bound_latency() const {
  CAFT_CHECK_MSG(complete(), "schedule is incomplete");
  double latency = 0.0;
  for (const ReplicaAssignment& a : primaries_)
    latency = std::max(latency, a.finish);
  for (const auto& dups : duplicates_)
    for (const ReplicaAssignment& a : dups)
      latency = std::max(latency, a.finish);
  return latency;
}

double Schedule::horizon() const {
  CAFT_CHECK_MSG(complete(), "schedule is incomplete");
  // Fold only finite instants: a schedule can legitimately carry +inf (or
  // NaN) sentinels on replicas and comms that were reserved but never
  // timed — e.g. duplicate slots patched out, or copies addressed to a
  // partially-dead remainder of the platform. Folding those in would
  // poison the horizon and with it every crash-window range and snapshot
  // bound derived from it.
  double horizon = 0.0;
  for (const ReplicaAssignment& a : primaries_)
    if (std::isfinite(a.finish)) horizon = std::max(horizon, a.finish);
  for (const auto& dups : duplicates_)
    for (const ReplicaAssignment& a : dups)
      if (std::isfinite(a.finish)) horizon = std::max(horizon, a.finish);
  for (const CommAssignment& c : comms_)
    if (std::isfinite(c.times.arrival))
      horizon = std::max(horizon, c.times.arrival);
  return horizon;
}

std::size_t Schedule::message_count() const {
  return static_cast<std::size_t>(
      std::count_if(comms_.begin(), comms_.end(),
                    [](const CommAssignment& c) { return !c.intra(); }));
}

double Schedule::message_volume() const {
  double volume = 0.0;
  for (const CommAssignment& c : comms_)
    if (!c.intra()) volume += c.volume;
  return volume;
}

}  // namespace caft
