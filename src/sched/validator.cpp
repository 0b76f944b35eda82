#include "sched/validator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace caft {

std::string ValidationResult::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < issues.size(); ++i) {
    if (i != 0) os << '\n';
    os << issues[i];
  }
  return os.str();
}

namespace {

/// Collects issues with printf-free formatting helpers.
class IssueSink {
 public:
  explicit IssueSink(std::vector<std::string>& issues) : issues_(&issues) {}

  template <typename... Parts>
  void add(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    issues_->push_back(os.str());
  }

 private:
  std::vector<std::string>* issues_;
};

struct Interval {
  double start;
  double finish;
  std::string what;
};

/// Reports every overlapping pair in `intervals` (after sorting by start).
void check_disjoint(std::vector<Interval>& intervals, const std::string& where,
                    double tolerance, IssueSink& sink) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    const Interval& prev = intervals[i - 1];
    const Interval& cur = intervals[i];
    if (cur.start < prev.finish - tolerance)
      sink.add(where, ": ", prev.what, " [", prev.start, ", ", prev.finish,
               ") overlaps ", cur.what, " [", cur.start, ", ", cur.finish, ")");
  }
}

}  // namespace

ValidationResult validate_schedule(const Schedule& schedule,
                                   const CostModel& costs, double tolerance) {
  ValidationResult result;
  IssueSink sink(result.issues);
  const TaskGraph& g = schedule.graph();

  if (!schedule.complete()) {
    sink.add("schedule incomplete: not every task has ",
             schedule.primary_count(), " primary replicas");
    return result;  // everything below needs completeness
  }

  // 2) space exclusion (primaries only) + 3) durations (all replicas).
  for (const TaskId t : g.all_tasks()) {
    const std::size_t total = schedule.total_replicas(t);
    for (ReplicaIndex r = 0; r < total; ++r) {
      const ReplicaAssignment& a = schedule.replica(t, r);
      const double expected = costs.exec(t, a.proc);
      if (std::abs((a.finish - a.start) - expected) > tolerance)
        sink.add("task ", g.name(t), " replica ", r, ": duration ",
                 a.finish - a.start, " != E(t,P) = ", expected);
    }
    const auto prims = schedule.primaries(t);
    for (ReplicaIndex r = 0; r < prims.size(); ++r)
      for (ReplicaIndex r2 = static_cast<ReplicaIndex>(r + 1);
           r2 < prims.size(); ++r2)
        if (prims[r2].proc == prims[r].proc)
          sink.add("task ", g.name(t), ": primary replicas ", r, " and ", r2,
                   " share processor P", prims[r].proc.value());
  }

  // 4) processor exclusivity (all replicas, duplicates included).
  {
    std::vector<std::vector<Interval>> per_proc(schedule.platform().proc_count());
    for (const TaskId t : g.all_tasks()) {
      const std::size_t total = schedule.total_replicas(t);
      for (ReplicaIndex r = 0; r < total; ++r) {
        const ReplicaAssignment& a = schedule.replica(t, r);
        per_proc[a.proc.index()].push_back(
            {a.start, a.finish, g.name(t) + "#" + std::to_string(r)});
      }
    }
    for (std::size_t p = 0; p < per_proc.size(); ++p)
      check_disjoint(per_proc[p], "processor P" + std::to_string(p), tolerance,
                     sink);
  }

  // 5) data availability per (replica, in-edge). One pass over the comms
  // marks each (replica, in-edge) slot that some comm feeds in time; a
  // task's slots are replica-major from first_slot[t].
  std::vector<std::size_t> first_slot(g.task_count() + 1, 0);
  for (const TaskId t : g.all_tasks())
    first_slot[t.index() + 1] = first_slot[t.index()] +
                                schedule.total_replicas(t) * g.in_degree(t);
  std::vector<bool> fed(first_slot.back(), false);
  // Schedule::add_comm checks that a comm's edge enters its target.
  for (const CommAssignment& c : schedule.comms()) {
    if (c.times.arrival <=
        schedule.replica(c.to.task, c.to.replica).start + tolerance)
      fed[first_slot[c.to.task.index()] +
          c.to.replica * g.in_degree(c.to.task) + g.in_position(c.edge)] =
          true;
  }
  for (const TaskId t : g.all_tasks()) {
    const auto in = g.in_edges(t);
    const std::size_t total = schedule.total_replicas(t);
    for (ReplicaIndex r = 0; r < total; ++r)
      for (std::size_t i = 0; i < in.size(); ++i)
        if (!fed[first_slot[t.index()] + r * in.size() + i])
          sink.add("task ", g.name(t), " replica ", r, ": no input for edge ",
                   g.name(g.edge(in[i]).src), " -> ", g.name(t),
                   " arrives before start ", schedule.replica(t, r).start);
  }

  // 6) communication sanity.
  for (const CommAssignment& c : schedule.comms()) {
    const Edge& e = g.edge(c.edge);
    const ReplicaAssignment& src =
        schedule.replica(c.from.task, c.from.replica);
    const ReplicaAssignment& dst = schedule.replica(c.to.task, c.to.replica);
    if (src.proc != c.src_proc)
      sink.add("comm on edge ", g.name(e.src), "->", g.name(e.dst),
               ": src_proc mismatch");
    if (dst.proc != c.dst_proc)
      sink.add("comm on edge ", g.name(e.src), "->", g.name(e.dst),
               ": dst_proc mismatch");
    if (std::abs(c.volume - e.volume) > tolerance)
      sink.add("comm on edge ", g.name(e.src), "->", g.name(e.dst),
               ": volume ", c.volume, " != edge volume ", e.volume);
    if (c.times.link_start < src.finish - tolerance)
      sink.add("comm on edge ", g.name(e.src), "->", g.name(e.dst),
               ": leaves at ", c.times.link_start,
               " before its source replica finishes at ", src.finish);
    if (c.times.arrival < c.times.link_start - tolerance)
      sink.add("comm on edge ", g.name(e.src), "->", g.name(e.dst),
               ": arrival precedes link start");
    if (!c.intra()) {
      const double expected =
          c.volume * costs.pair_delay(c.src_proc, c.dst_proc);
      const double on_wire = c.times.link_finish - c.times.link_start;
      if (on_wire + tolerance < expected)
        sink.add("comm on edge ", g.name(e.src), "->", g.name(e.dst),
                 ": wire time ", on_wire, " shorter than V*d = ", expected);
    }
  }

  // 7) one-port conformance.
  if (schedule.model() == CommModelKind::kOnePort) {
    const std::size_t m = schedule.platform().proc_count();
    std::vector<std::vector<Interval>> send(m), recv(m);
    std::map<LinkId, std::vector<Interval>> per_link;
    for (std::size_t ci = 0; ci < schedule.comms().size(); ++ci) {
      const CommAssignment& c = schedule.comms()[ci];
      if (c.intra()) continue;
      const std::string what = "comm#" + std::to_string(ci);
      send[c.src_proc.index()].push_back(
          {c.times.link_start, c.times.send_finish, what});
      recv[c.dst_proc.index()].push_back(
          {c.times.recv_start, c.times.arrival, what});
      for (const LinkOccupancy& seg : schedule.hops(c))
        per_link[seg.link].push_back({seg.start, seg.finish, what});
    }
    for (std::size_t p = 0; p < m; ++p) {
      check_disjoint(send[p], "send port of P" + std::to_string(p), tolerance,
                     sink);
      check_disjoint(recv[p], "receive port of P" + std::to_string(p), tolerance,
                     sink);
    }
    for (auto& [link, intervals] : per_link)
      check_disjoint(intervals, "link " + std::to_string(link.value()),
                     tolerance, sink);
  }

  return result;
}

}  // namespace caft
