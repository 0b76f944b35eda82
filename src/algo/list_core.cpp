#include "algo/list_core.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "comm/macro_dataflow.hpp"
#include "comm/one_port.hpp"
#include "common/check.hpp"

namespace caft {

SupportMap::SupportMap(std::size_t task_count, std::size_t primaries)
    : primaries_(primaries), masks_(task_count * primaries, 0) {}

SupportMask SupportMap::get(TaskId t, ReplicaIndex r) const {
  CAFT_CHECK_MSG(r < primaries_, "support masks track primary replicas only");
  CAFT_CHECK(t.index() * primaries_ + r < masks_.size());
  return masks_[t.index() * primaries_ + r];
}

void SupportMap::set(TaskId t, ReplicaIndex r, SupportMask mask) {
  CAFT_CHECK_MSG(r < primaries_, "support masks track primary replicas only");
  CAFT_CHECK(t.index() * primaries_ + r < masks_.size());
  masks_[t.index() * primaries_ + r] = mask;
}

Placer::Placer(const TaskGraph& graph, const CostModel& costs,
               CommEngine& engine, Schedule& schedule)
    : graph_(&graph), costs_(&costs), engine_(&engine), schedule_(&schedule) {
  CAFT_CHECK_MSG(schedule.platform().proc_count() <= kMaxProcessors,
                 "support masks cap platforms at " +
                     std::to_string(kMaxProcessors) + " processors");
}

TaskTimes Placer::evaluate(TaskId t, ProcId p,
                           std::span<const IncomingPlan> plans,
                           std::vector<double>* first_arrivals) {
  const CommEngine::Trial trial(*engine_);
  return tentative(t, p, plans, first_arrivals);
}

TaskTimes Placer::tentative(TaskId t, ProcId p,
                            std::span<const IncomingPlan> plans,
                            std::vector<double>* first_arrivals) {
  return place(t, p, plans, /*commit_mode=*/false, ReplicaRef{t, 0},
               first_arrivals);
}

TaskTimes Placer::commit(TaskId t, ReplicaIndex r, ProcId p,
                         std::span<const IncomingPlan> plans) {
  return place(t, p, plans, /*commit_mode=*/true, ReplicaRef{t, r}, nullptr);
}

TaskTimes Placer::commit_duplicate(TaskId t, ProcId p,
                                   std::span<const IncomingPlan> plans,
                                   ReplicaIndex& out_replica) {
  // Reserve the duplicate's slot first so its incoming communications can
  // name it; the final times are patched in below.
  out_replica = schedule_->add_duplicate(t, ReplicaAssignment{p, 0.0, 0.0});
  return place(t, p, plans, /*commit_mode=*/true, ReplicaRef{t, out_replica},
               nullptr);
}

void Placer::receive_all_plans(TaskId t, ProcId p,
                               std::vector<IncomingPlan>& out,
                               const SupportMap* supports) const {
  const auto in_edges = graph_->in_edges(t);
  // Shrinking keeps the surviving plans' sender capacity; growing
  // default-constructs the new tail once.
  out.resize(in_edges.size());
  for (std::size_t i = 0; i < in_edges.size(); ++i) {
    const EdgeIndex e = in_edges[i];
    const Edge& edge = graph_->edge(e);
    const TaskId pred = edge.src;
    IncomingPlan& plan = out[i];
    plan.edge = e;
    plan.volume = edge.volume;
    plan.senders.clear();
    plan.senders.reserve(schedule_->primary_count());  // the most it holds

    // Co-located replica rule: a copy of the predecessor living on `p`
    // serves alone when relying on it is safe (its completion needs nothing
    // beyond `p` being alive). The host mask says whether any copy lives
    // there; usually none does and the scan is skipped.
    const bool hosted =
        (schedule_->host_mask(pred) & Schedule::host_bit(p)) != 0;
    const ReplicaIndex total =
        hosted ? static_cast<ReplicaIndex>(schedule_->total_replicas(pred)) : 0;
    ReplicaIndex colocated = total;
    for (ReplicaIndex r = 0; r < total; ++r) {
      const ReplicaAssignment& a = schedule_->replica(pred, r);
      if (a.proc != p) continue;
      const bool safe =
          supports == nullptr || r >= schedule_->primary_count() ||
          (supports->get(pred, r) & ~support_of(p)) == 0;
      if (!safe) continue;
      if (colocated == total ||
          a.finish < schedule_->replica(pred, colocated).finish)
        colocated = r;
    }
    if (colocated != total) {
      const ReplicaAssignment& a = schedule_->replica(pred, colocated);
      plan.senders.push_back(
          SenderOption{ReplicaRef{pred, colocated}, a.proc, a.finish});
    } else {
      ReplicaIndex r = 0;
      for (const ReplicaAssignment& a : schedule_->primaries(pred))
        plan.senders.push_back(
            SenderOption{ReplicaRef{pred, r++}, a.proc, a.finish});
    }
  }
}

TaskTimes Placer::place(TaskId t, ProcId p, std::span<const IncomingPlan> plans,
                        bool commit_mode, ReplicaRef as_replica,
                        std::vector<double>* first_arrivals) {
  std::vector<PendingComm>& pending = pending_;
  pending.clear();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    CAFT_CHECK_MSG(!plans[i].senders.empty(),
                   "every in-edge needs at least one sender");
    for (const SenderOption& s : plans[i].senders)
      pending.push_back(PendingComm{
          i, &s,
          engine_->peek_link_finish(s.proc, p, plans[i].volume, s.data_ready)});
  }
  // Equation (6)'s protocol: receive in non-decreasing order of the link
  // finish each message would have on its own. Ties break deterministically
  // on (task, replica), a total order since no sender appears twice. An
  // insertion sort: a placement posts a few dozen messages at most.
  const auto before = [](const PendingComm& a, const PendingComm& b) {
    if (a.sort_key != b.sort_key) return a.sort_key < b.sort_key;
    if (a.sender->ref.task != b.sender->ref.task)
      return a.sender->ref.task < b.sender->ref.task;
    return a.sender->ref.replica < b.sender->ref.replica;
  };
  for (std::size_t i = 1; i < pending.size(); ++i) {
    const PendingComm next = pending[i];
    std::size_t j = i;
    for (; j > 0 && before(next, pending[j - 1]); --j)
      pending[j] = pending[j - 1];
    pending[j] = next;
  }

  // The caller's buffer, when it asked for the arrivals, else the Placer's.
  std::vector<double>& first_arrival =
      first_arrivals != nullptr ? *first_arrivals : first_arrival_;
  first_arrival.assign(plans.size(), std::numeric_limits<double>::infinity());
  for (const PendingComm& pc : pending) {
    const IncomingPlan& plan = plans[pc.plan_index];
    hops_.clear();
    const CommTimes times =
        engine_->post_comm(pc.sender->proc, p, plan.volume,
                           pc.sender->data_ready, commit_mode ? &hops_ : nullptr);
    first_arrival[pc.plan_index] =
        std::min(first_arrival[pc.plan_index], times.arrival);
    if (commit_mode) {
      CommAssignment comm;
      comm.edge = plan.edge;
      comm.from = pc.sender->ref;
      comm.to = as_replica;
      comm.src_proc = pc.sender->proc;
      comm.dst_proc = p;
      comm.volume = plan.volume;
      comm.times = times;
      schedule_->add_comm(comm, hops_);
    }
  }

  double earliest_input = 0.0;
  for (const double a : first_arrival) earliest_input = std::max(earliest_input, a);

  const TaskTimes times =
      engine_->post_exec(p, earliest_input, costs_->exec(t, p));
  if (commit_mode) {
    if (as_replica.replica < schedule_->primary_count()) {
      schedule_->set_replica(t, as_replica.replica,
                             ReplicaAssignment{p, times.start, times.finish});
    } else {
      // Duplicate slot was reserved up front; overwrite its times now.
      schedule_->patch_duplicate(t, as_replica.replica,
                                 ReplicaAssignment{p, times.start, times.finish});
    }
  }
  return times;
}

namespace {

/// Strict weak order "a is better than b": smaller key, ties to the lower
/// processor id (processor ids are distinct, so this is a total order).
bool candidate_better(const BestKSelector::Candidate& a,
                      const BestKSelector::Candidate& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.proc < b.proc;
}

}  // namespace

BestKSelector::BestKSelector(std::size_t k) : k_(k) {
  CAFT_CHECK_MSG(k > 0, "selector needs k > 0");
  heap_.reserve(k);
}

void BestKSelector::offer(double key, ProcId proc) {
  const Candidate candidate{key, proc};
  if (heap_.size() < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), candidate_better);
    return;
  }
  if (!candidate_better(candidate, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), candidate_better);
  heap_.back() = candidate;
  std::push_heap(heap_.begin(), heap_.end(), candidate_better);
}

void BestKSelector::take_sorted(std::vector<Candidate>& out) {
  // sort_heap sorts ascending under the comparator: best candidate first,
  // exactly the order the full sort emitted.
  std::sort_heap(heap_.begin(), heap_.end(), candidate_better);
  out.assign(heap_.begin(), heap_.end());
  heap_.clear();
}

std::unique_ptr<CommEngine> make_engine(CommModelKind model,
                                        const Platform& platform,
                                        const CostModel& costs) {
  switch (model) {
    case CommModelKind::kMacroDataflow:
      return std::make_unique<MacroDataflowEngine>(platform, costs);
    case CommModelKind::kOnePort:
      return std::make_unique<OnePortEngine>(platform, costs);
  }
  CAFT_CHECK_MSG(false, "unknown communication model");
  return nullptr;  // unreachable
}

}  // namespace caft
