#include "algo/caft.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "algo/caft_internal.hpp"
#include "common/check.hpp"
#include "obs/obs.hpp"

namespace caft {

namespace internal {

CaftMapper::CaftMapper(const TaskGraph& graph, const Platform& platform,
                       const CostModel& costs, const CaftOptions& options,
                       CaftRunStats* stats, CaftFloorStats* floor_check)
    : graph_(graph),
      options_(&options),
      stats_(stats),
      floor_check_(floor_check),
      schedule_(graph, platform, options.base.eps, options.base.model),
      engine_(make_engine(options.base.model, platform, costs)),
      placer_(graph, costs, *engine_, schedule_),
      supports_(graph.task_count(), options.base.eps + 1),
      tracker_(graph, costs) {
  order_.reserve(platform.proc_count());
}

TaskStep CaftMapper::begin_task(TaskId t) const {
  TaskStep step;
  step.task = t;
  return step;
}

bool CaftMapper::build_channel(const TaskStep& step, ProcId p, bool relaxed,
                               bool use_one_to_one, ChannelCandidate& out) {
  if (!relaxed && (support_of(p) & step.locked) != 0) return false;
  if (relaxed && hosts_replica_of(step.task, step.committed, p)) return false;
  out.proc = p;
  out.support = support_of(p);
  out.receive_all_edges = 0;
  out.relaxed = relaxed;

  // Support budget: every replica still to be placed after this one needs at
  // least one unlocked processor for its host (a pure receive-from-all
  // channel needs nothing else), so this channel may consume at most
  // |unlocked| - remaining of them. Without the budget a wide channel can
  // lock the whole platform and force an overlapping placement, destroying
  // the pairwise-disjoint support family Proposition 5.2 rests on.
  const SupportMask all_procs =
      proc_count() == kMaxProcessors ? ~SupportMask{0}
                                     : ((SupportMask{1} << proc_count()) - 1);
  const std::size_t unlocked =
      static_cast<std::size_t>(std::popcount(all_procs & ~step.locked));
  const std::size_t remaining = replicas() - step.committed - 1;
  std::size_t budget =
      unlocked > remaining ? unlocked - remaining : 0;  // host included
  if (!relaxed) {
    if (budget == 0) return false;  // later replicas would starve
    budget -= 1;                    // the host itself
  }

  const bool one_to_one = use_one_to_one && !relaxed;
  // One plan slot per in-edge, refilled in place: the slots and their
  // sender lists keep their capacity from one candidate to the next.
  const auto in_edges = graph_.in_edges(step.task);
  out.plans.resize(in_edges.size());
  for (std::size_t i = 0; i < in_edges.size(); ++i) {
    const EdgeIndex e = in_edges[i];
    const Edge& edge = graph_.edge(e);
    const TaskId pred = edge.src;
    IncomingPlan& plan = out.plans[i];
    plan.edge = e;
    plan.volume = edge.volume;
    plan.senders.clear();
    plan.senders.reserve(replicas());  // the most it holds

    // On sparse topologies a one-to-one message additionally depends on
    // every router along its fixed route; fold those processors into the
    // sender's effective support (no-op on the paper's clique). kDirect
    // keeps the paper's clique-level rule.
    const auto route_mask = [&](ProcId from) {
      SupportMask mask = 0;
      if (options_->support_mode == CaftSupportMode::kTransitive)
        for (const LinkId l :
             schedule_.platform().topology().route(from, p)) {
          const LinkDef& def = schedule_.platform().topology().link(l);
          mask |= support_of(def.from) | support_of(def.to);
        }
      return mask;
    };
    const auto support_cost = [&](SupportMask sender_support) {
      return static_cast<std::size_t>(
          std::popcount(sender_support & ~(out.support | step.locked)));
    };

    if (!relaxed) {
      // (a) A co-located predecessor replica with an unlocked support serves
      // alone — the intra-processor rule (Section 6 note), applied even when
      // one-to-one is disabled (FTSA uses the same rule). Its support may
      // overlap the channel's own accumulated support freely: sharing
      // *within* a channel is harmless, only sharing across channels breaks
      // Proposition 5.2. The host mask skips the scan when no replica of
      // the predecessor is on p, the usual case.
      auto colocated = static_cast<ReplicaIndex>(replicas());
      const bool hosted =
          (schedule_.host_mask(pred) & Schedule::host_bit(p)) != 0;
      for (ReplicaIndex r = 0; hosted && r < replicas(); ++r) {
        const ReplicaAssignment& a = schedule_.replica(pred, r);
        if (a.proc != p) continue;
        if ((supports_.get(pred, r) & step.locked) != 0) continue;
        if (support_cost(supports_.get(pred, r)) > budget) continue;
        if (colocated == replicas() ||
            a.finish < schedule_.replica(pred, colocated).finish)
          colocated = r;
      }
      if (colocated != static_cast<ReplicaIndex>(replicas())) {
        const ReplicaAssignment& a = schedule_.replica(pred, colocated);
        plan.senders.push_back(
            SenderOption{ReplicaRef{pred, colocated}, a.proc, a.finish});
        budget -= support_cost(supports_.get(pred, colocated));
        out.support |= supports_.get(pred, colocated);
        continue;
      }
    }

    if (one_to_one) {
      // (b) The eligible replica whose communication would finish first on
      // the links (Algorithm 5.2 line 3's sort key). Eligibility = support
      // disjoint from the locked set P̄, so a sender consumed by an earlier
      // channel — or anything its completion depends on — never serves two
      // channels (the paper's mutual-exclusion argument).
      // Prefer the *cheapest* eligible sender (fewest processors added to
      // the channel's support), then the earliest link finish (Algorithm
      // 5.2 line 3's key). Narrow channels preserve the budget, so more
      // edges across the whole task can stay one-to-one.
      auto best_head = static_cast<ReplicaIndex>(replicas());
      double best_key = std::numeric_limits<double>::infinity();
      std::size_t best_cost = 0;
      SupportMask best_support = 0;
      for (ReplicaIndex r = 0; r < replicas(); ++r) {
        const ReplicaAssignment& a = schedule_.replica(pred, r);
        const SupportMask effective =
            supports_.get(pred, r) | route_mask(a.proc);
        if ((effective & step.locked) != 0) continue;
        const std::size_t cost = support_cost(effective);
        if (cost > budget) continue;
        const double key =
            engine_->peek_link_finish(a.proc, p, edge.volume, a.finish);
        const bool better =
            best_head == static_cast<ReplicaIndex>(replicas()) ||
            cost < best_cost || (cost == best_cost && key < best_key) ||
            (cost == best_cost && key == best_key && r < best_head);
        if (better) {
          best_cost = cost;
          best_key = key;
          best_head = r;
          best_support = effective;
        }
      }
      if (best_head != static_cast<ReplicaIndex>(replicas())) {
        const ReplicaAssignment& a = schedule_.replica(pred, best_head);
        plan.senders.push_back(
            SenderOption{ReplicaRef{pred, best_head}, a.proc, a.finish});
        budget -= best_cost;
        out.support |= best_support;
        continue;
      }
    }

    // (c) No usable single sender: this edge receives from every replica
    // ("greedily add extra communications"). Any surviving predecessor copy
    // then feeds the replica, so the edge adds no support requirement.
    for (ReplicaIndex r = 0; r < replicas(); ++r) {
      const ReplicaAssignment& a = schedule_.replica(pred, r);
      plan.senders.push_back(SenderOption{ReplicaRef{pred, r}, a.proc, a.finish});
    }
    ++out.receive_all_edges;
  }
  return true;
}

namespace {

/// Total senders across a candidate's plans (message-count proxy).
std::size_t sender_count(const ChannelCandidate& candidate) {
  std::size_t senders = 0;
  for (const IncomingPlan& plan : candidate.plans) senders += plan.senders.size();
  return senders;
}

}  // namespace

const ChannelCandidate& CaftMapper::best_candidate(const TaskStep& step) {
  // The two mapper-owned slots trade places instead of copying: a better
  // candidate becomes `best`, and the old best's buffers are rebuilt as the
  // next candidate.
  ChannelCandidate& best = best_;
  ChannelCandidate& candidate = candidate_;
  // Preferred pass honours the lock; if every processor is locked (wide
  // transitive supports), fall back to the space-exclusion minimum.
  //
  // Each processor is evaluated adaptively: with one-to-one channels and
  // with the plain receive-from-all plan. One-to-one saves messages but
  // binds the replica to one sender per edge; under heavy replication on a
  // small platform (ε = 3 on m = 10) waiting for the designated copy can
  // cost more than the port traffic it avoids, so the earlier-finishing
  // variant wins. The sender count breaks ties toward fewer messages, which
  // keeps pure one-to-one channels whenever they are latency-neutral.
  // Receive-from-all must beat the best one-to-one candidate by this factor
  // to displace it: mildly slower one-to-one channels keep their message
  // savings (which also relieves the ports for later tasks); only clearly
  // pathological ones (a locked-in sender far away) are replaced.
  constexpr double kReceiveAllMargin = 0.10;

  // Finish floors: every arrival is at or after its sender's finish, so no
  // replica starts before the latest in-edge's earliest predecessor finish.
  double input_floor = 0.0;
  for (const EdgeIndex e : graph_.in_edges(step.task)) {
    const TaskId pred = graph_.edge(e).src;
    double earliest = std::numeric_limits<double>::infinity();
    for (ReplicaIndex r = 0; r < replicas(); ++r)
      earliest = std::min(earliest, schedule_.replica(pred, r).finish);
    input_floor = std::max(input_floor, earliest);
  }
  order_.clear();
  for (std::size_t pi = 0; pi < proc_count(); ++pi) {
    const auto p = ProcId(static_cast<ProcId::value_type>(pi));
    order_.push_back(
        ProcFloor{std::max(engine_->proc_ready(p), input_floor) +
                      placer_.costs().exec(step.task, p),
                  p});
  }
  std::sort(order_.begin(), order_.end(),
            [](const ProcFloor& a, const ProcFloor& b) {
              return a.floor != b.floor ? a.floor < b.floor : a.proc < b.proc;
            });

  for (const bool relaxed : {false, true}) {
    bool found = false;
    bool best_is_one_to_one = false;
    std::size_t best_senders = 0;
    for (const bool use_one_to_one : {options_->one_to_one, false}) {
      const auto beats_best = [&](double finish, std::size_t senders,
                                  ProcId p) {
        if (!found) return true;
        if (use_one_to_one == best_is_one_to_one)
          return finish < best.times.finish ||
                 (finish == best.times.finish &&
                  (senders < best_senders ||
                   (senders == best_senders && p < best.proc)));
        // Crossing from the one-to-one pass into the receive-all pass:
        // demand a clear win.
        return finish < best.times.finish * (1.0 - kReceiveAllMargin);
      };
      // True once no finish at or above `floor` can beat the best so far;
      // the best only improves, so it stays true for the larger floors.
      const auto out_of_reach = [&](double floor) {
        if (!found) return false;
        if (use_one_to_one == best_is_one_to_one)
          return floor > best.times.finish;
        return floor >= best.times.finish * (1.0 - kReceiveAllMargin);
      };
      std::size_t next = 0;
      for (; next < order_.size() && !out_of_reach(order_[next].floor);
           ++next) {
        const ProcId p = order_[next].proc;
        if (!build_channel(step, p, relaxed, use_one_to_one, candidate))
          continue;
        candidate.times = placer_.evaluate(step.task, p, candidate.plans);
        if (stats_ != nullptr) ++stats_->evaluations;
        const std::size_t senders = sender_count(candidate);
        if (beats_best(candidate.times.finish, senders, p)) {
          std::swap(best, candidate);
          best_senders = senders;
          best_is_one_to_one = use_one_to_one;
          found = true;
        }
      }
      if (floor_check_ != nullptr) {
        for (; next < order_.size(); ++next) {
          const ProcId p = order_[next].proc;
          if (!build_channel(step, p, relaxed, use_one_to_one, candidate))
            continue;
          candidate.times = placer_.evaluate(step.task, p, candidate.plans);
          CAFT_CHECK_MSG(order_[next].floor <= candidate.times.finish,
                         "a trial placement finished below its floor");
          CAFT_CHECK_MSG(!beats_best(candidate.times.finish,
                                     sender_count(candidate), p),
                         "the floor skipped a better channel");
          ++floor_check_->skipped;
        }
      }
      if (!options_->one_to_one) break;  // both passes identical
    }
    if (found) return best;
  }
  CAFT_CHECK_MSG(false, "no processor available for a replica");
  return best;  // unreachable
}

double CaftMapper::peek_next_finish(const TaskStep& step) {
  return best_candidate(step).times.finish;
}

void CaftMapper::keep_peek(ChannelCandidate& out) { std::swap(best_, out); }

void CaftMapper::advance(TaskStep& step) {
  CAFT_CHECK_MSG(!done(step), "task already fully replicated");
  commit_candidate(step, best_candidate(step));
}

void CaftMapper::advance(TaskStep& step, const ChannelCandidate& peeked) {
  CAFT_CHECK_MSG(!done(step), "task already fully replicated");
  commit_candidate(step, peeked);
}

void CaftMapper::commit_candidate(TaskStep& step,
                                  const ChannelCandidate& candidate) {
  const auto r = static_cast<ReplicaIndex>(step.committed);
  const TaskTimes times =
      placer_.commit(step.task, r, candidate.proc, candidate.plans);
  // In kDirect mode a replica's recorded support is just its host, so
  // candidate.support accumulates exactly {host} ∪ {sender processors} —
  // the paper's equation (7). In kTransitive mode the full dependency
  // closure is recorded and locked (see CaftSupportMode).
  supports_.set(step.task, r,
                options_->support_mode == CaftSupportMode::kDirect
                    ? support_of(candidate.proc)
                    : candidate.support);
  step.locked |= candidate.support;  // equation (7)
  ++step.committed;
  step.first_finish = std::min(step.first_finish, times.finish);
  if (stats_ != nullptr) {
    if (candidate.receive_all_edges == 0 && options_->one_to_one &&
        !candidate.relaxed)
      ++stats_->one_to_one_commits;
    else
      ++stats_->fallback_commits;
    stats_->per_edge_fallbacks += candidate.receive_all_edges;
    if (candidate.relaxed) ++stats_->lock_exhaustions;
  }
}

void CaftMapper::finish_task(const TaskStep& step) {
  CAFT_CHECK(done(step));
  tracker_.mark_scheduled(step.task, step.first_finish);
}

Schedule CaftMapper::take_schedule() {
  CAFT_CHECK(schedule_.complete());
  return std::move(schedule_);
}

bool CaftMapper::hosts_replica_of(TaskId t, std::size_t committed,
                                  ProcId p) const {
  for (ReplicaIndex r = 0; r < committed; ++r)
    if (schedule_.replica(t, r).proc == p) return true;
  return false;
}

}  // namespace internal

namespace {

Schedule run_caft(const TaskGraph& graph, const Platform& platform,
                  const CostModel& costs, const CaftOptions& options,
                  CaftRunStats* stats, internal::CaftFloorStats* floor_check) {
  CAFT_CHECK_MSG(options.base.eps + 1 <= platform.proc_count(),
                 "CAFT needs at least eps+1 processors");
  if (stats != nullptr) *stats = CaftRunStats{};
  obs::Registry& registry = obs::Registry::global();
  // With metrics on, collect run stats even when the caller passed none —
  // the replication counters below come from them. Collection is counter
  // increments only; the schedule is identical either way.
  CaftRunStats enabled_stats;
  if (stats == nullptr && registry.enabled()) stats = &enabled_stats;
  // Phase timings: the priority pass is the mapper's construction (the
  // b-level tracker), placement + replication is the mapping loop.
  obs::ScopedTimer priorities_timer(registry, "caft.priorities");
  internal::CaftMapper mapper(graph, platform, costs, options, stats,
                              floor_check);
  priorities_timer.stop();
  obs::ScopedTimer placement_timer(registry, "caft.placement");
  while (mapper.tracker().has_free_task()) {
    const TaskId t = mapper.tracker().pop_highest();
    internal::TaskStep step = mapper.begin_task(t);
    while (!mapper.done(step)) mapper.advance(step);
    mapper.finish_task(step);
  }
  placement_timer.stop();
  if (stats != nullptr && registry.enabled()) {
    registry.counter("caft.replication.one_to_one_commits")
        .add(stats->one_to_one_commits);
    registry.counter("caft.replication.fallback_commits")
        .add(stats->fallback_commits);
    registry.counter("caft.replication.per_edge_fallbacks")
        .add(stats->per_edge_fallbacks);
    registry.counter("caft.replication.lock_exhaustions")
        .add(stats->lock_exhaustions);
  }
  return mapper.take_schedule();
}

}  // namespace

Schedule caft_schedule(const TaskGraph& graph, const Platform& platform,
                       const CostModel& costs, const CaftOptions& options,
                       CaftRunStats* stats) {
  return run_caft(graph, platform, costs, options, stats, nullptr);
}

namespace internal {

Schedule caft_schedule_checked(const TaskGraph& graph,
                               const Platform& platform,
                               const CostModel& costs,
                               const CaftOptions& options,
                               CaftFloorStats* stats) {
  CaftFloorStats counts;
  CaftRunStats run_stats;
  Schedule schedule =
      run_caft(graph, platform, costs, options, &run_stats, &counts);
  counts.evaluated = run_stats.evaluations;
  if (stats != nullptr) *stats = counts;
  return schedule;
}

}  // namespace internal

}  // namespace caft
