#include "comm/one_port.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace caft {

OnePortEngine::OnePortEngine(const Platform& platform, const CostModel& costs)
    : CommEngine(platform, costs),
      sending_free_(platform.proc_count(), 0.0),
      receiving_free_(platform.proc_count(), 0.0),
      link_ready_(platform.topology().link_count(), 0.0) {}

CommTimes OnePortEngine::post_comm(ProcId from, ProcId to, double volume,
                                   double data_ready,
                                   std::vector<LinkOccupancy>* hops) {
  CAFT_CHECK(from.index() < proc_count() && to.index() < proc_count());
  CAFT_CHECK(volume >= 0.0);

  CommTimes times;
  if (from == to) {
    // Intra-processor: free, instantaneous, touches no port (Section 2).
    times.link_start = times.link_finish = data_ready;
    times.send_finish = times.recv_start = times.arrival = data_ready;
    return times;
  }

  const auto route = platform().topology().route(from, to);
  CAFT_CHECK_MSG(!route.empty(), "no route between distinct processors");

  // First segment holds the sender port: equation (4).
  double segment_start = std::max({sending_free_[from.index()], data_ready,
                                   link_ready_[route.front().index()]});
  double segment_finish =
      segment_start + volume * costs().unit_delay(route.front());
  times.link_start = segment_start;
  times.send_finish = segment_finish;
  write(sending_free_, from.index(), segment_finish);
  write(link_ready_, route.front().index(), segment_finish);
  if (hops != nullptr)
    hops->push_back({route.front(), segment_start, segment_finish});

  // Intermediate hops (sparse-topology extension; empty loop on a clique).
  double last_segment_start = segment_start;
  for (std::size_t i = 1; i < route.size(); ++i) {
    const LinkId l = route[i];
    segment_start = std::max(segment_finish, link_ready_[l.index()]);
    segment_finish = segment_start + volume * costs().unit_delay(l);
    write(link_ready_, l.index(), segment_finish);
    last_segment_start = segment_start;
    if (hops != nullptr) hops->push_back({l, segment_start, segment_finish});
  }
  times.link_finish = segment_finish;

  // Reception on the last hop: equation (6) with the RF(P) running update.
  const double reception_duration =
      volume * costs().unit_delay(route.back());
  const double reception_start =
      std::max(receiving_free_[to.index()], last_segment_start);
  times.recv_start = reception_start;
  times.arrival = reception_start + reception_duration;
  write(receiving_free_, to.index(), times.arrival);
  return times;
}

double OnePortEngine::peek_link_finish(ProcId from, ProcId to, double volume,
                                       double data_ready) const {
  CAFT_CHECK(from.index() < proc_count() && to.index() < proc_count());
  if (from == to) return data_ready;
  const auto route = platform().topology().route(from, to);
  CAFT_CHECK_MSG(!route.empty(), "no route between distinct processors");
  double finish = std::max({sending_free_[from.index()], data_ready,
                            link_ready_[route.front().index()]}) +
                  volume * costs().unit_delay(route.front());
  for (std::size_t i = 1; i < route.size(); ++i) {
    const LinkId l = route[i];
    finish = std::max(finish, link_ready_[l.index()]) +
             volume * costs().unit_delay(l);
  }
  return finish;
}

double OnePortEngine::sending_free(ProcId p) const {
  CAFT_CHECK(p.index() < proc_count());
  return sending_free_[p.index()];
}

double OnePortEngine::receiving_free(ProcId p) const {
  CAFT_CHECK(p.index() < proc_count());
  return receiving_free_[p.index()];
}

double OnePortEngine::link_ready(LinkId l) const {
  CAFT_CHECK(l.index() < link_ready_.size());
  return link_ready_[l.index()];
}

}  // namespace caft
