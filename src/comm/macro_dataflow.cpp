#include "comm/macro_dataflow.hpp"

namespace caft {

CommTimes MacroDataflowEngine::post_comm(ProcId from, ProcId to, double volume,
                                         double data_ready,
                                         std::vector<LinkOccupancy>* /*hops*/) {
  CommTimes times;
  times.link_start = data_ready;
  times.link_finish = data_ready + costs().comm_time(volume, from, to);
  times.send_finish = times.link_finish;
  times.recv_start = times.link_start;
  times.arrival = times.link_finish;
  return times;
}

double MacroDataflowEngine::peek_link_finish(ProcId from, ProcId to,
                                             double volume,
                                             double data_ready) const {
  return data_ready + costs().comm_time(volume, from, to);
}

}  // namespace caft
