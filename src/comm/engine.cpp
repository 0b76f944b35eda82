#include "comm/engine.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace caft {

CommEngine::CommEngine(const Platform& platform, const CostModel& costs)
    : platform_(&platform),
      costs_(&costs),
      proc_ready_(platform.proc_count(), 0.0) {
  CAFT_CHECK_MSG(&costs.platform() == &platform,
                 "cost model was built for a different platform");
}

TaskTimes CommEngine::post_exec(ProcId p, double earliest_start,
                                double exec_time) {
  CAFT_CHECK(p.index() < proc_ready_.size());
  CAFT_CHECK(exec_time >= 0.0);
  TaskTimes times;
  times.start = std::max(earliest_start, proc_ready_[p.index()]);
  times.finish = times.start + exec_time;
  write(proc_ready_, p.index(), times.finish);
  return times;
}

}  // namespace caft
