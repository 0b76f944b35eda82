/// \file macro_dataflow.hpp
/// The traditional contention-free model the paper argues against (Section 1):
/// unlimited ports and links, so a message departs the moment its payload is
/// ready and lands exactly W = V · d(P_k, P_h) later. FTSA and FTBAR were
/// originally designed for this model; the ablation benches evaluate both
/// engines on identical placements to quantify what contention costs.
#pragma once

#include "comm/engine.hpp"

namespace caft {

/// Contention-free engine: post_comm never waits for any port or link.
class MacroDataflowEngine final : public CommEngine {
 public:
  using CommEngine::CommEngine;

  CommTimes post_comm(ProcId from, ProcId to, double volume,
                      double data_ready,
                      std::vector<LinkOccupancy>* hops = nullptr) override;

  [[nodiscard]] double peek_link_finish(ProcId from, ProcId to, double volume,
                                        double data_ready) const override;
};

}  // namespace caft
