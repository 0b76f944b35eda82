/// \file layers.hpp
/// Per-layer probes of the traced run. Each probe times calls into one
/// layer's public functions (dag, algo, sim, campaign, server) on the
/// workload's own instance and campaign spec, from outside the library.
#pragma once

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What the traced legs observed that the probes need.
struct TracedLegs {
  /// Warm service requests' p50 latency under the workload's own load, or
  /// a negative value when the workload sent no service requests (the
  /// probes then measure socket requests from one client).
  double warm_request_p50_ms = -1.0;
  /// Server cache lookups (hits, misses) the legs caused.
  double cache_hits = 0.0;
  double cache_misses = 0.0;
};

/// Runs every layer probe against `subject` and adds the per-layer metrics
/// (in BENCHMARK.json order) to `metrics`. Output checks the probes make
/// (kernel against oracle, serve against in-process) go to `gates`.
void measure_layers(const Options& options, const LayerSubject& subject,
                    const TracedLegs& legs, MetricSet& metrics, Gates& gates);

}  // namespace perfbench
