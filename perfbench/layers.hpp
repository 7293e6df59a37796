// Per-layer probes of the traced run: re-run each distinct point of a
// workload under other engine settings and observers, and report what
// the machine, mm, analysis and telemetry layers did and cost.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace perfbench {

struct LayerPoint {
  hmm::run::Point point;           ///< in the workload's timed configuration
  const PointInputs* inputs = nullptr;
  const Reference* reference = nullptr;
  const Simulated* timed = nullptr;  ///< its run in the timed configuration
  double op_ms = 0.0;              ///< host ms of one timed op (median)
  std::int64_t ops = 0;            ///< the point's share of the op mix
};

/// Adds every machine.*, mm.*, analysis.* and telemetry.* metric and
/// tallies one invariance check per point: fast-forward off with the
/// serial engine must give a RunReport identical to the timed one.
void add_layer_metrics(const std::vector<LayerPoint>& points, Tracer& tracer,
                       Result& result);

}  // namespace perfbench
