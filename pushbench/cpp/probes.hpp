// Per-function probes and the fixed-size North-star probes of the traced run.
//
// Probes run outside any request span. The per-function probes time single
// library calls on inputs taken from the workload's own stream; the
// North-star probes time fixed inputs, so one command reproduces the
// ROADMAP baselines whatever the seed.
#pragma once

#include <vector>

#include "atlas/atlas.hpp"
#include "model/machine.hpp"
#include "report.hpp"
#include "serve/request.hpp"

namespace pushbench {

/// Sets every per-layer metric to 0 with its unit, in the declared order;
/// a workload then overwrites the ones its layers reach.
void declarePerLayer(Metrics& m);

/// serve.canonicalize_us and bounds.voc_lower_bound_us over `requests`.
void probeRequestLayers(const std::vector<pushpart::PlanRequest>& requests,
                        Metrics& m);

/// makeCandidate / evalModel per shape (ns per cell), selectOptimal and the
/// feasible-candidate count over tier-A `requests` (canonical form).
void probeTierA(const std::vector<pushpart::PlanRequest>& requests,
                const pushpart::Machine& machine, Metrics& m);

/// bestFamilyCandidate (all families) timing and candidates per solve.
void probeFamily(const std::vector<pushpart::PlanRequest>& requests,
                 const pushpart::Machine& machine, Metrics& m);

/// PlanAtlas::lookup latency over `ratios`.
void probeAtlasLookup(const pushpart::PlanAtlas& atlas,
                      const std::vector<pushpart::Ratio>& ratios, Metrics& m);

/// exec.serial_gmacs: the multiplySerial single-thread baseline at n.
void probeSerialMultiply(int n, Metrics& m);

/// The seven probe.* North-star numbers. Returns false if a probe's own
/// result fails its check (the executor probe verifies its product).
bool probeNorthStar(Metrics& m);

}  // namespace pushbench
