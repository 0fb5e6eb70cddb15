// Versioned, checksummed atlas persistence.
//
//   pushpart-atlas v2
//   grid <prMin> <prMax> <prSteps> <rrMin> <rrMax> <rrSteps>
//   info <n> <algo> <topology> <searchBacked> <searchRuns> <seed>
//        <tieSnapPct> <alphaSeconds> <sendElementSeconds> <baseFlopSeconds>
//   cells <count>
//   c <fnv1a-16-hex> <i> <j> <boundary> <shape> <normVoc> <execSeconds>
//        <runnerUpGapPct> <lowerBoundGapPct> <searchConfirmed> <origin>
//
// A support/recordfile document: byte-identical round trips (a loaded cell
// certifies exactly like the built one) and crash-safe writes. A wrong
// version or a malformed grid/info header refuses the whole file, since
// guessing would serve wrong plans silently. A damaged or missing cell is
// counted as skipped, and boundary flags are re-derived from the cells that
// loaded, so the atlas never claims knowledge a flipped byte destroyed.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "atlas/atlas.hpp"
#include "support/recordfile.hpp"

namespace pushpart {

/// loaded/skipped count cells; `atlas` is set exactly when ok().
struct AtlasLoadReport : RecordLoadReport {
  std::shared_ptr<PlanAtlas> atlas;
};

/// Serializes the atlas (solved cells only). The path variant publishes
/// atomically; both return cells written and throw std::runtime_error on
/// I/O failure.
std::size_t saveAtlas(const PlanAtlas& atlas, std::ostream& os);
std::size_t saveAtlas(const PlanAtlas& atlas, const std::string& path);

/// Non-throwing load: refusal and corruption come back in the report.
AtlasLoadReport tryLoadAtlas(std::istream& is);
AtlasLoadReport tryLoadAtlas(const std::string& path);

}  // namespace pushpart
