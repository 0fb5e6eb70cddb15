#include "atlas/io.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pushpart {

namespace {

// v2 added the per-cell communication lower-bound gap (lowerBoundGapPct);
// v1 files are refused rather than silently defaulting the gap to zero.
// Line checksums are FNV-1a from a basis that is the standard offset basis
// with its last decimal digit missing (14695981039346656037). It is part of
// the v2 file format: changing it would reject every saved atlas.
constexpr RecordFormat kFormat{"pushpart-atlas v2", "atlas", "cells", "c",
                               1469598103934665603ull};

std::string cellPayload(int i, int j, const AtlasCell& cell) {
  std::ostringstream os;
  os << i << ' ' << j << ' ' << (cell.boundary ? 1 : 0) << ' '
     << static_cast<int>(cell.shape) << ' ' << formatRecordDouble(cell.normVoc)
     << ' ' << formatRecordDouble(cell.execSeconds) << ' '
     << formatRecordDouble(cell.runnerUpGapPct) << ' '
     << formatRecordDouble(cell.lowerBoundGapPct) << ' '
     << (cell.searchConfirmed ? 1 : 0) << ' '
     << static_cast<int>(cell.origin);
  return os.str();
}

bool parseCellPayload(const std::string& payload, const AtlasGridSpec& spec,
                      int& i, int& j, AtlasCell& cell) {
  std::istringstream is(payload);
  int boundary = -1, shape = -1, confirmed = -1, origin = -1;
  if (!(is >> i >> j >> boundary >> shape >> cell.normVoc >>
        cell.execSeconds >> cell.runnerUpGapPct >> cell.lowerBoundGapPct >>
        confirmed >> origin))
    return false;
  std::string trailing;
  if (is >> trailing) return false;
  if (!spec.validCell(i, j)) return false;
  if (boundary < 0 || boundary > 1) return false;
  if (shape < 0 || shape >= kNumCandidates) return false;
  if (confirmed < 0 || confirmed > 1) return false;
  if (origin < 0 || origin > 1) return false;
  for (const double v : {cell.normVoc, cell.execSeconds, cell.runnerUpGapPct,
                         cell.lowerBoundGapPct})
    if (!std::isfinite(v) || v < 0.0) return false;
  cell.solved = true;
  cell.boundary = boundary == 1;
  cell.shape = static_cast<CandidateShape>(shape);
  cell.searchConfirmed = confirmed == 1;
  cell.origin = static_cast<CellOrigin>(origin);
  return true;
}

}  // namespace

std::size_t saveAtlas(const PlanAtlas& atlas, std::ostream& os) {
  const AtlasGridSpec& spec = atlas.spec();
  const AtlasBuildInfo& info = atlas.info();
  std::ostringstream header;
  header << "grid " << formatRecordDouble(spec.prMin) << ' '
         << formatRecordDouble(spec.prMax) << ' ' << spec.prSteps << ' '
         << formatRecordDouble(spec.rrMin) << ' '
         << formatRecordDouble(spec.rrMax) << ' ' << spec.rrSteps << '\n';
  header << "info " << info.n << ' ' << static_cast<int>(info.algo) << ' '
         << static_cast<int>(info.topology) << ' '
         << (info.searchBacked ? 1 : 0) << ' ' << info.searchRuns << ' '
         << info.seed << ' ' << formatRecordDouble(info.tieSnapPct) << ' '
         << formatRecordDouble(info.machine.alphaSeconds) << ' '
         << formatRecordDouble(info.machine.sendElementSeconds) << ' '
         << formatRecordDouble(info.machine.baseFlopSeconds) << '\n';

  std::vector<std::string> payloads;
  for (int i = 0; i < spec.prSteps; ++i) {
    for (int j = 0; j < spec.rrSteps; ++j) {
      const std::optional<AtlasCell> cell = atlas.cell(i, j);
      if (cell && cell->solved) payloads.push_back(cellPayload(i, j, *cell));
    }
  }
  writeRecordFile(os, kFormat, header.str(), payloads);
  return payloads.size();
}

std::size_t saveAtlas(const PlanAtlas& atlas, const std::string& path) {
  return publishRecordFile(
      path, kFormat, [&](std::ostream& os) { return saveAtlas(atlas, os); });
}

AtlasLoadReport tryLoadAtlas(std::istream& is) {
  AtlasLoadReport report;
  std::shared_ptr<PlanAtlas> atlas;
  const auto header = [&](std::istream& in) {
    AtlasGridSpec spec;
    AtlasBuildInfo info;
    std::string grid, infoLine, gridTag, infoTag;
    std::getline(in, grid);
    std::getline(in, infoLine);
    std::istringstream ls(grid + '\n' + infoLine);
    int algo = -1, topology = -1, searchBacked = -1;
    if (!(ls >> gridTag >> spec.prMin >> spec.prMax >> spec.prSteps >>
          spec.rrMin >> spec.rrMax >> spec.rrSteps >> infoTag >> info.n >>
          algo >> topology >> searchBacked >> info.searchRuns >> info.seed >>
          info.tieSnapPct >> info.machine.alphaSeconds >>
          info.machine.sendElementSeconds >> info.machine.baseFlopSeconds) ||
        gridTag != "grid" || infoTag != "info" || algo < 0 || algo > 4 ||
        topology < 0 || topology > 1 || searchBacked < 0 || searchBacked > 1) {
      report.error = "load atlas: missing or malformed grid/info header";
      return false;
    }
    info.algo = static_cast<Algo>(algo);
    info.topology = static_cast<Topology>(topology);
    info.searchBacked = searchBacked == 1;
    try {
      atlas = std::make_shared<PlanAtlas>(spec, info);
    } catch (const std::exception& e) {
      report.error = std::string("load atlas: invalid header: ") + e.what();
      return false;
    }
    return true;
  };
  readRecordFile(is, kFormat, report, header, [&](const std::string& payload) {
    int i = -1, j = -1;
    AtlasCell cell;
    if (!parseCellPayload(payload, atlas->spec(), i, j, cell)) return false;
    atlas->insert(i, j, cell);
    return true;
  });
  if (!report.ok()) return report;
  // Flags are re-derived from the winners that actually loaded: a skipped
  // cell must not leave its neighbors claiming a boundary (or its absence)
  // that the surviving data cannot support.
  atlas->markBoundaries();
  report.atlas = std::move(atlas);
  return report;
}

AtlasLoadReport tryLoadAtlas(const std::string& path) {
  return loadRecordPath<AtlasLoadReport>(
      path, kFormat, [](std::istream& is) { return tryLoadAtlas(is); });
}

}  // namespace pushpart
