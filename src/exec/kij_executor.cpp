#include "exec/kij_executor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/throttle.hpp"
#include "grid/metrics.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace pushpart {

namespace {

// --- Row-span kernel ------------------------------------------------------
//
// Each worker computes its owned C cells as a k-panelled kij product over
// owned row spans. Every C element starts at 0.0 and accumulates
// a(i,k)·b(k,j) with k ascending, one rounded multiply then one rounded add
// per step: exactly multiplySerial's order, so the product is bit-identical
// to the reference. Blocking only changes which element is updated when.

/// Half-open column run [lo, hi) of owned cells within one row.
struct ColumnRun {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool operator==(const ColumnRun&) const = default;
};

/// Consecutive rows [row, row + rows) that own the same column runs
/// runs[first, last).
struct RowBlock {
  std::size_t row = 0;
  std::size_t rows = 0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Micro-tile rows: a block of kTileRows rows goes through the
/// register-blocked tile; shorter blocks take the row loop.
constexpr std::size_t kTileRows = 4;
/// Micro-tile columns, as two-double vectors (kTileRows × 6 doubles: twelve
/// accumulators fit the sixteen SSE2 registers with room for B and A).
constexpr std::size_t kTileVecs = 3;
constexpr std::size_t kTileCols = 2 * kTileVecs;
/// Target bytes of the B panel (KC rows × n columns) kept hot across row
/// blocks: half of a 2 MB per-core L2, leaving room for A rows and C tiles.
constexpr std::size_t kPanelBytes = std::size_t{1} << 20;

/// Rows of B per k-panel at order n.
std::size_t panelDepth(std::size_t n) {
  return std::clamp<std::size_t>(kPanelBytes / sizeof(double) / n, 16, 256);
}

/// The cells one worker owns, as column runs per row with runs shared by
/// up to kTileRows consecutive rows of identical layout.
struct OwnedSpans {
  std::vector<ColumnRun> runs;
  std::vector<RowBlock> blocks;
};

OwnedSpans ownedSpans(const Partition& q, Proc x) {
  OwnedSpans out;
  const int n = q.n();
  const auto runsOf = [&](std::size_t first, std::size_t last) {
    return std::span<const ColumnRun>(out.runs).subspan(first, last - first);
  };
  for (int i = 0; i < n; ++i) {
    const std::size_t first = out.runs.size();
    for (int j = 0; j < n; ++j) {
      if (q.at(i, j) != x) continue;
      const int lo = j;
      while (j + 1 < n && q.at(i, j + 1) == x) ++j;
      out.runs.push_back({static_cast<std::size_t>(lo),
                          static_cast<std::size_t>(j + 1)});
    }
    const std::size_t last = out.runs.size();
    if (first == last) continue;
    const auto row = static_cast<std::size_t>(i);
    if (!out.blocks.empty()) {
      RowBlock& prev = out.blocks.back();
      if (prev.row + prev.rows == row && prev.rows < kTileRows &&
          std::ranges::equal(runsOf(prev.first, prev.last),
                             runsOf(first, last))) {
        ++prev.rows;
        out.runs.resize(first);
        continue;
      }
    }
    out.blocks.push_back({row, 1, first, last});
  }
  return out;
}

/// Two doubles; element-wise arithmetic is IEEE per lane, so vector and
/// scalar updates round identically.
typedef double Vec2 __attribute__((vector_size(16)));

Vec2 loadVec(const double* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void storeVec(double* p, Vec2 v) { std::memcpy(p, &v, sizeof(v)); }

/// C[i..i+kTileRows)[j..j+kTileCols) += A[., k0..k1) · B[k0..k1, .], with
/// the tile held in registers across the k-panel.
void microTile(const double* a, const double* b, double* c, std::size_t n,
               std::size_t i, std::size_t j, std::size_t k0, std::size_t k1) {
  Vec2 acc[kTileRows][kTileVecs];
  for (std::size_t r = 0; r < kTileRows; ++r)
    for (std::size_t v = 0; v < kTileVecs; ++v)
      acc[r][v] = loadVec(c + (i + r) * n + j + 2 * v);
  for (std::size_t k = k0; k < k1; ++k) {
    Vec2 bv[kTileVecs];
    for (std::size_t v = 0; v < kTileVecs; ++v)
      bv[v] = loadVec(b + k * n + j + 2 * v);
    for (std::size_t r = 0; r < kTileRows; ++r) {
      const double ar = a[(i + r) * n + k];
      for (std::size_t v = 0; v < kTileVecs; ++v) acc[r][v] += ar * bv[v];
    }
  }
  for (std::size_t r = 0; r < kTileRows; ++r)
    for (std::size_t v = 0; v < kTileVecs; ++v)
      storeVec(c + (i + r) * n + j + 2 * v, acc[r][v]);
}

/// C[i][lo..hi) += A[i][k0..k1) · B[k0..k1][lo..hi), B read row-contiguously.
void rowUpdate(const double* a, const double* b, double* c, std::size_t n,
               std::size_t i, std::size_t lo, std::size_t hi, std::size_t k0,
               std::size_t k1) {
  double* crow = c + i * n;
  for (std::size_t k = k0; k < k1; ++k) {
    const double aik = a[i * n + k];
    const double* bk = b + k * n;
    for (std::size_t j = lo; j < hi; ++j) crow[j] += aik * bk[j];
  }
}

/// Computes every cell in `spans` (C must hold 0.0 there), reporting the MAC
/// count of each tile or row-loop update to `account` as it completes.
template <typename Account>
void multiplySpans(const Matrix& a, const Matrix& b, Matrix& c,
                   const OwnedSpans& spans, Account&& account) {
  const auto n = static_cast<std::size_t>(a.n());
  const std::size_t kc = panelDepth(n);
  for (std::size_t k0 = 0; k0 < n; k0 += kc) {
    const std::size_t k1 = std::min(n, k0 + kc);
    for (const RowBlock& blk : spans.blocks) {
      // The block's rows over columns [lo, hi), one row at a time.
      const auto rowLoop = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = 0; r < blk.rows; ++r)
          rowUpdate(a.data(), b.data(), c.data(), n, blk.row + r, lo, hi, k0,
                    k1);
        account(blk.rows * (hi - lo) * (k1 - k0));
      };
      for (std::size_t ri = blk.first; ri < blk.last; ++ri) {
        const ColumnRun run = spans.runs[ri];
        std::size_t j = run.lo;
        if (blk.rows == kTileRows && run.hi - run.lo > kTileCols) {
          // Start the tiles on an even column, so that at even n every
          // vector load of B and C is 16-byte aligned.
          if (j % 2 != 0) {
            rowLoop(j, j + 1);
            ++j;
          }
          for (; j + kTileCols <= run.hi; j += kTileCols) {
            microTile(a.data(), b.data(), c.data(), n, blk.row, j, k0, k1);
            account(kTileRows * kTileCols * (k1 - k0));
          }
        }
        if (j < run.hi) rowLoop(j, run.hi);
      }
    }
  }
}

using PairVolumes = std::array<std::array<std::int64_t, kNumProcs>, kNumProcs>;

/// Emulated communication duration for the chosen schedule, given the
/// partition's directed pair volumes `v`.
double commPhaseSeconds(Algo algo, const PairVolumes& v, const Machine& m) {
  if (algo == Algo::kSCB) {
    std::int64_t total = 0;
    for (const auto& row : v)
      for (std::int64_t x : row) total += x;
    return m.transferSeconds(total);
  }
  // PCB: per-sender volumes move in parallel.
  double worst = 0.0;
  for (Proc s : kAllProcs) {
    std::int64_t mine = 0;
    for (Proc r : kAllProcs) mine += v[procSlot(s)][procSlot(r)];
    worst = std::max(worst, m.transferSeconds(mine));
  }
  return worst;
}

struct CommEmulation {
  double seconds = 0.0;
  std::int64_t drops = 0;
  std::int64_t retries = 0;
  bool completed = true;
};

/// Fault-aware emulated communication: one block transfer per directed pair
/// (the unit of retransmission), each drawn against the drop probability; a
/// lost transfer costs its full duration plus the ack timeout and a jittered
/// backoff before the resend. Latency spikes and NIC stalls shift each
/// attempt by the injector's factors at its start instant. Deterministic in
/// faults.seed.
CommEmulation commPhaseFaulty(Algo algo, const PairVolumes& v,
                              const ExecOptions& options) {
  FaultInjector injector(options.faults);
  const Machine& m = options.machine;
  const RetryPolicy& retry = options.retry;
  CommEmulation out;

  // Returns the clock after the pair's transfer finishes (or is abandoned).
  auto pairDone = [&](Proc s, std::int64_t volume, double start) {
    double t = start;
    for (int attempt = 1;; ++attempt) {
      t = injector.stallClearedAt(s, t);
      t += m.alphaSeconds * injector.alphaFactorAt(t) +
           m.sendElementSeconds * injector.betaFactorAt(t) *
               static_cast<double>(volume);
      if (!injector.dropHop()) return t;
      ++out.drops;
      if (attempt >= retry.maxAttempts) {
        out.completed = false;
        return t + retry.timeoutSeconds;
      }
      t += retry.timeoutSeconds +
           retry.backoffBeforeRetry(attempt, injector.rng());
      ++out.retries;
    }
  };

  if (algo == Algo::kSCB) {
    double t = 0.0;
    for (Proc s : kAllProcs)
      for (Proc r : kAllProcs) {
        if (s == r || v[procSlot(s)][procSlot(r)] == 0) continue;
        t = pairDone(s, v[procSlot(s)][procSlot(r)], t);
      }
    out.seconds = t;
    return out;
  }
  // PCB: senders run in parallel; each serializes its own pairs.
  double worst = 0.0;
  for (Proc s : kAllProcs) {
    double t = 0.0;
    for (Proc r : kAllProcs) {
      if (s == r || v[procSlot(s)][procSlot(r)] == 0) continue;
      t = pairDone(s, v[procSlot(s)][procSlot(r)], t);
    }
    worst = std::max(worst, t);
  }
  out.seconds = worst;
  return out;
}

}  // namespace

ExecResult runParallelMMM(Algo algo, const Partition& q,
                          const ExecOptions& options) {
  if (algo != Algo::kSCB && algo != Algo::kPCB)
    throw std::invalid_argument(
        "runParallelMMM: executor implements the barrier algorithms (SCB, "
        "PCB); use simulateMMM for the overlap family");
  PUSHPART_CHECK_MSG(options.machine.ratio.valid(),
                     "invalid ratio " << options.machine.ratio.str());
  PUSHPART_CHECK(options.quantumMacs > 0);

  const int n = q.n();
  Rng rng(options.seed);
  const Matrix a = randomMatrix(n, rng);
  const Matrix b = randomMatrix(n, rng);
  Matrix c(n, 0.0);

  ExecResult result;
  Stopwatch wall;

  // --- Communication phase (emulated) -----------------------------------
  {
    const auto v = pairVolumes(q);
    for (const auto& row : v)
      for (std::int64_t x : row) result.commElements += x;
    if (options.faults.enabled()) {
      options.faults.validate();
      options.retry.validate();
      PUSHPART_CHECK_MSG(!options.faults.death.has_value(),
                         "runParallelMMM cannot survive a processor death "
                         "(real threads hold the data); use simulateMMM for "
                         "failover studies");
      const CommEmulation comm = commPhaseFaulty(algo, v, options);
      result.commSeconds = comm.seconds;
      result.commDropsInjected = comm.drops;
      result.commRetriesSent = comm.retries;
      result.commCompleted = comm.completed;
    } else {
      result.commSeconds = commPhaseSeconds(algo, v, options.machine);
    }
    if (options.paceCommunication && result.commSeconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(result.commSeconds));
    }
  }

  // --- Barrier, then parallel computation -------------------------------
  const double maxSpeed = options.machine.ratio.p;
  std::array<std::thread, kNumProcs> workers;
  std::array<double, kNumProcs> busy{};
  std::array<double, kNumProcs> emulatedBusy{};  // incl. throttle sleeps
  for (Proc x : kAllProcs) {
    const auto xi = procSlot(x);
    workers[xi] = std::thread([&, x, xi] {
      const OwnedSpans spans = ownedSpans(q, x);
      Throttle throttle(options.machine.ratio.speed(x) / maxSpeed);
      Stopwatch total;
      Stopwatch quantum;  // pure-compute time since the last charge
      std::int64_t macsSinceCharge = 0;
      multiplySpans(a, b, c, spans, [&](std::size_t macs) {
        macsSinceCharge += static_cast<std::int64_t>(macs);
        if (macsSinceCharge >= options.quantumMacs) {
          throttle.charge(quantum.seconds());
          quantum.reset();  // charge() slept; restart the compute clock
          macsSinceCharge = 0;
        }
      });
      emulatedBusy[xi] = total.seconds();
      busy[xi] = emulatedBusy[xi] - throttle.sleptSeconds();
    });
  }
  for (auto& t : workers)
    if (t.joinable()) t.join();
  result.computeSeconds = busy;
  result.wallSeconds = wall.seconds();

  if (options.telemetry) {
    // One phase observation per run. busySeconds includes the throttle's
    // duty-cycle sleeps: they are exactly what makes the emulated processor
    // slow, so units / busySeconds is the heterogeneous throughput a real
    // monitor would measure on that node.
    PhaseSample sample;
    sample.at = result.wallSeconds;
    for (Proc x : kAllProcs) {
      NodeSample& node = sample.node(x);
      node.proc = x;
      node.units = q.count(x) * n;
      node.busySeconds = emulatedBusy[procSlot(x)];
    }
    options.telemetry(sample);
  }

  // --- Verification ------------------------------------------------------
  if (options.verify) {
    Rng checkRng(options.seed);
    const Matrix refA = randomMatrix(n, checkRng);
    const Matrix refB = randomMatrix(n, checkRng);
    const Matrix ref = multiplySerial(refA, refB);
    result.maxAbsError = maxAbsDiff(c, ref);
    result.verified = true;
  }
  return result;
}

}  // namespace pushpart
