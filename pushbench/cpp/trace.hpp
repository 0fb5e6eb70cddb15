// In-memory span recording for the traced run.
//
// Spans are recorded from the benchmark's own code: a root span around each
// plan() or runParallelMMM call, and child spans cut at the oracle's public
// hooks (onSolveStart, onSearchRun). Each client thread appends to its own
// buffer, so recording takes no lock; the buffers are merged, summarized
// (self time per span name) and written out once the run has ended.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pushbench {

/// Monotonic nanoseconds (steady clock).
std::int64_t nowNs();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span.
  std::uint64_t request = 0;
  const char* name = "";     ///< Static string.
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

class Tracer {
 public:
  explicit Tracer(int threads)
      : buffers_(static_cast<std::size_t>(threads)),
        next_(static_cast<std::size_t>(threads), 0) {}

  /// A fresh span id, unique across threads.
  std::uint64_t newId(int thread) {
    return (static_cast<std::uint64_t>(thread + 1) << 40) | ++next_[slot(thread)];
  }
  void record(int thread, const Span& s) {
    buffers_[slot(thread)].push_back(s);
  }

  std::vector<Span> spans() const;

 private:
  std::size_t slot(int thread) const { return static_cast<std::size_t>(thread); }
  std::vector<std::vector<Span>> buffers_;
  std::vector<std::uint64_t> next_;
};

struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double totalMs = 0.0;
  double selfMs = 0.0;  ///< Duration minus the time its children cover.
};

struct TraceSummary {
  std::vector<SpanTotals> byName;  ///< Sorted by name.
  /// Share of root-span time no child span covers.
  double unattributedShare = 0.0;
};

TraceSummary summarize(const std::vector<Span>& spans);

/// Writes the spans and their summary as one JSON document. Returns false
/// when the file cannot be written.
bool writeTraceFile(const std::string& path, const std::string& workload,
                    std::uint64_t seed, const std::vector<Span>& spans,
                    const TraceSummary& summary);

}  // namespace pushbench
