//===- Metrics.h - Named histogram metrics with p50/p95/max -----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer histogram metrics for the search pipeline: a thread-safe
/// registry of named sample series (oracle latency, candidates per node,
/// checkpoint reuse depth, ...) with percentile summaries and a JSON
/// snapshot for the BENCH_*.json trajectory files. Like the trace sink,
/// a Metrics collector is attached by pointer and null means disabled:
/// instrumentation sites pay one branch when no collector is attached.
///
/// Hot series -- names ending in ".latency_us", observed once per oracle
/// call -- are backed by a fixed-size LogHistogram (support/Histogram.h)
/// instead of a sample vector: bounded memory in a long-lived daemon and
/// O(buckets) summaries instead of a sort per query, at the price of
/// <= 3.1% quantile quantization. All other series keep exact samples.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SUPPORT_METRICS_H
#define SEMINAL_SUPPORT_METRICS_H

#include "support/Histogram.h"
#include "support/Stats.h"
#include "support/Sync.h"

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace seminal {

/// Summary statistics for one metric series.
struct MetricSummary {
  size_t Count = 0;
  double Min = 0.0;
  double Mean = 0.0;
  double P50 = 0.0;
  double P95 = 0.0;
  double Max = 0.0;
};

/// Well-known metric names, kept in one place so producers and
/// consumers (benches, the CLI `--metrics` report) agree.
namespace metric {
inline constexpr const char *OracleLatencyUs = "oracle.latency_us";
inline constexpr const char *CandidatesPerNode = "search.candidates_per_node";
inline constexpr const char *CheckpointReuseDepth =
    "oracle.checkpoint_reuse_depth";
inline constexpr const char *TriageRemovals = "triage.sibling_removals";
inline constexpr const char *SliceSize = "slice.size";
inline constexpr const char *SlicePruneRatio = "slice.prune_ratio";
} // namespace metric

/// Thread-safe registry of named sample series.
class Metrics {
public:
  /// Appends \p Value to the series \p Name (creating it on first use).
  void observe(const char *Name, double Value);

  /// Series names in lexicographic order.
  std::vector<std::string> names() const;

  /// Summary of one series (all zeros for an unknown name).
  MetricSummary summary(const std::string &Name) const;

  /// Count/p50/p95/max table, one row per series.
  std::string render() const;

  /// JSON object {"name": {"count": n, "p50": ..., ...}, ...}.
  void writeJson(std::ostream &OS) const;

  bool empty() const;
  void clear();

  /// True when \p Name is routed to a LogHistogram (see file comment).
  static bool isHotSeries(const std::string &Name);

private:
  mutable sync::Mutex Mutex{sync::LockRank::Metrics, "metrics"};
  std::map<std::string, Samples> Series SEMINAL_GUARDED_BY(Mutex);
  /// unique_ptr: a LogHistogram is ~9 KiB of atomics and non-copyable.
  /// The map is guarded; the histograms themselves are lock-free and
  /// recorded into outside the registry lock (see observe()).
  std::map<std::string, std::unique_ptr<LogHistogram>> HotSeries
      SEMINAL_GUARDED_BY(Mutex);
};

} // namespace seminal

#endif // SEMINAL_SUPPORT_METRICS_H
