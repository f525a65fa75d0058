//===- Traced.h - Per-layer timing from outside the system -----------------==//
//
// The traced run times calls into each module's public functions from the
// benchmark's own files; nothing under src/ is instrumented for it. Oracle
// calls are attributed to the search layer that made them through
// traceCurrentLayer().
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

#include "Stats.h"

#include "core/CheckpointedOracle.h"
#include "core/Seminal.h"

#include <array>
#include <string>

namespace perfbench {

/// Search layers an oracle call can come from (the names
/// TraceLayerScope uses in core/Searcher.cpp), plus a catch-all.
inline constexpr std::array<const char *, 10> OracleLayers = {
    "localize",     "removal",     "adaptation", "constructive",
    "triage",       "decl-change", "pattern-fix", "type-query",
    "initial-check", "other"};

struct LayerTime {
  uint64_t Calls = 0;
  double Seconds = 0.0;
};

/// CheckpointedOracle that forwards every query and times it, attributing
/// each call to traceCurrentLayer().
class TimedOracle : public seminal::CheckpointedOracle {
public:
  std::array<LayerTime, OracleLayers.size()> ByLayer{};
  double ConvSeconds = 0.0;

  double oracleSeconds() const;

  std::optional<seminal::caml::TypeError>
  conventionalError(const seminal::caml::Program &Prog) override;

protected:
  bool typecheckImpl(const seminal::caml::Program &Prog) override;
  std::optional<std::string>
  typeOfNodeImpl(const seminal::caml::Program &Prog,
                 const seminal::caml::Expr *Node) override;

private:
  void charge(Clock::time_point Start);
};

/// Time per layer summed over the checks of a traced window.
struct LayerTotals {
  uint64_t Checks = 0;
  double Wall = 0.0; ///< Whole traced pipeline, summed over checks.
  double Parse = 0.0;
  double ParsedBytes = 0.0;
  double OracleSetup = 0.0; ///< Oracle construction and destruction.
  double Conv = 0.0;
  double Search = 0.0; ///< Searcher::run, oracle calls included.
  double SearchOracle = 0.0;
  double Rank = 0.0;
  double Render = 0.0;
  std::array<LayerTime, OracleLayers.size()> ByLayer{};
  uint64_t LogicalCalls = 0;
  uint64_t InferenceRuns = 0;
  seminal::AccelCounters Accel;
  // Side measurements, outside Wall.
  double Slice = 0.0;
  uint64_t SlicePrunedCalls = 0;

  LayerTotals &operator+=(const LayerTotals &O);
};

/// One check through the public pipeline runSeminalOnSource wraps (parse,
/// oracle, conventionalError, Searcher::run, rankSuggestions) plus output
/// rendering, each step timed into \p T. \returns the rendered output,
/// which must equal the untraced check's.
std::string tracedCheck(const std::string &Source, LayerTotals &T);

/// The slice side measurements for \p Source (computeErrorSlice on the
/// failing declaration, and the calls a SliceGuided search prunes), added
/// to \p T outside its Wall.
void sliceSideMeasurement(const std::string &Source, LayerTotals &T);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
