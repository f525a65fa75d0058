//===- Seminal.h - Public facade for the SEMINAL system ---------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call public API: feed it an ill-typed program (as source text
/// or a parsed AST) and get back a ranked list of suggestions plus the
/// conventional checker message for comparison. This wires together the
/// components of Figure 1: type-checker (oracle), changer (searcher +
/// enumerator), and ranker.
///
/// \code
///   seminal::SeminalReport R = seminal::runSeminalOnSource(Source);
///   if (!R.InputTypechecks)
///     std::cout << R.bestMessage() << "\n";
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_SEMINAL_H
#define SEMINAL_CORE_SEMINAL_H

#include "core/Change.h"
#include "core/Message.h"
#include "core/Searcher.h"
#include "minicaml/Infer.h"
#include "minicaml/Parser.h"
#include "obs/RunReport.h"
#include "support/Stats.h"

#include <optional>
#include <string>
#include <vector>

namespace seminal {

/// Configuration for one run of the full system.
struct SeminalOptions {
  SearchOptions Search;
  MessageOptions Message;
  /// Keep at most this many ranked suggestions in the report.
  size_t MaxSuggestions = 8;
};

/// Everything a run produces.
struct SeminalReport {
  /// The input parses? (Search requires a syntactically valid file.)
  std::optional<caml::ParseError> SyntaxError;

  /// The input already type-checks (the system is bypassed, Figure 1).
  bool InputTypechecks = false;

  /// The conventional checker diagnostic for the input (the baseline).
  std::optional<caml::TypeError> CheckerError;

  /// Index of the first failing top-level declaration.
  std::optional<unsigned> FailingDeclIndex;

  /// Ranked suggestions, best first.
  std::vector<Suggestion> Suggestions;

  /// Number of oracle invocations the search performed (logical calls --
  /// the paper-comparable search-effort metric, the same for the plain
  /// CamlOracle reference).
  size_t OracleCalls = 0;

  /// Number of inference executions the oracle actually ran; acceleration
  /// drives this below OracleCalls (equal for CamlOracle).
  size_t InferenceRuns = 0;

  /// Per-layer acceleration instrumentation for this run.
  AccelCounters Accel;

  /// True if the search stopped on its call budget.
  bool BudgetExhausted = false;

  /// The provenance error slice, when SearchOptions::ComputeSlice or
  /// SliceGuided was set and the failure was sliceable.
  std::optional<analysis::ErrorSlice> Slice;

  /// Oracle calls statically skipped by slice guidance (0 unless
  /// SearchOptions::SliceGuided). These calls are part of the logical
  /// search effort a plain run would have spent; OracleCalls excludes
  /// them.
  size_t SlicePrunedCalls = 0;

  /// Aggregated view of the run's trace, present when a TraceSink was
  /// attached via SearchOptions::Trace (span counts by kind, oracle calls
  /// by search layer, cache hits, root wall-time).
  std::optional<TraceSummary> Trace;

  /// The top-ranked suggestion rendered as a message, or a fallback.
  std::string bestMessage(const MessageOptions &Opts = {}) const;

  /// The conventional checker message (baseline presentation).
  std::string conventionalMessage() const;
};

/// Search layer credited with finding \p S ("constructive",
/// "adaptation", "removal", "pattern-fix", "decl-change").
const char *suggestionLayer(const Suggestion &S);

/// Copies one run's outcome, effort and slice sections from \p Report
/// into \p R (obs/RunReport.h). Identity and quality fields are the
/// caller's job (the corpus sweep knows the mutation ground truth; the
/// CLI knows the file name). \p Telemetry, when non-null, supplies the
/// per-layer candidate tallies; \p WallSeconds and \p CpuNs stamp the
/// run's measured wall-clock and thread CPU.
void fillRunReport(obs::RunReport &R, const SeminalReport &Report,
                   const obs::TelemetrySink *Telemetry = nullptr,
                   double WallSeconds = 0.0, uint64_t CpuNs = 0);

/// Runs search-based error-message generation on a parsed program.
SeminalReport runSeminal(const caml::Program &Prog,
                         const SeminalOptions &Opts = {});

class CheckpointedOracle;

/// Runs one request against a caller-owned (typically long-lived) oracle.
/// This is the server entry point: the oracle keeps its arena, retained
/// session checkpoints and verdict caches across calls, while everything
/// per-request is reset at entry -- the logical-call count (so
/// SearchOptions::MaxOracleCalls budgets each request, not the session)
/// and the AccelCounters (so SeminalReport::Accel describes this request
/// only; accumulate across requests caller-side). Suggestions and
/// verdicts are bit-identical to a one-shot runSeminal with the same
/// options.
SeminalReport runSeminalWithOracle(CheckpointedOracle &TheOracle,
                                   const caml::Program &Prog,
                                   const SeminalOptions &Opts = {});

/// Convenience: parse then run.
SeminalReport runSeminalOnSource(const std::string &Source,
                                 const SeminalOptions &Opts = {});

} // namespace seminal

#endif // SEMINAL_CORE_SEMINAL_H
