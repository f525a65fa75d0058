//===- bench_micro.cpp - Allocation report for the candidate pipeline ----==//
//
// Counts the heap allocations of the searcher's candidate pipeline with
// the operator-new interposer (BenchUtil.h), so a change that brings back
// per-candidate clone traffic shows up as a count, not as noise in a
// timing. Timing lives in perfbench/ (per-layer times, size curves and
// trace_overhead_pct); this binary times nothing.
//
// Usage: bench_micro [--json=<path>] [--scale=<f>] [--seed=<n>]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/CheckpointedOracle.h"
#include "core/Seminal.h"
#include "minicaml/Parser.h"

using namespace seminal;
using namespace seminal::bench;
using namespace seminal::caml;

SEMINAL_BENCH_COUNT_ALLOCATIONS()

namespace {

// Measures the allocator load of the candidate pipeline. The headline
// scenario drives repeated candidate waves at a seeded oracle through the
// serial path the searcher uses (Searcher::testWith: install the
// replacement in place, ask typechecks(), restore) -- the searcher's
// steady state, where the same edited declarations recur across probes,
// siblings and follow-up families. The arena-keyed verdict cache interns
// each edited declaration once and answers every repeat with an integer
// lookup, so the per-candidate cost is a re-intern walk that allocates
// nothing; scripts/check_bench_regression.py gates each scenario's
// allocation count against its committed ceiling.

struct AllocScenario {
  const char *Name;
  AllocReport R;
};

/// One candidate-wave workload: \p Waves rounds of the same 24
/// replacements (each asked twice per wave, so repeats hit the verdict
/// cache) against a prefix-seeded oracle.
AllocReport runCandidateWaves(unsigned Waves) {
  ParseResult P = parseProgram("let helper a b = a + b\n"
                               "let target x = helper x 1\n");
  Program &Work = *P.Prog;

  // Candidate replacements for `target`'s initializer; built outside
  // the measured scope, like the enumerator's candidates are built once
  // per node while the oracle sees them wave after wave.
  std::vector<ExprPtr> Cands;
  for (int I = 0; I < 24; ++I)
    Cands.push_back(makeApp(makeVar("helper"), [&] {
      std::vector<ExprPtr> Args;
      Args.push_back(makeVar("x"));
      Args.push_back(makeIntLit(I));
      return Args;
    }()));

  NodePath Path(1); // Empty Steps: replace the whole initializer.

  CheckpointedOracle O;
  O.seedPrefix(Work, 1);

  size_t Accepted = 0;
  AllocScope Scope;
  for (unsigned W = 0; W < Waves; ++W)
    for (ExprPtr &Cand : Cands)
      for (int Repeat = 0; Repeat < 2; ++Repeat) {
        ExprPtr Old = replaceAtPath(Work, Path, std::move(Cand));
        Accepted += O.typechecks(Work);
        Cand = replaceAtPath(Work, Path, std::move(Old));
      }
  AllocReport R = Scope.finish();
  // Every candidate `helper x I` type-checks.
  if (Accepted != size_t(Waves) * Cands.size() * 2)
    std::fprintf(stderr, "candidate-waves: only %zu candidates accepted\n",
                 Accepted);
  return R;
}

/// End-to-end search allocation footprint (informational: the total is
/// dominated by inference).
AllocReport runSearchScenario() {
  std::string Source =
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n";
  AllocScope Scope;
  SeminalReport R = runSeminalOnSource(Source);
  AllocReport A = Scope.finish();
  if (R.Suggestions.empty())
    std::fprintf(stderr, "search-figure2: no suggestions\n");
  return A;
}

int runAllocReport(const DriverOptions &Driver) {
  if (!allocCountingActive()) {
    std::fprintf(stderr, "allocation interposer not linked?\n");
    return 1;
  }
  const unsigned Waves = 100;

  std::vector<AllocScenario> Rows;
  Rows.push_back({"candidate-waves", runCandidateWaves(Waves)});
  Rows.push_back({"search-figure2", runSearchScenario()});

  header("Allocation report: candidate pipeline");
  std::printf("%-28s %12s %14s\n", "scenario", "allocs", "peak bytes");
  rule();
  for (const AllocScenario &Row : Rows)
    std::printf("%-28s %12llu %14llu\n", Row.Name,
                (unsigned long long)Row.R.Allocs,
                (unsigned long long)Row.R.PeakBytes);
  rule();

  if (!Driver.JsonPath.empty()) {
    std::FILE *F = std::fopen(Driver.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Driver.JsonPath.c_str());
      return 1;
    }
    std::fprintf(F, "{\n  \"bench\": \"micro_allocs\",\n");
    std::fprintf(F, "  \"scale\": %g,\n  \"seed\": %llu,\n", Driver.Scale,
                 (unsigned long long)Driver.Seed);
    std::fprintf(F, "  \"waves\": %u,\n", Waves);
    std::fprintf(F, "  \"scenarios\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"allocs\": %llu, "
                   "\"peak_bytes\": %llu}%s\n",
                   Rows[I].Name, (unsigned long long)Rows[I].R.Allocs,
                   (unsigned long long)Rows[I].R.PeakBytes,
                   I + 1 < Rows.size() ? "," : "");
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", Driver.JsonPath.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  return runAllocReport(parseDriverArgs(Argc, Argv));
}
