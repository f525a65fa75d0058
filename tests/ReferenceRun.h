//===- ReferenceRun.h - Acceleration-free reference search ------*- C++ -*-==//
//
// The plain reference the identity tests compare the accelerated oracle
// against: CamlOracle (one full inference per question) driving a
// Searcher with no arena, ranked and truncated exactly as runSeminal
// ranks. It shares no code with CheckpointedOracle or the arena, so a
// byte-identical fingerprint means the acceleration layer is invisible.
//
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_TESTS_REFERENCERUN_H
#define SEMINAL_TESTS_REFERENCERUN_H

#include "core/Oracle.h"
#include "core/Ranker.h"
#include "core/Searcher.h"
#include "core/Seminal.h"
#include "minicaml/Parser.h"

#include <string>

namespace seminal {

inline SeminalReport plainReference(const caml::Program &Prog,
                                    const SeminalOptions &Opts = {}) {
  SeminalReport R;
  CamlOracle Oracle;
  R.CheckerError = Oracle.conventionalError(Prog);
  Searcher S(Oracle, Opts.Search);
  SearchOutput Out = S.run(Prog);
  R.InputTypechecks = Out.InputTypechecks;
  R.FailingDeclIndex = Out.FailingDecl;
  R.BudgetExhausted = Out.BudgetExhausted;
  R.SlicePrunedCalls = Out.slicePrunedCalls();
  R.Slice = std::move(Out.Slice);
  R.Suggestions = std::move(Out.Suggestions);
  rankSuggestions(R.Suggestions);
  if (R.Suggestions.size() > Opts.MaxSuggestions)
    R.Suggestions.resize(Opts.MaxSuggestions);
  R.OracleCalls = Oracle.logicalCalls();
  R.InferenceRuns = Oracle.inferenceRuns();
  return R;
}

inline SeminalReport plainReferenceOnSource(const std::string &Source,
                                            const SeminalOptions &Opts = {}) {
  caml::ParseResult P = caml::parseProgram(Source);
  if (!P.ok()) {
    SeminalReport R;
    R.SyntaxError = P.Error;
    return R;
  }
  return plainReference(*P.Prog, Opts);
}

} // namespace seminal

#endif // SEMINAL_TESTS_REFERENCERUN_H
