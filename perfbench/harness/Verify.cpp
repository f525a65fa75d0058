//===- Verify.cpp - Output checks run outside the timed window -------------==//

#include "Verify.h"

#include "core/Oracle.h"
#include "core/Ranker.h"
#include "core/Searcher.h"
#include "eval/Judge.h"
#include "minicaml/Infer.h"
#include "minicaml/Parser.h"

#include <functional>
#include <sstream>

using namespace seminal;

namespace perfbench {

std::string renderRankedList(const SeminalReport &R, unsigned FailingDecl) {
  std::ostringstream OS;
  for (size_t I = 0; I < R.Suggestions.size(); ++I) {
    const Suggestion &S = R.Suggestions[I];
    OS << I + 1 << '|' << changeKindName(S.Kind) << '|' << suggestionLayer(S)
       << '|' << S.Description << "|decl+"
       << int(S.Path.DeclIndex) - int(FailingDecl);
    for (unsigned Step : S.Path.Steps)
      OS << '.' << Step;
    OS << '|' << renderSuggestion(S) << '\n';
  }
  return OS.str();
}

std::string renderOutput(const SeminalReport &R) {
  if (R.SyntaxError)
    return "syntax error: " + R.SyntaxError->str();
  if (R.InputTypechecks)
    return "no type errors";
  unsigned Failing = R.FailingDeclIndex ? *R.FailingDeclIndex : 0;
  return R.conventionalMessage() + "\n" + renderRankedList(R, Failing);
}

uint64_t fingerprint(const std::string &Output) {
  return std::hash<std::string>()(Output);
}

SeminalReport plainReference(const std::string &Source) {
  SeminalReport R;
  caml::ParseResult P = caml::parseProgram(Source);
  if (!P.ok()) {
    R.SyntaxError = P.Error;
    return R;
  }
  SeminalOptions Opts;
  CamlOracle Oracle;
  R.CheckerError = Oracle.conventionalError(*P.Prog);
  Searcher S(Oracle, Opts.Search);
  SearchOutput Out = S.run(*P.Prog);
  R.InputTypechecks = Out.InputTypechecks;
  R.FailingDeclIndex = Out.FailingDecl;
  R.BudgetExhausted = Out.BudgetExhausted;
  R.Suggestions = std::move(Out.Suggestions);
  rankSuggestions(R.Suggestions);
  if (R.Suggestions.size() > Opts.MaxSuggestions)
    R.Suggestions.resize(Opts.MaxSuggestions);
  R.OracleCalls = Oracle.logicalCalls();
  R.InferenceRuns = Oracle.inferenceRuns();
  return R;
}

InputCheck verifyInput(const SeminalReport &R, const BenchInput &In,
                       const SeminalReport *Reference,
                       unsigned ReferenceFailingDecl) {
  InputCheck C;
  auto Fail = [&](const std::string &Why) {
    if (C.Ok)
      C.Why = Why;
    C.Ok = false;
  };
  if (R.SyntaxError)
    Fail("syntax error on a generated input: " + R.SyntaxError->str());
  else if (R.InputTypechecks)
    Fail("ill-typed input reported as type-correct");
  else if (!R.FailingDeclIndex || *R.FailingDeclIndex != In.FailingDecl)
    Fail("wrong failing declaration");
  if (R.BudgetExhausted)
    Fail("oracle budget exhausted");
  if (R.Suggestions.empty())
    Fail("no suggestion");
  else if (!caml::typecheckProgram(R.Suggestions.front().Modified.get()).ok())
    Fail("top suggestion's program does not type-check");
  if (Reference && (Reference->SyntaxError || Reference->BudgetExhausted))
    Fail("reference run failed");
  else if (Reference && renderRankedList(R, In.FailingDecl) !=
                            renderRankedList(*Reference, ReferenceFailingDecl))
    Fail("ranked list differs from the acceleration-off reference");
  C.TrueFixRank = rankOfTrueFix(R, In.Truths);
  return C;
}

} // namespace perfbench
