//===- Traced.cpp - Per-layer timing from outside the system ---------------==//

#include "Traced.h"

#include "Verify.h"

#include "analysis/Slice.h"
#include "core/Ranker.h"
#include "core/Searcher.h"
#include "minicaml/Parser.h"

#include <cstring>
#include <memory>

using namespace seminal;

namespace perfbench {

double TimedOracle::oracleSeconds() const {
  double S = 0.0;
  for (const LayerTime &L : ByLayer)
    S += L.Seconds;
  return S;
}

void TimedOracle::charge(Clock::time_point Start) {
  double Elapsed = secondsSince(Start);
  const char *Layer = traceCurrentLayer();
  size_t I = 0;
  while (I + 1 < OracleLayers.size() && std::strcmp(Layer, OracleLayers[I]))
    ++I;
  ByLayer[I].Calls += 1;
  ByLayer[I].Seconds += Elapsed;
}

std::optional<caml::TypeError>
TimedOracle::conventionalError(const caml::Program &Prog) {
  Clock::time_point Start = Clock::now();
  std::optional<caml::TypeError> E =
      CheckpointedOracle::conventionalError(Prog);
  ConvSeconds += secondsSince(Start);
  return E;
}

bool TimedOracle::typecheckImpl(const caml::Program &Prog) {
  Clock::time_point Start = Clock::now();
  bool Verdict = CheckpointedOracle::typecheckImpl(Prog);
  charge(Start);
  return Verdict;
}

std::optional<std::string>
TimedOracle::typeOfNodeImpl(const caml::Program &Prog,
                            const caml::Expr *Node) {
  Clock::time_point Start = Clock::now();
  std::optional<std::string> T = CheckpointedOracle::typeOfNodeImpl(Prog, Node);
  charge(Start);
  return T;
}

LayerTotals &LayerTotals::operator+=(const LayerTotals &O) {
  Checks += O.Checks;
  Wall += O.Wall;
  Parse += O.Parse;
  ParsedBytes += O.ParsedBytes;
  OracleSetup += O.OracleSetup;
  Conv += O.Conv;
  Search += O.Search;
  SearchOracle += O.SearchOracle;
  Rank += O.Rank;
  Render += O.Render;
  for (size_t I = 0; I < ByLayer.size(); ++I) {
    ByLayer[I].Calls += O.ByLayer[I].Calls;
    ByLayer[I].Seconds += O.ByLayer[I].Seconds;
  }
  LogicalCalls += O.LogicalCalls;
  InferenceRuns += O.InferenceRuns;
  Accel += O.Accel;
  Slice += O.Slice;
  SlicePrunedCalls += O.SlicePrunedCalls;
  return *this;
}

std::string tracedCheck(const std::string &Source, LayerTotals &T) {
  Clock::time_point Start = Clock::now();
  SeminalOptions Opts;

  Clock::time_point Step = Clock::now();
  caml::ParseResult P = caml::parseProgram(Source);
  T.Parse += secondsSince(Step);
  T.ParsedBytes += double(Source.size());
  if (!P.ok()) {
    SeminalReport R;
    R.SyntaxError = P.Error;
    return renderOutput(R);
  }

  Step = Clock::now();
  auto Oracle = std::make_unique<TimedOracle>();
  T.OracleSetup += secondsSince(Step);

  SeminalReport R;
  R.CheckerError = Oracle->conventionalError(*P.Prog);

  Step = Clock::now();
  auto S = std::make_unique<Searcher>(*Oracle, Opts.Search, Oracle->arena());
  SearchOutput Out = S->run(*P.Prog);
  T.Search += secondsSince(Step);
  R.InputTypechecks = Out.InputTypechecks;
  R.FailingDeclIndex = Out.FailingDecl;
  R.BudgetExhausted = Out.BudgetExhausted;
  R.Suggestions = std::move(Out.Suggestions);

  Step = Clock::now();
  rankSuggestions(R.Suggestions);
  if (R.Suggestions.size() > Opts.MaxSuggestions)
    R.Suggestions.resize(Opts.MaxSuggestions);
  T.Rank += secondsSince(Step);

  Step = Clock::now();
  std::string Output = renderOutput(R);
  T.Render += secondsSince(Step);

  T.Conv += Oracle->ConvSeconds;
  T.SearchOracle += Oracle->oracleSeconds();
  for (size_t I = 0; I < OracleLayers.size(); ++I) {
    T.ByLayer[I].Calls += Oracle->ByLayer[I].Calls;
    T.ByLayer[I].Seconds += Oracle->ByLayer[I].Seconds;
  }
  T.LogicalCalls += Oracle->logicalCalls();
  T.InferenceRuns += Oracle->inferenceRuns();
  T.Accel += Oracle->counters();

  // Suggestions keep the oracle's arena alive; drop them with the oracle.
  Step = Clock::now();
  R = SeminalReport();
  S.reset();
  Oracle.reset();
  T.OracleSetup += secondsSince(Step);

  T.Wall += secondsSince(Start);
  ++T.Checks;
  return Output;
}

void sliceSideMeasurement(const std::string &Source, LayerTotals &T) {
  caml::ParseResult P = caml::parseProgram(Source);
  if (!P.ok())
    return;
  caml::TypecheckResult TR = caml::typecheckProgram(*P.Prog);
  if (TR.ok() || !TR.ErrorDeclIndex)
    return;
  Clock::time_point Start = Clock::now();
  analysis::ErrorSlice Slice =
      analysis::computeErrorSlice(*P.Prog, *TR.ErrorDeclIndex);
  T.Slice += secondsSince(Start);
  SeminalOptions Guided;
  Guided.Search.SliceGuided = true;
  T.SlicePrunedCalls += runSeminal(*P.Prog, Guided).SlicePrunedCalls;
}

} // namespace perfbench
