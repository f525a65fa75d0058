//===- Session.cpp - One client's warm search state --------------------------==//

#include "server/Session.h"

#include "core/CheckpointedOracle.h"
#include "core/Message.h"
#include "minicaml/Hash.h"
#include "minicaml/Parser.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <chrono>
#include <sstream>

using namespace seminal;
using namespace seminal::server;

Session::Session(std::string Name, const SessionConfig &Config)
    : Name(std::move(Name)), Config(Config) {
  rebuildOracle();
}

Session::~Session() = default;

void Session::rebuildOracle() {
  std::shared_ptr<caml::AstArena> Arena;
  if (Oracle) {
    Arena = Oracle->arena();
    Oracle.reset();
    // Reuse the node storage when nothing else holds an id into it;
    // otherwise start a fresh arena and let the old one die with its
    // last holder (ids must stay valid for whoever kept them).
    if (Arena.use_count() == 1)
      Arena->clear();
    else
      Arena = std::make_shared<caml::AstArena>();
  } else {
    Arena = std::make_shared<caml::AstArena>();
  }
  Oracle = std::make_unique<CheckpointedOracle>(Arena);
  Oracle->setSessionRetention(true);
}

void Session::reset() { rebuildOracle(); }

CheckOutcome Session::check(const std::string &Source,
                            const CheckOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  // The ledger's CPU figure is a thread-CPU clock delta: the session is
  // pinned to one shard worker, so everything the check burns lands on
  // this thread and nothing else does (DESIGN.md section 16).
  uint64_t CpuStart = prof::threadCpuNs();
  CheckOutcome Out;
  ++Checks;

  caml::ParseResult PR = caml::parseProgram(Source);
  if (!PR.ok()) {
    // A syntax error is a normal outcome; warm state stays valid for the
    // next (hopefully parseable) resubmit.
    Out.SyntaxError = PR.Error->str();
    return Out;
  }

  SeminalOptions RunOpts = Config.Base;
  if (Opts.MaxSuggestions)
    RunOpts.MaxSuggestions = Opts.MaxSuggestions;
  if (Opts.MaxOracleCalls)
    RunOpts.Search.MaxOracleCalls = Opts.MaxOracleCalls;

  // Tail sampling: record every request when enabled, export only the
  // slow ones (the decision needs the wall time, which exists only
  // after the fact). Tracing is observational, so attaching the sink
  // cannot change the outcome.
  bool WantSlowTrace = Config.TraceSlowMs >= 0.0 && Config.SlowTraces;
  std::unique_ptr<TraceSink> Sink;
  if (WantSlowTrace) {
    Sink = std::make_unique<TraceSink>();
    RunOpts.Search.Trace = Sink.get();
  }

  // Announce the raw text so the oracle's cross-request conventional
  // memo can prove byte-prefix validity, then run against the warm
  // oracle. runSeminalWithOracle resets the call count and counters, so
  // everything the report carries is this request's.
  Oracle->primeConventional(Source);
  SeminalReport R = runSeminalWithOracle(*Oracle, *PR.Prog, RunOpts);

  Out.InputTypechecks = R.InputTypechecks;
  Out.FailingDecl = R.FailingDeclIndex ? int(*R.FailingDeclIndex) : -1;
  Out.BudgetExhausted = R.BudgetExhausted;
  if (!R.InputTypechecks)
    Out.Conventional = R.conventionalMessage();
  Out.Suggestions.reserve(R.Suggestions.size());
  for (size_t I = 0; I < R.Suggestions.size(); ++I) {
    const Suggestion &S = R.Suggestions[I];
    CheckOutcome::RenderedSuggestion RS;
    RS.Rank = int(I) + 1;
    RS.Kind = changeKindName(S.Kind);
    RS.Layer = suggestionLayer(S);
    RS.Description = S.Description;
    RS.Path = S.Path.str();
    RS.Message = renderSuggestion(S, RunOpts.Message);
    Out.Suggestions.push_back(std::move(RS));
  }
  Out.OracleCalls = R.OracleCalls;
  Out.InferenceRuns = R.InferenceRuns;
  Out.Accel = R.Accel;
  Out.WallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  Out.CpuNs = prof::threadCpuNs() - CpuStart;

  if (Opts.WantReport) {
    obs::RunReport Run;
    Run.ProgramId = Name + "#" + std::to_string(Checks);
    Run.SourceHash = caml::hashProgram(*PR.Prog);
    fillRunReport(Run, R, /*Telemetry=*/nullptr, Out.WallSeconds, Out.CpuNs);
    std::ostringstream OS;
    Run.writeJson(OS);
    Out.ReportJson = OS.str();
  }

  // Eviction check. Suggestions hold lazily-materialized programs that
  // reference the arena; drop the report (everything the response needs
  // is already rendered into Out) before deciding, so an in-place clear
  // is possible.
  R = SeminalReport();
  if (Oracle->arena()->stats().Bytes > Config.ArenaEvictBytes) {
    rebuildOracle();
    Out.Evicted = true;
  }
  Out.ArenaBytes = Oracle->arena()->stats().Bytes;

  if (WantSlowTrace && Out.WallSeconds * 1000.0 >= Config.TraceSlowMs)
    Out.SlowTracePath = Config.SlowTraces->capture(Opts.RequestId, *Sink);
  return Out;
}
