//===- Daemon.cpp - daemon_edit: the editor loop through ServerEngine ------==//
//
// Four named sessions, two on each of the engine's two shards, each holding
// a 160-declaration program from the large_program family, primed before
// timing. One generator thread drives them in a closed loop: a session
// sends its next JSONL request only after its reply arrives, like an editor
// plugin. Four of every five requests edit the declaration after the
// failing one, which the retained session state answers (conventional memo,
// prefix probes, seed adoption, verdict reuse); every fifth swaps the
// failing declaration for a fresh seeded mutation, which rewrites that
// state. The workload loads protocol/JSON, parse, interning, session
// retention and shard queueing, and little inference.
//
// A pass is RequestsPerPass requests per session on a freshly primed
// engine, so every pass replays the same requests against the same state.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Verify.h"
#include "Workloads.h"

#include "minicaml/Parser.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

using namespace seminal;
using namespace seminal::server;

namespace perfbench {

namespace {

constexpr unsigned Shards = 2;
constexpr unsigned SessionsPerShard = 2;
/// Requests per session in one pass, after the primer: sixteen swaps, each
/// followed by four edits (two to three seconds).
constexpr unsigned RequestsPerPass = 80;

std::string requestLine(uint64_t Id, const std::string &Session,
                        const std::string &Source) {
  return "{\"id\":" + std::to_string(Id) +
         ",\"method\":\"check\",\"session\":\"" + jsonEscape(Session) +
         "\",\"source\":\"" + jsonEscape(Source) + "\"}";
}

struct Daemon {
  std::vector<EditSession> Sessions;
  std::unique_ptr<ServerEngine> Engine;
  /// Requests per session in a pass (fewer in a count-bounded run).
  uint64_t PassRequests = RequestsPerPass;
};

/// Replaces D's engine with a fresh one and primes every session with its
/// request 0 (a cold check).
void restartEngine(Daemon &D) {
  D.Engine.reset();
  ServerOptions SO;
  SO.Threads = Shards;
  D.Engine = std::make_unique<ServerEngine>(SO);
  for (const EditSession &S : D.Sessions)
    D.Engine->handle(requestLine(0, S.Name, S.source(0)));
}

Daemon setUp(const Options &Opts) {
  Daemon D;
  restartEngine(D);
  std::vector<std::string> Names;
  std::vector<unsigned> PerShard(Shards, 0);
  for (unsigned I = 0; Names.size() < Shards * SessionsPerShard; ++I) {
    std::string Name = "editor-" + std::to_string(I);
    if (PerShard[D.Engine->shardOf(Name)]++ < SessionsPerShard)
      Names.push_back(Name);
  }
  if (Opts.MaxChecks)
    D.PassRequests = std::min<uint64_t>(RequestsPerPass, Opts.MaxChecks);
  D.Sessions =
      daemonEditSessions(Opts.Seed, Names, unsigned(D.PassRequests / 5 + 1));
  restartEngine(D);
  return D;
}

/// One reply.
struct Reply {
  uint32_t Session = 0;
  uint64_t K = 0; ///< Request number within the session.
  /// Fingerprint of the reply's fields, decoded as it arrived so that only
  /// this is kept; none = a malformed or failed response.
  std::optional<uint64_t> Fields;
  double Ms = 0.0;
};

std::pair<uint32_t, uint64_t> position(const Reply &R) {
  return {R.Session, R.K};
}

/// What the daemon must answer, in one comparable string: the fields a
/// check response carries apart from counters and timings.
std::string expectedReply(const SeminalReport &R) {
  std::ostringstream OS;
  OS << R.InputTypechecks << '\x1f'
     << (R.FailingDeclIndex ? int(*R.FailingDeclIndex) : -1) << '\x1f'
     << R.BudgetExhausted << '\x1f'
     << (R.InputTypechecks ? "" : R.conventionalMessage());
  for (size_t I = 0; I < R.Suggestions.size(); ++I) {
    const Suggestion &S = R.Suggestions[I];
    OS << '\x1e' << I + 1 << '\x1f' << changeKindName(S.Kind) << '\x1f'
       << suggestionLayer(S) << '\x1f' << S.Description << '\x1f'
       << S.Path.str() << '\x1f' << renderSuggestion(S);
  }
  return OS.str();
}

/// expectedReply's string read back from a response line, fingerprinted;
/// none when the line is malformed or not a successful check response.
std::optional<uint64_t> decodeReply(const std::string &Line) {
  json::ParseResult P = json::parse(Line);
  if (!P.ok() || P.Doc->member("error") || P.Doc->member("syntax_error"))
    return std::nullopt;
  const json::Value &Doc = *P.Doc;
  const json::Value *Suggestions = Doc.member("suggestions");
  if (!Suggestions || !Suggestions->isArray() ||
      !Doc.member("failing_decl") || !Doc.member("conventional"))
    return std::nullopt;
  std::ostringstream OS;
  OS << Doc.getBool("input_typechecks") << '\x1f'
     << Doc.getInt("failing_decl", -2) << '\x1f'
     << Doc.getBool("budget_exhausted") << '\x1f'
     << Doc.getString("conventional");
  for (const json::Value &S : Suggestions->arrayValue())
    OS << '\x1e' << S.getInt("rank") << '\x1f' << S.getString("kind")
       << '\x1f' << S.getString("layer") << '\x1f'
       << S.getString("description") << '\x1f' << S.getString("path")
       << '\x1f' << S.getString("message");
  return fingerprint(OS.str());
}

/// One pass through the engine in a closed loop: every session keeps
/// exactly one request in flight until it has sent D.PassRequests.
/// \returns the seconds from the first send to the last reply.
double closedLoop(Daemon &D, std::vector<Reply> &Log) {
  struct Completion {
    uint32_t Session;
    std::string Response;
    Clock::time_point At;
  };
  std::mutex M;
  std::condition_variable CV;
  std::deque<Completion> Done;
  std::vector<uint64_t> NextK(D.Sessions.size(), 1);
  std::vector<Clock::time_point> SentAt(D.Sessions.size());
  uint64_t NextId = 1;
  auto Send = [&](uint32_t I) {
    std::string Line = requestLine(NextId++, D.Sessions[I].Name,
                                   D.Sessions[I].source(NextK[I]));
    SentAt[I] = Clock::now();
    D.Engine->submit(Line, [&, I](const std::string &Response) {
      std::lock_guard<std::mutex> Lock(M);
      Done.push_back({I, Response, Clock::now()});
      CV.notify_one();
    });
  };

  Clock::time_point Start = Clock::now(), Last = Start;
  size_t InFlight = 0;
  for (uint32_t I = 0; I < D.Sessions.size(); ++I, ++InFlight)
    Send(I);
  while (InFlight) {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return !Done.empty(); });
    Completion C = std::move(Done.front());
    Done.pop_front();
    Lock.unlock();
    --InFlight;
    Last = C.At;
    double Ms =
        std::chrono::duration<double>(C.At - SentAt[C.Session]).count() * 1e3;
    Log.push_back({C.Session, NextK[C.Session], decodeReply(C.Response), Ms});
    if (++NextK[C.Session] <= D.PassRequests) {
      Send(C.Session);
      ++InFlight;
    }
  }
  // Every reply callback has returned before the locals it uses go away.
  D.Engine->drain();
  return std::chrono::duration<double>(Last - Start).count();
}

/// Engine-side figures over the passes, from ServerStats and the engine's
/// queue-wait histograms (the primers excluded).
struct EngineTotals {
  double QueueUs = 0, Waits = 0, BusySeconds = 0, Served = 0;
};

void addEngineFigures(ServerEngine &E, EngineTotals &T, double Sign) {
  ServerStats Stats = E.stats();
  for (unsigned I = 0; I < Stats.Shards.size(); ++I) {
    LogHistogram &H = E.registry().histogram(
        "seminal_shard_queue_wait_us", "", {{"shard", std::to_string(I)}});
    T.QueueUs += Sign * double(H.sum());
    T.Waits += Sign * double(H.count());
    T.BusySeconds += Sign * Stats.Shards[I].BusySeconds;
    T.Served += Sign * double(Stats.Shards[I].Requests);
  }
}

/// Passes, each on a freshly primed engine, until \p Seconds are up (at
/// least one). \returns the pass durations. \p FirstPassRssMb receives the
/// peak memory when the first pass ends, which later passes only repeat.
std::vector<double> timedPasses(Daemon &D, const Options &Opts,
                                double Seconds, std::vector<Reply> &Log,
                                EngineTotals &Totals, double &FirstPassRssMb) {
  std::vector<double> PassSeconds;
  Clock::time_point Deadline = deadlineAfter(Clock::now(), Seconds);
  do {
    if (!PassSeconds.empty())
      restartEngine(D);
    addEngineFigures(*D.Engine, Totals, -1.0);
    PassSeconds.push_back(closedLoop(D, Log));
    addEngineFigures(*D.Engine, Totals, 1.0);
    if (PassSeconds.size() == 1)
      FirstPassRssMb = peakRssMb();
  } while (!Opts.MaxChecks && Clock::now() < Deadline);
  return PassSeconds;
}

/// Verifies every reply of \p Log; counts failed, found and rank-1 replies.
/// Each distinct request is run one-shot from its exact source, and each
/// variant's one-shot report is fully verified, including against an
/// acceleration-off reference run of its one-copy equivalent.
void verifyReplies(const Daemon &D, const std::vector<Reply> &Log, Window &W,
                   Outcome &O) {
  struct Variant {
    bool Ok = true;
    int Rank = 0;
  };
  LargeProgramGenerator Generator;
  std::map<std::pair<uint32_t, unsigned>, Variant> Variants;
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> Expected;
  std::set<std::string> Reasons;
  for (const Reply &R : Log) {
    const EditSession &S = D.Sessions[R.Session];
    auto Key = std::make_pair(R.Session, S.variantOf(R.K));
    std::string Where = S.Name + " request " + std::to_string(R.K);
    if (!Expected.count(position(R))) {
      SeminalReport One = runSeminalOnSource(S.source(R.K));
      Expected[position(R)] = fingerprint(expectedReply(One));
      if (!Variants.count(Key)) {
        const BenchInput &In = S.Variants[Key.second];
        BenchInput Small = Generator.oneCopyEquivalent(In);
        SeminalReport Ref = plainReference(Small.Source);
        InputCheck C = verifyInput(One, In, &Ref, Small.FailingDecl);
        if (!C.Ok)
          Reasons.insert(Where + ": " + C.Why);
        Variants[Key] = {C.Ok, C.TrueFixRank};
      }
    }
    const Variant &V = Variants[Key];
    bool Bad = !V.Ok;
    if (!R.Fields) {
      Bad = true;
      Reasons.insert(Where + ": malformed or failed response");
    } else if (*R.Fields != Expected[position(R)]) {
      Bad = true;
      Reasons.insert(Where + ": response differs from the one-shot run");
    }
    W.Failed += Bad;
    W.Found += V.Rank > 0;
    W.Rank1 += V.Rank == 1;
  }
  O.Attempted += Log.size();
  O.Failed += W.Failed;
  O.Failures.insert(O.Failures.end(), Reasons.begin(), Reasons.end());
}

} // namespace

void traceServerLayers(const Options &Opts, double Seconds, bool AllLayers,
                       LayerMetrics &M, Outcome &O) {
  Window W;
  Daemon D = setUp(Opts);

  // Part 1: passes through the engine as in the untraced run.
  std::vector<Reply> Log;
  EngineTotals E;
  std::vector<double> PassSeconds =
      timedPasses(D, Opts, Seconds, Log, E, W.PeakRssMb);
  double Elapsed = 0, LatencySum = 0;
  for (double S : PassSeconds)
    Elapsed += S;
  for (const Reply &R : Log)
    LatencySum += R.Ms;
  double QueueMs = E.Waits ? E.QueueUs / E.Waits / 1e3 : 0.0;
  double BusyMs = E.Served ? E.BusySeconds / E.Served * 1e3 : 0.0;
  double LatencyMs = Log.empty() ? 0.0 : LatencySum / double(Log.size());
  M.set("engine.queue_wait_ms", QueueMs);
  M.set("engine.shard_busy_pct",
        Elapsed > 0 ? 100.0 * E.BusySeconds / (Elapsed * Shards) : 0.0);

  // Part 2: the same passes on the benchmark's own Session objects, one
  // request at a time, timing parseRequest, Session::check and
  // renderCheckResponse from outside.
  double Protocol = 0, Checking = 0, InsideChecks = 0, Parse = 0,
         ParsedBytes = 0;
  uint64_t Requests = 0, Evictions = 0, Calls = 0, Inferences = 0;
  uint64_t RetainedBytes = 0;
  AccelCounters Accel;
  std::vector<double> HitMs, MissMs;
  auto Sec = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double>(B - A).count();
  };
  Clock::time_point Deadline = deadlineAfter(Clock::now(), Seconds);
  do {
    std::vector<std::unique_ptr<Session>> Own;
    for (const EditSession &S : D.Sessions) {
      Own.push_back(std::make_unique<Session>(S.Name, SessionConfig()));
      Own.back()->check(S.source(0), CheckOptions());
    }
    std::vector<uint64_t> ArenaBytes(Own.size(), 0);
    for (uint64_t K = 1; K <= D.PassRequests; ++K) {
      for (uint32_t I = 0; I < D.Sessions.size(); ++I) {
        const EditSession &S = D.Sessions[I];
        std::string Line = requestLine(K, S.Name, S.source(K));
        Clock::time_point T0 = Clock::now();
        Request Rq = parseRequest(Line);
        Clock::time_point T1 = Clock::now();
        CheckOutcome Out = Own[I]->check(Rq.Source, CheckOptions());
        Clock::time_point T2 = Clock::now();
        std::string Response = renderCheckResponse(Rq.Id, Out);
        Clock::time_point T3 = Clock::now();
        caml::ParseResult PR = caml::parseProgram(Rq.Source);
        Parse += secondsSince(T3);
        ParsedBytes += double(Rq.Source.size());

        Protocol += Sec(T0, T1) + Sec(T2, T3);
        Checking += Sec(T1, T2);
        InsideChecks += Out.WallSeconds;
        (S.isMiss(K) ? MissMs : HitMs).push_back(Sec(T1, T2) * 1e3);
        ++Requests;
        Evictions += Out.Evicted;
        Calls += Out.OracleCalls;
        Inferences += Out.InferenceRuns;
        Accel += Out.Accel;
        ArenaBytes[I] = Out.ArenaBytes;
        Log.push_back({I, K, decodeReply(Response), Sec(T0, T3) * 1e3});
      }
    }
    RetainedBytes = 0;
    for (uint64_t B : ArenaBytes)
      RetainedBytes += B;
  } while (!Opts.MaxChecks && Clock::now() < Deadline);
  verifyReplies(D, Log, W, O);

  double N = Requests ? double(Requests) : 1.0;
  double ProtocolUs = Protocol / N * 1e6;
  M.set("protocol.us_per_request", ProtocolUs);
  M.set("session.ms_per_check", Checking / N * 1e3);
  M.set("session.prefix_hits", double(Accel.SessionPrefixHits) / N);
  M.set("session.verdict_reuses", double(Accel.SessionVerdictReuses) / N);
  M.set("session.seed_adoptions", double(Accel.SessionSeedAdoptions) / N);
  M.set("session.conv_memo_hits", double(Accel.SessionConvMemoHits) / N);
  M.set("session.evictions", double(Evictions));
  M.set("session.arena_bytes", double(RetainedBytes));
  M.set("edit.hit_p50_ms", median(HitMs));
  M.set("edit.miss_p50_ms", median(MissMs));
  if (!AllLayers)
    return;
  M.set("parse.ms_per_check", Parse / N * 1e3);
  M.set("parse.kb_per_ms", Parse > 0 ? ParsedBytes / 1024 / (Parse * 1e3) : 0);
  reportOracleCounts(Accel, Calls, Inferences, Requests, M);
  // The share of the engine's reply latency outside queueing, the shard's
  // busy time (Session::check) and the protocol work.
  M.set("unattributed_pct",
        LatencyMs > 0
            ? 100.0 * (LatencyMs - QueueMs - BusyMs - ProtocolUs / 1e3) /
                  LatencyMs
            : 0.0);
  // The outside timers' cost: Session::check timed from outside against
  // the wall time the session measures itself.
  M.set("trace_overhead_pct",
        InsideChecks > 0 ? 100.0 * (Checking / InsideChecks - 1) : 0.0);
}

Outcome runDaemonEdit(const Options &Opts) {
  Outcome O;
  if (Opts.Trace) {
    LayerMetrics M;
    traceServerLayers(Opts, Opts.Seconds / 2, /*AllLayers=*/true, M, O);
    M.report(O.Metrics);
    return O;
  }
  Window W;
  Daemon D;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    D = Daemon();
    Clock::time_point Start = Clock::now();
    D = setUp(Opts);
    W.SetupSeconds.push_back(secondsSince(Start));
  }

  std::vector<Reply> Log;
  EngineTotals Unused;
  std::vector<double> PassSeconds =
      timedPasses(D, Opts, Opts.Seconds, Log, Unused, W.PeakRssMb);
  for (double S : PassSeconds)
    W.Seconds += S;
  W.Passes = PassSeconds.size();
  W.Checks = Log.size();
  W.PassChecks = W.Passes ? W.Checks / W.Passes : 1;
  std::vector<std::pair<uint32_t, uint64_t>> Positions;
  for (const Reply &R : Log) {
    Positions.push_back(position(R));
    W.AllMs.push_back(R.Ms);
  }
  W.BestMs = bestPerPosition(Positions, W.AllMs);
  std::vector<double> HitMs, MissMs;
  for (const Reply &R : Log)
    (D.Sessions[R.Session].isMiss(R.K) ? MissMs : HitMs).push_back(R.Ms);
  verifyReplies(D, Log, W, O);
  reportEndToEnd(W, O.Metrics);
  std::printf("  edits: median %.3f ms over %zu; swaps: median %.3f ms over "
              "%zu\n",
              median(HitMs), HitMs.size(), median(MissMs), MissMs.size());
  return O;
}

} // namespace perfbench
