//===- OneShot.cpp - corpus_sweep and large_program ------------------------==//
//
// Both workloads are one client on one thread in a closed loop, checking
// one program at a time one-shot (runSeminalOnSource: a fresh oracle per
// check) and repeating one pass over the seeded inputs until the window
// closes. They load parse, the conventional check, localization, every
// search layer, ranking and rendering, and bypass the daemon entirely.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Traced.h"
#include "Verify.h"
#include "Workloads.h"

#include <map>
#include <memory>
#include <set>

using namespace seminal;

namespace perfbench {

namespace {

struct Inputs {
  std::vector<BenchInput> List;
  /// large_program only: builds the small equivalents the acceleration-off
  /// reference runs on.
  std::unique_ptr<LargeProgramGenerator> Generator;
};

Inputs setUp(const Options &Opts) {
  Inputs In;
  if (Opts.Workload == "corpus_sweep") {
    In.List = corpusSweepInputs(Opts.Seed);
  } else {
    In.List = largeProgramInputs(Opts.Seed);
    In.Generator = std::make_unique<LargeProgramGenerator>();
  }
  return In;
}

/// One timed check.
struct Done {
  uint32_t Input = 0;
  uint64_t Fingerprint = 0;
  bool Threw = false;
  double Ms = 0.0;
};

/// A window runs until its deadline and at least one whole pass, or for
/// Opts.MaxChecks checks when that is set.
bool windowOpen(const Options &Opts, Clock::time_point Deadline,
                uint64_t Checks, size_t PassSize) {
  if (Opts.MaxChecks)
    return Checks < Opts.MaxChecks;
  return Checks < PassSize || Clock::now() < Deadline;
}

/// Untraced passes over the inputs for \p Seconds; \returns the elapsed
/// seconds. \p FirstPassRssMb receives the peak memory when the first pass
/// ends, which later passes only repeat.
double timedPasses(const Inputs &In, const Options &Opts, double Seconds,
                   std::vector<Done> &Log, double &FirstPassRssMb) {
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline = deadlineAfter(Start, Seconds);
  for (uint64_t K = 0; windowOpen(Opts, Deadline, K, In.List.size()); ++K) {
    Done D;
    D.Input = uint32_t(K % In.List.size());
    Clock::time_point T0 = Clock::now();
    std::string Output;
    try {
      SeminalReport R = runSeminalOnSource(In.List[D.Input].Source);
      Output = renderOutput(R);
    } catch (const std::exception &) {
      D.Threw = true;
    }
    D.Ms = secondsSince(T0) * 1e3;
    D.Fingerprint = fingerprint(Output);
    Log.push_back(D);
    if (Log.size() == In.List.size())
      FirstPassRssMb = peakRssMb();
  }
  if (Log.size() < In.List.size())
    FirstPassRssMb = peakRssMb();
  return secondsSince(Start);
}

/// Re-derives each distinct input's output once and verifies it; counts
/// failed, found and rank-1 checks of \p Log into \p W.
void verifyLog(const Inputs &In, const std::vector<Done> &Log, Window &W,
               Outcome &O) {
  struct Verdict {
    bool Ok = true;
    uint64_t Fingerprint = 0;
    int Rank = 0;
  };
  std::map<uint32_t, Verdict> ByInput;
  std::set<std::string> Reasons;
  for (const Done &D : Log) {
    if (ByInput.count(D.Input))
      continue;
    const BenchInput &Input = In.List[D.Input];
    Verdict V;
    try {
      SeminalReport R = runSeminalOnSource(Input.Source);
      V.Fingerprint = fingerprint(renderOutput(R));
      BenchInput RefInput =
          In.Generator ? In.Generator->oneCopyEquivalent(Input) : Input;
      SeminalReport Ref = plainReference(RefInput.Source);
      InputCheck C = verifyInput(R, Input, &Ref, RefInput.FailingDecl);
      if (C.Ok && RefInput.Source == Input.Source &&
          R.OracleCalls != Ref.OracleCalls) {
        C.Ok = false;
        C.Why = "logical oracle calls differ from the reference";
      }
      V.Ok = C.Ok;
      V.Rank = C.TrueFixRank;
      if (!C.Ok)
        Reasons.insert("input " + std::to_string(D.Input) + ": " + C.Why);
    } catch (const std::exception &E) {
      V.Ok = false;
      Reasons.insert("input " + std::to_string(D.Input) + ": " + E.what());
    }
    ByInput[D.Input] = V;
  }
  for (const Done &D : Log) {
    const Verdict &V = ByInput[D.Input];
    bool Bad = D.Threw || !V.Ok || D.Fingerprint != V.Fingerprint;
    if (Bad && V.Ok)
      Reasons.insert("input " + std::to_string(D.Input) +
                     ": a timed check's output differs from its re-run");
    W.Failed += Bad;
    W.Found += V.Rank > 0;
    W.Rank1 += V.Rank == 1;
  }
  O.Attempted += Log.size();
  O.Failed += W.Failed;
  O.Failures.insert(O.Failures.end(), Reasons.begin(), Reasons.end());
}

void reportTotals(const LayerTotals &T, LayerMetrics &M) {
  double N = T.Checks ? double(T.Checks) : 1.0;
  double Calls = T.LogicalCalls ? double(T.LogicalCalls) : 1.0;
  M.set("parse.ms_per_check", T.Parse / N * 1e3);
  M.set("parse.kb_per_ms", T.Parse > 0 ? T.ParsedBytes / 1024 / (T.Parse * 1e3)
                                       : 0.0);
  for (size_t I = 0; I + 1 < OracleLayers.size(); ++I) {
    std::string P = std::string("oracle.") + OracleLayers[I];
    M.set(P + ".calls", double(T.ByLayer[I].Calls) / N);
    M.set(P + ".ms", T.ByLayer[I].Seconds / N * 1e3);
  }
  M.set("conv.ms_per_check", T.Conv / N * 1e3);
  M.set("oracle.setup_us", T.OracleSetup / N * 1e6);
  M.set("oracle.us_per_call", T.SearchOracle / Calls * 1e6);
  reportOracleCounts(T.Accel, T.LogicalCalls, T.InferenceRuns, T.Checks, M);
  M.set("search.ms_per_check", T.Search / N * 1e3);
  M.set("search.self_ms_per_check", (T.Search - T.SearchOracle) / N * 1e3);
  M.set("rank.us_per_check", T.Rank / N * 1e6);
  M.set("render.us_per_check", T.Render / N * 1e6);
  double Covered =
      T.Parse + T.OracleSetup + T.Conv + T.Search + T.Rank + T.Render;
  M.set("unattributed_pct", T.Wall > 0 ? 100.0 * (T.Wall - Covered) / T.Wall
                                       : 0.0);
}

Outcome runTraced(const Options &Opts) {
  Outcome O;
  Inputs In = setUp(Opts);
  Window W;

  // Half the window untraced, half traced, both from input 0, so the
  // tracing overhead compares the same inputs. large_program gives half of
  // its window to the daemon_edit layers instead: the daemon's sessions
  // hold programs of the same family, and this keeps the server layers
  // measured by a workload whose end-to-end figures are steady.
  double Phase = In.Generator ? Opts.Seconds / 4 : Opts.Seconds / 2;
  std::vector<Done> Untraced;
  timedPasses(In, Opts, Phase, Untraced, W.PeakRssMb);

  LayerTotals Totals;
  std::map<unsigned, LayerTotals> BySize;
  std::vector<Done> Traced;
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline = deadlineAfter(Start, Phase);
  for (uint64_t K = 0; windowOpen(Opts, Deadline, K, In.List.size()); ++K) {
    Done D;
    D.Input = uint32_t(K % In.List.size());
    const BenchInput &Input = In.List[D.Input];
    LayerTotals One;
    std::string Output;
    try {
      Output = tracedCheck(Input.Source, One);
    } catch (const std::exception &) {
      D.Threw = true;
    }
    D.Ms = One.Wall * 1e3;
    D.Fingerprint = fingerprint(Output);
    Traced.push_back(D);
    Totals += One;
    if (In.Generator)
      BySize[Input.Decls] += One;
  }

  // Slice side measurement, once per distinct traced input.
  std::set<uint32_t> Seen;
  LayerTotals SliceTotals;
  for (const Done &D : Traced)
    if (Seen.insert(D.Input).second)
      sliceSideMeasurement(In.List[D.Input].Source, SliceTotals);

  std::vector<Done> All = Untraced;
  All.insert(All.end(), Traced.begin(), Traced.end());
  verifyLog(In, All, W, O);

  LayerMetrics M;
  reportTotals(Totals, M);
  double NSlices = Seen.empty() ? 1.0 : double(Seen.size());
  M.set("slice.ms_per_check", SliceTotals.Slice / NSlices * 1e3);
  M.set("slice.pruned_calls", double(SliceTotals.SlicePrunedCalls) / NSlices);
  for (const auto &[Decls, T] : BySize) {
    std::string P = "size." + std::to_string(Decls) + ".";
    double N = T.Checks ? double(T.Checks) : 1.0;
    M.set(P + "check_ms", T.Wall / N * 1e3);
    M.set(P + "us_per_oracle_call",
          T.LogicalCalls ? T.SearchOracle / double(T.LogicalCalls) * 1e6 : 0);
    M.set(P + "logical_calls", double(T.LogicalCalls) / N);
  }

  // Overhead: traced time per check against the untraced mean of the same
  // input, over inputs both halves reached.
  std::map<uint32_t, std::pair<double, unsigned>> UntracedMs;
  for (const Done &D : Untraced) {
    UntracedMs[D.Input].first += D.Ms;
    UntracedMs[D.Input].second += 1;
  }
  double TracedSum = 0, UntracedSum = 0;
  for (const Done &D : Traced) {
    auto It = UntracedMs.find(D.Input);
    if (It == UntracedMs.end())
      continue;
    TracedSum += D.Ms;
    UntracedSum += It->second.first / It->second.second;
  }
  M.set("trace_overhead_pct",
        UntracedSum > 0 ? 100.0 * (TracedSum / UntracedSum - 1) : 0.0);
  if (In.Generator)
    traceServerLayers(Opts, Phase, /*AllLayers=*/false, M, O);
  M.report(O.Metrics);
  return O;
}

} // namespace

Outcome runOneShot(const Options &Opts) {
  if (Opts.Trace)
    return runTraced(Opts);
  Outcome O;
  Window W;
  Inputs In;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    In = Inputs();
    Clock::time_point Start = Clock::now();
    In = setUp(Opts);
    W.SetupSeconds.push_back(secondsSince(Start));
  }

  std::vector<Done> Log;
  W.Seconds = timedPasses(In, Opts, Opts.Seconds, Log, W.PeakRssMb);
  W.Checks = Log.size();
  W.PassChecks = In.List.size();
  W.Passes = (Log.size() + In.List.size() - 1) / In.List.size();
  std::vector<uint32_t> Positions;
  for (const Done &D : Log) {
    Positions.push_back(D.Input);
    W.AllMs.push_back(D.Ms);
  }
  W.BestMs = bestPerPosition(Positions, W.AllMs);

  verifyLog(In, Log, W, O);
  reportEndToEnd(W, O.Metrics);
  if (In.Generator) {
    // The size curve, for reading along (the per-layer run reports it).
    std::map<unsigned, std::vector<double>> BySize;
    for (const Done &D : Log)
      BySize[In.List[D.Input].Decls].push_back(D.Ms);
    for (const auto &[Decls, Times] : BySize)
      std::printf("  size %4u decls: median %.3f ms over %zu checks\n", Decls,
                  median(Times), Times.size());
  }
  return O;
}

} // namespace perfbench
