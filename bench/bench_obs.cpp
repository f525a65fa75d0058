//===- bench_obs.cpp - Observability overhead measurements -----------------==//
//
// Prices the live-observability layer (DESIGN.md section 14) so the
// "<1% on the warm path" budget is a measured number, not a hope. Two
// sections:
//
//   * instrument microcosts: ns per LogHistogram::record, per counter
//     inc, per suppressed log event, and per registry scrape while
//     records are flowing.
//   * end-to-end warm p50: the warm edit-resubmit loop over the editor
//     program (tests/EditorProgram.h) run through a ServerEngine under
//     increasing observability configs -- registry only (always on),
//     + info logging, + tail tracing with a threshold nothing crosses,
//     + capture-everything tracing, + the profiler off/at 99 Hz. The overhead_pct numbers compare each
//     config's CPU per check against the registry-only baseline.
//   * profiler pricing model: per-primitive micro-costs (hook pair off /
//     on / CPU-stamped, sampler tick) times the measured spans-per-check
//     of this workload. This is what CI gates against the section 16
//     budgets, because the budgets sit below the end-to-end noise floor.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "EditorProgram.h"

#include "obs/Log.h"
#include "obs/OpsRegistry.h"
#include "obs/SlowTraceRing.h"
#include "server/Server.h"
#include "support/Histogram.h"
#include "support/Profiler.h"
#include "support/Trace.h" // jsonEscape

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace seminal;
using namespace seminal::bench;
using namespace seminal::server;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t Index = size_t(P * double(Samples.size() - 1) + 0.5);
  return Samples[std::min(Index, Samples.size() - 1)];
}

/// Times \p Body over \p Iters calls and returns ns per call. The
/// returned accumulator value keeps the loop observable.
template <typename Fn> double nsPerOp(size_t Iters, Fn &&Body) {
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Iters; ++I)
    Body(I);
  double Ms = msSince(Start);
  return Ms * 1e6 / double(Iters);
}

struct ConfigRow {
  std::string Name;
  double WarmP50Ms = 0.0;
  double WarmP95Ms = 0.0;
  double CpuPerCheckUs = 0.0;
  double OverheadPct = 0.0;
};

/// Runs the warm edit-resubmit loop under one observability config and
/// returns its latency profile.
ConfigRow measureConfig(const std::string &Name, size_t Decls,
                        size_t Iterations, obs::Logger *Log,
                        obs::SlowTraceRing *Ring, double TraceSlowMs) {
  ServerOptions SO;
  SO.Threads = 1; // One shard: measure the request path, not scheduling.
  SO.Log = Log;
  SO.Session.SlowTraces = Ring;
  SO.Session.TraceSlowMs = TraceSlowMs;
  ServerEngine Engine(SO);

  auto CheckLine = [&](int Tail) {
    std::string Line =
        "{\"method\":\"check\",\"id\":1,\"session\":\"w\",\"source\":\"";
    Line += jsonEscape(makeEditorProgram(Decls, Tail));
    Line += "\"}";
    return Line;
  };

  Engine.handle(CheckLine(0)); // Prime: steady state is warm.
  std::vector<double> WarmMs;
  // Process CPU brackets the loop: the request runs on a shard worker,
  // not the calling thread, and the process clock also charges a
  // running sampler thread's own work to the config that started it.
  uint64_t CpuStart = prof::processCpuNs();
  for (size_t I = 0; I < Iterations; ++I) {
    std::string Line = CheckLine(int(I % 2) + 1);
    Clock::time_point Start = Clock::now();
    Engine.handle(Line);
    WarmMs.push_back(msSince(Start));
  }
  uint64_t CpuNs = prof::processCpuNs() - CpuStart;

  ConfigRow Row;
  Row.Name = Name;
  Row.WarmP50Ms = percentile(WarmMs, 0.50);
  Row.WarmP95Ms = percentile(WarmMs, 0.95);
  Row.CpuPerCheckUs = double(CpuNs) / 1000.0 / double(Iterations);
  return Row;
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Opts = parseDriverArgs(Argc, Argv);
  const size_t MicroIters = std::max<size_t>(100000, size_t(2e6 * Opts.Scale));
  const size_t Decls = std::max<size_t>(10, size_t(120 * Opts.Scale));
  const size_t Iterations = std::max<size_t>(10, size_t(60 * Opts.Scale));

  header("Instrument microcosts (" + std::to_string(MicroIters) +
         " iterations)");

  LogHistogram Hist;
  double RecordNs =
      nsPerOp(MicroIters, [&](size_t I) { Hist.record(I & 0xffff); });

  obs::OpsRegistry Registry;
  obs::OpsCounter &Counter = Registry.counter("bench_total");
  double CounterNs = nsPerOp(MicroIters, [&](size_t) { Counter.inc(); });

  std::ostringstream Devnull;
  obs::Logger Quiet(Devnull, obs::LogLevel::Warn);
  double SuppressedLogNs = nsPerOp(MicroIters, [&](size_t I) {
    if (Quiet.enabled(obs::LogLevel::Debug))
      Quiet.debug(obs::LogEvent("bench").num("i", uint64_t(I)));
  });

  // A scrape while the histogram holds samples: the cost a Prometheus
  // poll imposes on the daemon.
  obs::OpsRegistry ScrapeReg;
  LogHistogram &SH = ScrapeReg.histogram("bench_latency_us");
  for (size_t I = 0; I < 100000; ++I)
    SH.record(I & 0xffff);
  ScrapeReg.counter("bench_requests_total").inc(100000);
  size_t ScrapeIters = 1000;
  size_t ScrapeBytes = 0;
  double ScrapeUs = nsPerOp(ScrapeIters, [&](size_t) {
                      ScrapeBytes = ScrapeReg.renderPrometheus().size();
                    }) /
                    1000.0;

  std::printf("%-34s %8.1f ns/op\n", "LogHistogram::record", RecordNs);
  std::printf("%-34s %8.1f ns/op\n", "OpsCounter::inc", CounterNs);
  std::printf("%-34s %8.1f ns/op\n", "suppressed log event", SuppressedLogNs);
  std::printf("%-34s %8.1f us/scrape (%zu bytes)\n", "renderPrometheus",
              ScrapeUs, ScrapeBytes);
  uint64_t KeepAlive = Hist.count() + Counter.value(); // defeat DCE
  if (KeepAlive == 0)
    std::printf("(unreachable)\n");

  header("Warm edit-resubmit p50 by observability config (" +
         std::to_string(Decls) + " decls, " + std::to_string(Iterations) +
         " iterations)");

  std::string TraceDir =
      "/tmp/seminal_bench_obs_" + std::to_string(::getpid());
  std::string Cleanup = "rm -rf '" + TraceDir + "'";
  std::ostringstream LogSink; // Absorbs log output without touching disk.
  obs::Logger InfoLog(LogSink, obs::LogLevel::Info);
  obs::SlowTraceRing Ring(TraceDir, 4);

  // The profiler rows carry the DESIGN.md section 16 budget (<=1% with
  // the hooks compiled but idle, <=3% sampled at the default 99 Hz with
  // exact phase-CPU stamping) and CI gates on them, so the measurement
  // has to beat run-order drift (thermal, governor, cache): every
  // config is measured in alternating rounds and keeps its best-round
  // p50, which cancels slow machine-state drift a single pass cannot.
  struct ConfigSpec {
    const char *Name;
    obs::Logger *Log;
    obs::SlowTraceRing *Ring;
    double TraceSlowMs;
    unsigned ProfilerHz;
  };
  const ConfigSpec Specs[] = {
      {"registry_only", nullptr, nullptr, -1.0, 0},
      {"with_logging", &InfoLog, nullptr, -1.0, 0},
      {"with_tail_tracing", &InfoLog, &Ring, 1e9, 0},
      {"capture_everything", &InfoLog, &Ring, 0.0, 0},
      {"with_profiler_off", nullptr, nullptr, -1.0, 0},
      {"with_profiler_99hz", nullptr, nullptr, -1.0, 99},
  };
  const int Rounds = 5;
  std::vector<ConfigRow> Configs(std::size(Specs));
  std::vector<std::vector<double>> CpuByRound(std::size(Specs));
  for (int Round = 0; Round < Rounds; ++Round) {
    for (size_t I = 0; I < std::size(Specs); ++I) {
      const ConfigSpec &Spec = Specs[I];
      if (Spec.ProfilerHz) {
        prof::Profiler::Options PO;
        PO.SampleHz = Spec.ProfilerHz;
        prof::profiler().start(PO);
      }
      ConfigRow Row = measureConfig(Spec.Name, Decls, Iterations, Spec.Log,
                                    Spec.Ring, Spec.TraceSlowMs);
      if (Spec.ProfilerHz)
        prof::profiler().stop();
      CpuByRound[I].push_back(Row.CpuPerCheckUs);
      if (Round == 0 || Row.CpuPerCheckUs < Configs[I].CpuPerCheckUs)
        Configs[I] = Row;
    }
  }

  // Overhead is the median across rounds of each round's CPU-per-check
  // ratio against the *same round's* registry_only run. Two layers of
  // noise defense: CPU time instead of wall clock (insensitive to
  // scheduling), and same-round ratios (a round's configs run
  // back-to-back, so slow drift -- allocator state, thermals --
  // cancels in the ratio where it would swamp cross-round absolutes).
  // Even so, these end-to-end rows carry a noise floor of several
  // percent on shared runners; they are context, not the gate. The
  // gated profiler budgets come from the pricing model below.
  for (size_t I = 0; I < Configs.size(); ++I) {
    std::vector<double> Ratios;
    for (int R = 0; R < Rounds; ++R)
      if (CpuByRound[0][R] > 0)
        Ratios.push_back(CpuByRound[I][R] / CpuByRound[0][R]);
    Configs[I].OverheadPct = (percentile(Ratios, 0.50) - 1.0) * 100.0;
    std::printf("%-22s p50 %9.3f ms   p95 %9.3f ms   cpu %8.1f us   "
                "overhead %+6.2f%%\n",
                Configs[I].Name.c_str(), Configs[I].WarmP50Ms,
                Configs[I].WarmP95Ms, Configs[I].CpuPerCheckUs,
                Configs[I].OverheadPct);
  }
  (void)std::system(Cleanup.c_str());

  header("Profiler pricing model");

  // The DESIGN.md section 16 budgets (<=1% with sampling off, <=3% at
  // 99 Hz) sit below the end-to-end noise floor of a ~1ms workload on
  // a shared runner, so they are gated on a priced model instead:
  // tight micro-loops measure each primitive (these reproduce within a
  // few percent where end-to-end p50s swing by ten), and a counting
  // pass measures how many of each primitive one warm check actually
  // uses. Overhead = primitives-per-check x ns-per-primitive, against
  // the registry_only row's best-round CPU.
  auto HookPair = [](SpanKind Kind, const char *Name) {
    // Mirrors the TraceSpan call sites: inline enabled() gate, then
    // the out-of-line hooks.
    if (prof::enabled()) {
      uint32_t T = prof::spanEnter(Kind, Name);
      prof::spanExit(T);
    }
  };
  double HookOffNs = nsPerOp(
      MicroIters, [&](size_t) { HookPair(SpanKind::Candidate, "bench.leaf"); });
  {
    prof::Profiler::Options PO;
    PO.SampleHz = 0;
    prof::profiler().start(PO);
  }
  double HookOnNs = nsPerOp(
      MicroIters, [&](size_t) { HookPair(SpanKind::Candidate, "bench.leaf"); });
  // Stamped kinds pay two CLOCK_THREAD_CPUTIME_ID reads on top of the
  // mirror; fewer iterations, each is a real syscall.
  size_t StampIters = std::max<size_t>(10000, MicroIters / 20);
  double StampOnNs = nsPerOp(
      StampIters, [&](size_t) { HookPair(SpanKind::Search, "bench.phase"); });
  // One sampler tick while this thread holds a representative stack.
  std::vector<uint32_t> Tokens;
  for (const char *Frame : {"bench.s0", "bench.s1", "bench.s2", "bench.s3",
                            "bench.s4", "bench.s5", "bench.s6", "bench.s7"})
    Tokens.push_back(prof::spanEnter(SpanKind::Candidate, Frame));
  double SampleNs =
      nsPerOp(1000, [&](size_t) { prof::profiler().sampleOnce(); });
  for (size_t I = Tokens.size(); I-- > 0;)
    prof::spanExit(Tokens[I]);
  prof::profiler().stop();
  prof::profiler().clear();

  // Spans per warm check, counted by stamping every kind and reading
  // back the enter counters (deterministic in the workload).
  auto spansPerCheck = [&](uint32_t Mask) {
    prof::Profiler::Options PO;
    PO.SampleHz = 0;
    PO.CpuKindMask = Mask;
    prof::profiler().start(PO);
    ServerOptions SO;
    SO.Threads = 1;
    ServerEngine Engine(SO);
    auto CheckLine = [&](int Tail) {
      std::string Line =
          "{\"method\":\"check\",\"id\":1,\"session\":\"w\",\"source\":\"";
      Line += jsonEscape(makeEditorProgram(Decls, Tail));
      Line += "\"}";
      return Line;
    };
    Engine.handle(CheckLine(0));
    prof::profiler().clear();
    const int Count = 10;
    for (int I = 0; I < Count; ++I)
      Engine.handle(CheckLine(I % 2 + 1));
    prof::ProfileSnapshot Snap = prof::profiler().snapshot();
    prof::profiler().stop();
    prof::profiler().clear();
    uint64_t Enters = 0;
    for (const auto &KV : Snap.Cpu)
      Enters += KV.second.Enters;
    return double(Enters) / Count;
  };
  double SpansPerCheck = spansPerCheck(0xFFFFFFFFu);
  double StampedPerCheck =
      spansPerCheck(prof::Profiler::defaultCpuKindMask());

  double CheckCpuNs = Configs[0].CpuPerCheckUs * 1000.0;
  double CheckWallSec = Configs[0].WarmP50Ms / 1000.0;
  double ProfilerOffPct =
      CheckCpuNs > 0 ? SpansPerCheck * HookOffNs / CheckCpuNs * 100.0 : 0.0;
  double ProfilerOnNsPerCheck =
      SpansPerCheck * HookOnNs +
      StampedPerCheck * std::max(0.0, StampOnNs - HookOnNs) +
      99.0 * SampleNs * CheckWallSec;
  double Profiler99Pct =
      CheckCpuNs > 0 ? ProfilerOnNsPerCheck / CheckCpuNs * 100.0 : 0.0;

  std::printf("%-34s %8.2f ns/pair\n", "span hook (profiling off)", HookOffNs);
  std::printf("%-34s %8.2f ns/pair\n", "span hook (on, unstamped)", HookOnNs);
  std::printf("%-34s %8.2f ns/pair\n", "span hook (on, CPU-stamped)",
              StampOnNs);
  std::printf("%-34s %8.2f us/tick\n", "sampler tick", SampleNs / 1000.0);
  std::printf("%-34s %8.1f total, %.1f stamped\n", "spans per warm check",
              SpansPerCheck, StampedPerCheck);
  std::printf("%-34s %+7.3f%% (budget 1%%)\n", "priced overhead, profiler off",
              ProfilerOffPct);
  std::printf("%-34s %+7.3f%% (budget 3%%)\n", "priced overhead, 99 Hz",
              Profiler99Pct);

  if (!Opts.JsonPath.empty()) {
    std::ofstream Out(Opts.JsonPath);
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", Opts.JsonPath.c_str());
      return 2;
    }
    Out << "{\n"
        << "  \"bench\": \"obs\",\n"
        << "  \"scale\": " << Opts.Scale << ",\n"
        << "  \"seed\": " << Opts.Seed << ",\n"
        << "  \"record_ns\": " << RecordNs << ",\n"
        << "  \"counter_inc_ns\": " << CounterNs << ",\n"
        << "  \"suppressed_log_ns\": " << SuppressedLogNs << ",\n"
        << "  \"scrape_us\": " << ScrapeUs << ",\n"
        << "  \"scrape_bytes\": " << ScrapeBytes << ",\n"
        << "  \"hook_off_ns\": " << HookOffNs << ",\n"
        << "  \"hook_on_ns\": " << HookOnNs << ",\n"
        << "  \"stamp_on_ns\": " << StampOnNs << ",\n"
        << "  \"sample_tick_ns\": " << SampleNs << ",\n"
        << "  \"spans_per_check\": " << SpansPerCheck << ",\n"
        << "  \"stamped_spans_per_check\": " << StampedPerCheck << ",\n"
        << "  \"profiler_off_overhead_pct\": " << ProfilerOffPct << ",\n"
        << "  \"profiler_99hz_overhead_pct\": " << Profiler99Pct << ",\n"
        << "  \"configs\": [";
    for (size_t I = 0; I < Configs.size(); ++I) {
      const ConfigRow &Row = Configs[I];
      Out << (I ? "," : "") << "\n    {\"name\": \"" << Row.Name
          << "\", \"warm_p50_ms\": " << Row.WarmP50Ms
          << ", \"warm_p95_ms\": " << Row.WarmP95Ms
          << ", \"cpu_per_check_us\": " << Row.CpuPerCheckUs
          << ", \"overhead_pct\": " << Row.OverheadPct << "}";
    }
    Out << "\n  ]\n}\n";
  }
  return 0;
}
