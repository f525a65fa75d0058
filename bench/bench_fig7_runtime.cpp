//===- bench_fig7_runtime.cpp - Reproduces Figure 7 ------------------------==//
//
// Regenerates the cumulative distribution of tool runtime over the
// analyzed files under three configurations:
//
//   * full tool (bottom curve in the paper),
//   * the one expensive constructive change -- reparenthesizing nested
//     match expressions, the paper's acknowledged performance bug --
//     disabled (middle curve),
//   * triage disabled (top curve; the paper reports no file over 4 s and
//     95% under 2 s in this configuration).
//
// Absolute times differ from the paper's 2007 hardware + OCaml stack;
// the *ordering* of the three curves and the tail behavior are the
// reproduced shape.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

using namespace seminal;
using namespace seminal::bench;

namespace {

double timeOne(const std::string &Source, const SeminalOptions &Opts,
               AccelCounters *Agg = nullptr) {
  // Minimum of two runs: single measurements of millisecond-scale work
  // are at the mercy of the scheduler.
  double Best = 1e30;
  for (int Rep = 0; Rep < 2; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    SeminalReport R = runSeminalOnSource(Source, Opts);
    double Sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    if (Sec < Best)
      Best = Sec;
    if (Agg && Rep == 0)
      *Agg += R.Accel;
  }
  return Best;
}

void printCdf(const char *Label, Samples &S) {
  std::printf("%-28s", Label);
  for (double Q : {0.25, 0.50, 0.75, 0.90, 0.95, 1.00})
    std::printf("  %7.2f", S.percentile(Q) * 1000.0);
  std::printf("\n");
}

void jsonCdf(std::ostream &OS, const char *Key, Samples &S) {
  OS << "    \"" << Key << "\": {\"p25_ms\": " << S.percentile(0.25) * 1000.0
     << ", \"p50_ms\": " << S.percentile(0.50) * 1000.0
     << ", \"p75_ms\": " << S.percentile(0.75) * 1000.0
     << ", \"p90_ms\": " << S.percentile(0.90) * 1000.0
     << ", \"p95_ms\": " << S.percentile(0.95) * 1000.0
     << ", \"max_ms\": " << S.max() * 1000.0
     << ", \"mean_ms\": " << S.mean() * 1000.0 << "}";
}

/// {"name": {"count": n, "min": ..., "mean": ..., ...}, ...}.
void jsonSeries(std::ostream &OS, TraceSeries &Series) {
  OS << "{";
  bool First = true;
  for (auto &KV : Series) {
    Samples &S = KV.second;
    if (!First)
      OS << ",";
    First = false;
    char Buf[224];
    std::snprintf(Buf, sizeof(Buf),
                  "\n  \"%s\": {\"count\": %zu, \"min\": %.6g, \"mean\": "
                  "%.6g, \"p50\": %.6g, \"p95\": %.6g, \"max\": %.6g}",
                  KV.first.c_str(), S.size(), S.min(), S.mean(),
                  S.percentile(0.50), S.percentile(0.95), S.max());
    OS << Buf;
  }
  OS << "\n}";
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Opts = parseDriverArgs(Argc, Argv);

  header("Figure 7: cumulative distribution of tool runtime");
  CorpusOptions CO;
  CO.Scale = Opts.Scale;
  CO.Seed = Opts.Seed;
  Corpus C = generateCorpus(CO);
  std::printf("timing %zu analyzed files under 3 configurations\n\n",
              C.Analyzed.size());

  SeminalOptions Full;
  SeminalOptions NoReparen;
  NoReparen.Search.Enum.EnableMatchReparen = false;
  SeminalOptions NoTriage;
  NoTriage.Search.EnableTriage = false;

  Samples FullS, NoReparenS, NoTriageS;
  AccelCounters FullCounters;
  for (const CorpusFile &F : C.Analyzed) {
    FullS.add(timeOne(F.Source, Full, &FullCounters));
    NoReparenS.add(timeOne(F.Source, NoReparen));
    NoTriageS.add(timeOne(F.Source, NoTriage));
  }

  std::printf("%-28s  %7s  %7s  %7s  %7s  %7s  %7s   (ms)\n", "configuration",
              "p25", "p50", "p75", "p90", "p95", "max");
  rule();
  printCdf("full tool", FullS);
  printCdf("perf-bug change disabled", NoReparenS);
  printCdf("triage disabled", NoTriageS);

  rule();
  // The paper's threshold framing, scaled to our (much faster) stack:
  // report the fraction of files under the median-derived thresholds.
  double T1 = FullS.percentile(0.75);
  std::printf("full tool: 75%% of files within %.2f ms; 90%% within %.2f "
              "ms  [paper: 75%% < 4 s, 90%% < 30 s]\n",
              T1 * 1000.0, FullS.percentile(0.90) * 1000.0);
  std::printf("no-triage max %.2f ms vs full max %.2f ms  [paper: "
              "no-triage never exceeded 4 s]\n",
              NoTriageS.max() * 1000.0, FullS.max() * 1000.0);
  std::printf("curve order (mean ms): no-triage %.2f <= no-perf-bug %.2f "
              "<= full %.2f\n",
              NoTriageS.mean() * 1000.0, NoReparenS.mean() * 1000.0,
              FullS.mean() * 1000.0);
  std::printf("\nfull-tool acceleration counters:\n%s",
              FullCounters.render().c_str());

  // Dedicated metrics pass: the series are derived from a trace, which
  // costs span records per oracle call, so it runs outside the timed reps
  // above. It surfaces the per-layer shape (oracle latency distribution,
  // checkpoint reuse depth, candidates per node) behind the aggregate
  // curves. Each file's spans fold into the totals, then the sink is
  // cleared so it never holds more than one file's trace.
  TraceSink Sink;
  TraceSeries Series;
  SeminalOptions Instrumented = Full;
  Instrumented.Search.Trace = &Sink;
  for (const CorpusFile &F : C.Analyzed) {
    runSeminalOnSource(F.Source, Instrumented);
    addTraceSeries(Sink.snapshot(), Series);
    Sink.clear();
  }
  std::printf("\nfull-tool per-layer metrics (untimed pass):\n%s",
              renderTraceSeries(Series).c_str());

  if (!Opts.JsonPath.empty()) {
    std::ofstream OS(Opts.JsonPath);
    if (!OS) {
      std::fprintf(stderr, "cannot write %s\n", Opts.JsonPath.c_str());
      return 1;
    }
    OS << "{\n  \"bench\": \"fig7_runtime\",\n  \"scale\": " << Opts.Scale
       << ",\n  \"seed\": " << Opts.Seed
       << ",\n  \"files\": " << C.Analyzed.size() << ",\n  \"configs\": {\n";
    jsonCdf(OS, "full", FullS);
    OS << ",\n";
    jsonCdf(OS, "no_reparen", NoReparenS);
    OS << ",\n";
    jsonCdf(OS, "no_triage", NoTriageS);
    OS << "\n  },\n  \"counters\": {\"cache_hits\": " << FullCounters.CacheHits
       << ", \"full_inferences\": " << FullCounters.FullInferences
       << ", \"incremental_inferences\": "
       << FullCounters.IncrementalInferences << "},\n  \"metrics\": ";
    jsonSeries(OS, Series);
    OS << "\n}\n";
    std::printf("wrote %s\n", Opts.JsonPath.c_str());
  }
  return 0;
}
