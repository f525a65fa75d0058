//===- Main.cpp - SEMINAL benchmark entry point ----------------------------==//
//
// seminal_perfbench --workload corpus_sweep|daemon_edit|large_program
//                   --seed N --seconds S --trace 0|1 [--checks N]
//
// Prints the build it runs on, one line per metric (name, value, unit),
// and as its last line the JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// traced variant of the workload and reports the per-layer metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Traced.h"
#include "Workloads.h"

#include "support/Sync.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

using namespace perfbench;

namespace {

constexpr bool RankChecks = SEMINAL_SYNC_RANK_CHECKS != 0;
#ifdef NDEBUG
constexpr bool Asserts = false;
#else
constexpr bool Asserts = true;
#endif

int usage(const char *Why) {
  std::fprintf(stderr,
               "seminal_perfbench: %s\n"
               "usage: seminal_perfbench --workload "
               "corpus_sweep|daemon_edit|large_program --seed N --seconds S "
               "--trace 0|1 [--checks N]\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &Opts, const char *&Why) {
  for (int I = 1; I < Argc; I += 2) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      Why = "missing value after a flag";
      return false;
    }
    const char *Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Value;
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value, &End);
      if (End == Value || *End ||
          !(Opts.Seconds >= 0 && Opts.Seconds <= 3600)) {
        Why = "--seconds takes a number from 0 to 3600";
        return false;
      }
    } else if (Flag == "--seed" || Flag == "--trace" || Flag == "--checks") {
      errno = 0;
      unsigned long long N = std::strtoull(Value, &End, 10);
      if (End == Value || *End || *Value == '-' || errno) {
        Why = "--seed, --trace and --checks take non-negative integers";
        return false;
      }
      if (Flag == "--seed")
        Opts.Seed = N;
      else if (Flag == "--trace")
        Opts.Trace = N != 0;
      else
        Opts.MaxChecks = N;
    } else {
      Why = "unknown flag";
      return false;
    }
  }
  if (Opts.Workload != "corpus_sweep" && Opts.Workload != "daemon_edit" &&
      Opts.Workload != "large_program") {
    Why = "unknown workload";
    return false;
  }
  return true;
}

} // namespace

namespace perfbench {

void reportEndToEnd(const Window &W, Report &Out) {
  Tail T = blockedTail(W.AllMs, W.PassChecks);
  char Note[128];
  if (T.Blocks == 1)
    std::snprintf(Note, sizeof Note, "p%g of %zu checks, %zu beyond",
                  T.Quantile * 100, T.Samples, T.Beyond);
  else
    std::snprintf(Note, sizeof Note,
                  "median of p%g over %zu blocks of >=%zu checks, %zu beyond "
                  "in each",
                  T.Quantile * 100, T.Blocks, T.Samples, T.Beyond);
  double Pct = W.Checks ? 100.0 / double(W.Checks) : 0.0;
  Out.add("setup_s", median(W.SetupSeconds), "s",
          "median of " + std::to_string(W.SetupSeconds.size()) + " set-ups");
  Out.add("checks_per_s", W.Seconds > 0 ? double(W.Checks) / W.Seconds : 0.0,
          "1/s",
          std::to_string(W.Checks) + " checks in " +
              std::to_string(W.Passes) + " passes");
  Out.add("latency_p50_ms", median(W.BestMs), "ms",
          "best of each position over the passes");
  Out.add("latency_tail_ms", T.Value, "ms", Note);
  Out.add("peak_rss_mb", W.PeakRssMb, "MiB");
  Out.add("found_pct", double(W.Found) * Pct, "%");
  Out.add("rank1_pct", double(W.Rank1) * Pct, "%");
}

LayerMetrics::LayerMetrics() {
  auto Add = [&](const std::string &Name, const char *Unit) {
    Order.emplace_back(Name, Unit);
    Values[Name] = 0.0;
  };
  // server
  Add("protocol.us_per_request", "us");
  Add("session.ms_per_check", "ms");
  Add("engine.queue_wait_ms", "ms");
  Add("engine.shard_busy_pct", "%");
  Add("session.prefix_hits", "count");
  Add("session.verdict_reuses", "count");
  Add("session.seed_adoptions", "count");
  Add("session.conv_memo_hits", "count");
  Add("session.evictions", "count");
  Add("session.arena_bytes", "bytes");
  Add("edit.hit_p50_ms", "ms");
  Add("edit.miss_p50_ms", "ms");
  // minicaml
  Add("parse.ms_per_check", "ms");
  Add("parse.kb_per_ms", "KiB/ms");
  Add("arena.nodes", "count");
  Add("arena.bytes", "bytes");
  Add("oracle.types_allocated", "count");
  // core oracle
  for (size_t I = 0; I + 1 < OracleLayers.size(); ++I) {
    Add(std::string("oracle.") + OracleLayers[I] + ".calls", "count");
    Add(std::string("oracle.") + OracleLayers[I] + ".ms", "ms");
  }
  Add("conv.ms_per_check", "ms");
  Add("oracle.setup_us", "us");
  Add("oracle.us_per_call", "us");
  Add("oracle.logical_calls", "count");
  Add("oracle.inference_runs", "count");
  Add("oracle.inference_per_call", "ratio");
  Add("oracle.verdict_hit_pct", "%");
  // core searcher, ranker, messages
  Add("search.ms_per_check", "ms");
  Add("search.self_ms_per_check", "ms");
  Add("rank.us_per_check", "us");
  Add("render.us_per_check", "us");
  // analysis (side measurement)
  Add("slice.ms_per_check", "ms");
  Add("slice.pruned_calls", "count");
  // size scaling (large_program)
  for (unsigned Decls : LargeSizeDecls) {
    std::string P = "size." + std::to_string(Decls) + ".";
    Add(P + "check_ms", "ms");
    Add(P + "us_per_oracle_call", "us");
    Add(P + "logical_calls", "count");
  }
  // breakdown quality
  Add("unattributed_pct", "%");
  Add("trace_overhead_pct", "%");
}

void LayerMetrics::set(const std::string &Name, double Value) {
  auto It = Values.find(Name);
  if (It == Values.end()) {
    std::fprintf(stderr, "seminal_perfbench: unknown metric %s\n",
                 Name.c_str());
    std::abort();
  }
  It->second = Value;
}

void reportOracleCounts(const seminal::AccelCounters &Accel, uint64_t Calls,
                        uint64_t Inferences, uint64_t Checks,
                        LayerMetrics &M) {
  double N = Checks ? double(Checks) : 1.0;
  M.set("arena.nodes", double(Accel.ArenaNodes) / N);
  M.set("arena.bytes", double(Accel.ArenaBytes) / N);
  M.set("oracle.types_allocated", double(Accel.TypesAllocated) / N);
  M.set("oracle.logical_calls", double(Calls) / N);
  M.set("oracle.inference_runs", double(Inferences) / N);
  M.set("oracle.inference_per_call",
        Calls ? double(Inferences) / double(Calls) : 0.0);
  uint64_t Probes = Accel.CacheHits + Accel.CacheMisses;
  M.set("oracle.verdict_hit_pct",
        Probes ? 100.0 * double(Accel.CacheHits) / double(Probes) : 0.0);
}

void LayerMetrics::report(Report &Out) const {
  for (const auto &[Name, Unit] : Order)
    Out.add(Name, Values.at(Name), Unit);
}

} // namespace perfbench

int main(int Argc, char **Argv) {
  Options Opts;
  const char *Why = nullptr;
  if (!parseArgs(Argc, Argv, Opts, Why))
    return usage(Why);

  std::printf("build: type=%s compiler=%s rank_checks=%s asserts=%s "
              "nproc=%u\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              RankChecks ? "on" : "off", Asserts ? "on" : "off",
              std::thread::hardware_concurrency());
  if (!Opts.Trace &&
      (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") || RankChecks || Asserts)) {
    std::fprintf(stderr, "seminal_perfbench: end-to-end numbers need a Release "
                         "build with rank checks and asserts off\n");
    return 3;
  }
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              Opts.Workload.c_str(), (unsigned long long)Opts.Seed,
              Opts.Seconds, int(Opts.Trace));
  std::fflush(stdout);

  Outcome O;
  try {
    O = Opts.Workload == "daemon_edit" ? runDaemonEdit(Opts) : runOneShot(Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "seminal_perfbench: %s\n", E.what());
    return 1;
  }
  for (const std::string &F : O.Failures)
    std::printf("FAIL: %s\n", F.c_str());
  O.Metrics.printLines(stdout);
  std::printf("  %-34s %14.6g %-6s (%llu of %llu checks)\n", "failed_pct",
              O.Attempted ? 100.0 * double(O.Failed) / double(O.Attempted)
                          : 0.0,
              "%", (unsigned long long)O.Failed,
              (unsigned long long)O.Attempted);
  std::printf("%s\n", O.Metrics.json(O.Failed == 0 && O.Attempted > 0,
                                     O.Attempted, O.Failed)
                          .c_str());
  return 0;
}
