//===- Bench.h - Shared declarations of the benchmark ----------------------==//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Stats.h"

#include "support/Stats.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Stop after this many checks (per session on daemon_edit) instead of at
  /// the deadline; 0 = run for Seconds. Used by the self-check, whose
  /// counts must repeat exactly.
  uint64_t MaxChecks = 0;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int SetupReps = 3;

/// What a workload run hands back for printing.
struct Outcome {
  Report Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< Distinct failure reasons.
};

/// End-to-end numbers of one timed window. A window repeats one seeded pass
/// of checks (the same inputs in the same order, from the same state) until
/// its time is up, so each position of the pass is measured several times.
/// The median latency is taken over the best of each position: other
/// tenants of a shared host slow everything by up to a third in spells of
/// seconds, which a plain median over one window cannot filter out. The
/// tail (blockedTail) and the rate are taken over every timed check.
struct Window {
  std::vector<double> SetupSeconds;
  /// One entry per position of the pass: the best latency it reached.
  std::vector<double> BestMs;
  /// Every timed check's latency, in time order.
  std::vector<double> AllMs;
  size_t PassChecks = 1;
  uint64_t Checks = 0;
  double Seconds = 0.0;
  size_t Passes = 0;
  double PeakRssMb = 0.0;
  uint64_t Failed = 0;
  uint64_t Found = 0; ///< Checks whose ground-truth fix is ranked.
  uint64_t Rank1 = 0; ///< Checks whose ground-truth fix is ranked first.
};

/// The best latency of each distinct position key (place in the pass).
template <typename Key>
std::vector<double> bestPerPosition(const std::vector<Key> &Positions,
                                    const std::vector<double> &Ms) {
  std::map<Key, double> Best;
  for (size_t I = 0; I < Ms.size(); ++I) {
    auto [It, New] = Best.emplace(Positions[I], Ms[I]);
    if (!New && Ms[I] < It->second)
      It->second = Ms[I];
  }
  std::vector<double> Out;
  for (const auto &Entry : Best)
    Out.push_back(Entry.second);
  return Out;
}

/// Adds every end-to-end metric of \p W to \p Out (failed_pct is printed
/// by the caller from Outcome::Failed).
void reportEndToEnd(const Window &W, Report &Out);

/// Every per-layer metric the traced run reports, in print order, with its
/// unit; a workload sets those its layers reach and leaves the rest 0.
class LayerMetrics {
public:
  LayerMetrics();
  void set(const std::string &Name, double Value);
  void report(Report &Out) const;

private:
  std::vector<std::pair<std::string, std::string>> Order; ///< Name, unit.
  std::map<std::string, double> Values;
};

/// Sets the oracle's work counts: per-check arena, type and call figures
/// from \p Accel summed over \p Checks checks that made \p Calls logical
/// calls and \p Inferences inference runs.
void reportOracleCounts(const seminal::AccelCounters &Accel, uint64_t Calls,
                        uint64_t Inferences, uint64_t Checks,
                        LayerMetrics &M);

/// The daemon_edit layers, traced: \p Seconds of engine passes, then
/// \p Seconds replaying the same passes on the benchmark's own Session
/// objects. Sets the protocol, session, engine and edit metrics in \p M;
/// with \p AllLayers also the parse, arena and oracle counts and the
/// breakdown quality, which a one-shot workload otherwise reports itself.
/// Reply checks count into \p O.
void traceServerLayers(const Options &Opts, double Seconds, bool AllLayers,
                       LayerMetrics &M, Outcome &O);

Outcome runOneShot(const Options &Opts);
Outcome runDaemonEdit(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
