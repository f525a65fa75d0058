//===- Stats.h - Timing helpers and metric reporting for the benchmark -----==//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

inline Clock::time_point deadlineAfter(Clock::time_point Start,
                                       double Seconds) {
  return Start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(Seconds));
}

/// Linear-interpolated quantile of \p Values (sorted in place).
double quantile(std::vector<double> &Values, double Q);
double median(std::vector<double> Values);

/// The highest percentile of a ladder that still has at least ten samples
/// beyond it, as the tail-latency metric reports it.
struct Tail {
  double Quantile = 0.5; ///< E.g. 0.99.
  double Value = 0.0;
  size_t Beyond = 0;     ///< Samples strictly above the quantile's rank.
  size_t Samples = 0;
  size_t Blocks = 1;     ///< blockedTail: blocks of Samples each, at least.
};
Tail tailOf(std::vector<double> Values);

/// Checks per block of blockedTail, at least.
inline constexpr size_t BlockChecks = 1000;

/// The tail of every check of a window, \p Ms in time order, steady across
/// a shared host's slow spells of seconds. The checks are cut into blocks
/// of whole passes of \p PassChecks, each block at least BlockChecks
/// checks (the last keeps the rest; one block if the window holds fewer).
/// Each block's tail is taken at the percentile tailOf picks for the
/// smallest block, and the result is their median.
Tail blockedTail(const std::vector<double> &Ms, size_t PassChecks);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Named metrics in print order; rendered as aligned text lines and as the
/// one-line JSON result a run ends with.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit,
           const std::string &Note = "");
  /// One "name value unit  note" line per metric, to \p Out.
  void printLines(std::FILE *Out) const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string json(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  struct Entry {
    std::string Name, Unit, Note;
    double Value;
  };
  std::vector<Entry> Entries;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
