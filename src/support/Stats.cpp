//===- Stats.cpp ----------------------------------------------------------==//

#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>

using namespace seminal;

AccelCounters &AccelCounters::operator+=(const AccelCounters &Other) {
  CacheHits += Other.CacheHits;
  CacheMisses += Other.CacheMisses;
  FullInferences += Other.FullInferences;
  IncrementalInferences += Other.IncrementalInferences;
  DeclInferencesSaved += Other.DeclInferencesSaved;
  CheckpointSeeds += Other.CheckpointSeeds;
  CheckpointFallbacks += Other.CheckpointFallbacks;
  TypesAllocated += Other.TypesAllocated;
  SessionPrefixHits += Other.SessionPrefixHits;
  SessionVerdictReuses += Other.SessionVerdictReuses;
  SessionSeedAdoptions += Other.SessionSeedAdoptions;
  SessionConvMemoHits += Other.SessionConvMemoHits;
  // Arena occupancy is a gauge, not a counter: the arena is shared across
  // everything that accumulates into this object, so take the max rather
  // than double-counting the same nodes.
  ArenaNodes = std::max(ArenaNodes, Other.ArenaNodes);
  ArenaHits = std::max(ArenaHits, Other.ArenaHits);
  ArenaBytes = std::max(ArenaBytes, Other.ArenaBytes);
  return *this;
}

std::string AccelCounters::render() const {
  std::ostringstream OS;
  uint64_t Lookups = CacheHits + CacheMisses;
  OS << "  verdict cache: " << CacheHits << " hits / " << CacheMisses
     << " misses";
  if (Lookups)
    OS << " (" << (100 * CacheHits / Lookups) << "% hit rate)";
  OS << "\n  inference: " << FullInferences << " full + "
     << IncrementalInferences << " incremental runs, "
     << DeclInferencesSaved << " prefix decl re-checks saved\n"
     << "  checkpoints: " << CheckpointSeeds << " seeded, "
     << CheckpointFallbacks << " fallbacks to full inference\n"
     << "  arena: " << ArenaNodes << " nodes, " << ArenaHits << " hits, "
     << ArenaBytes << " bytes\n"
     << "  type allocations: " << TypesAllocated << "\n";
  if (SessionPrefixHits || SessionVerdictReuses || SessionSeedAdoptions ||
      SessionConvMemoHits)
    OS << "  session reuse: " << SessionPrefixHits << " prefix probes, "
       << SessionVerdictReuses << " retained verdicts, "
       << SessionSeedAdoptions << " seed adoptions, " << SessionConvMemoHits
       << " conventional-error memos\n";
  return OS.str();
}

void Samples::ensureSorted() {
  if (Sorted)
    return;
  std::sort(Values.begin(), Values.end());
  Sorted = true;
}

double Samples::min() {
  assert(!Values.empty() && "min of empty sample set");
  ensureSorted();
  return Values.front();
}

double Samples::max() {
  assert(!Values.empty() && "max of empty sample set");
  ensureSorted();
  return Values.back();
}

double Samples::mean() const {
  assert(!Values.empty() && "mean of empty sample set");
  return std::accumulate(Values.begin(), Values.end(), 0.0) /
         double(Values.size());
}

double Samples::percentile(double Q) {
  assert(!Values.empty() && "percentile of empty sample set");
  assert(Q >= 0.0 && Q <= 1.0 && "percentile out of range");
  ensureSorted();
  if (Values.size() == 1)
    return Values.front();
  double Rank = Q * double(Values.size() - 1);
  size_t Lo = size_t(Rank);
  size_t Hi = Lo + 1 < Values.size() ? Lo + 1 : Lo;
  double Frac = Rank - double(Lo);
  return Values[Lo] * (1.0 - Frac) + Values[Hi] * Frac;
}

double Samples::fractionBelow(double Threshold) {
  if (Values.empty())
    return 0.0;
  ensureSorted();
  auto It = std::upper_bound(Values.begin(), Values.end(), Threshold);
  return double(It - Values.begin()) / double(Values.size());
}

std::vector<std::pair<double, double>> Samples::cdf(size_t Points) {
  std::vector<std::pair<double, double>> Result;
  if (Values.empty() || Points == 0)
    return Result;
  ensureSorted();
  for (size_t I = 0; I < Points; ++I) {
    double Q = Points == 1 ? 1.0 : double(I) / double(Points - 1);
    Result.emplace_back(percentile(Q), Q);
  }
  return Result;
}

uint64_t Histogram::count(int64_t Key) const {
  auto It = Counts.find(Key);
  return It == Counts.end() ? 0 : It->second;
}

uint64_t Histogram::total() const {
  uint64_t Sum = 0;
  for (const auto &KV : Counts)
    Sum += KV.second;
  return Sum;
}

std::string Histogram::renderLogScale(const std::string &KeyHeader,
                                      const std::string &CountHeader) const {
  std::ostringstream OS;
  OS << KeyHeader << "  " << CountHeader << "  (bar ~ log10 count)\n";
  for (const auto &KV : Counts) {
    OS << "  ";
    std::string Key = std::to_string(KV.first);
    OS << Key;
    for (size_t I = Key.size(); I < 8; ++I)
      OS << ' ';
    std::string Count = std::to_string(KV.second);
    OS << Count;
    for (size_t I = Count.size(); I < 8; ++I)
      OS << ' ';
    int Bar = KV.second == 0
                  ? 0
                  : 1 + int(std::floor(std::log10(double(KV.second)) * 10));
    for (int I = 0; I < Bar; ++I)
      OS << '#';
    OS << '\n';
  }
  return OS.str();
}
