//===- Stats.cpp - Timing helpers and metric reporting for the benchmark ---==//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> &Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * double(Values.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Pos - double(Lo)) * (Values[Hi] - Values[Lo]);
}

double median(std::vector<double> Values) { return quantile(Values, 0.5); }

Tail tailOf(std::vector<double> Values) {
  static const double Ladder[] = {0.999, 0.998, 0.995, 0.99, 0.98,
                                  0.95,  0.9,   0.75,  0.5};
  Tail T;
  T.Samples = Values.size();
  for (double Q : Ladder) {
    size_t Rank = size_t(std::ceil(Q * double(T.Samples) - 1e-9));
    size_t Beyond = T.Samples - Rank;
    if (Beyond >= 10 || Q == 0.5) {
      T.Quantile = Q;
      T.Beyond = Beyond;
      T.Value = quantile(Values, Q);
      return T;
    }
  }
  return T;
}

Tail blockedTail(const std::vector<double> &Ms, size_t PassChecks) {
  PassChecks = std::max<size_t>(1, PassChecks);
  size_t PerBlock = (BlockChecks + PassChecks - 1) / PassChecks * PassChecks;
  size_t Blocks = std::max<size_t>(1, Ms.size() / PerBlock);
  auto blockEnd = [&](size_t B) {
    return B + 1 == Blocks ? Ms.end() : Ms.begin() + (B + 1) * PerBlock;
  };
  Tail T = tailOf(std::vector<double>(Ms.begin(), blockEnd(0)));
  std::vector<double> Values;
  for (size_t B = 0; B < Blocks; ++B) {
    std::vector<double> Block(Ms.begin() + B * PerBlock, blockEnd(B));
    Values.push_back(quantile(Block, T.Quantile));
  }
  T.Value = median(Values);
  T.Blocks = Blocks;
  return T;
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // Linux reports KiB.
}

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit, const std::string &Note) {
  Entries.push_back({Name, Unit, Note, Value});
}

void Report::printLines(std::FILE *Out) const {
  for (const Entry &E : Entries)
    std::fprintf(Out, "  %-34s %14.6g %-6s %s\n", E.Name.c_str(), E.Value,
                 E.Unit.c_str(), E.Note.c_str());
}

std::string Report::json(bool Correct, uint64_t Attempted,
                         uint64_t Failed) const {
  std::ostringstream OS;
  OS.precision(17);
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < Entries.size(); ++I) {
    const Entry &E = Entries[I];
    OS << (I ? ", " : "") << "\"" << E.Name << "\": {\"value\": "
       << (std::isfinite(E.Value) ? E.Value : 0.0) << ", \"unit\": \""
       << E.Unit << "\"}";
  }
  OS << "}}";
  return OS.str();
}

} // namespace perfbench
