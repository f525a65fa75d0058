//===- BenchUtil.h - Shared helpers for benchmark drivers -------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small shared helpers for the figure-reproduction drivers: command-line
/// scale/seed parsing, table formatting and the allocation-counting
/// interposer. The drivers are plain executables that print the same
/// rows/series the paper reports.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_BENCH_BENCHUTIL_H
#define SEMINAL_BENCH_BENCHUTIL_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

namespace seminal {
namespace bench {

/// Options common to the corpus-driven drivers.
struct DriverOptions {
  double Scale = 1.0;
  uint64_t Seed = 20070611;
  /// When non-empty, the driver also writes a machine-readable summary
  /// here (CI uploads these BENCH_*.json files as artifacts).
  std::string JsonPath;
};

/// Parses --scale=<f>, --seed=<n> and --json=<path>; exits with usage on
/// malformed or unknown options so CI scripts fail loudly on typos
/// instead of silently benchmarking the default configuration.
inline DriverOptions parseDriverArgs(int Argc, char **Argv) {
  DriverOptions Opts;
  auto Usage = [&](std::FILE *To) {
    std::fprintf(To, "usage: %s [--scale=<f>] [--seed=<n>] [--json=<path>]\n",
                 Argv[0]);
  };
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--scale=", 8) == 0) {
      Opts.Scale = std::atof(Arg + 8);
      if (Opts.Scale <= 0.0) {
        std::fprintf(stderr, "bad --scale value '%s'\n", Arg + 8);
        Usage(stderr);
        std::exit(2);
      }
    } else if (std::strncmp(Arg, "--seed=", 7) == 0) {
      Opts.Seed = std::strtoull(Arg + 7, nullptr, 10);
    } else if (std::strncmp(Arg, "--json=", 7) == 0) {
      Opts.JsonPath = Arg + 7;
      if (Opts.JsonPath.empty()) {
        std::fprintf(stderr, "--json needs a file path\n");
        Usage(stderr);
        std::exit(2);
      }
    } else if (std::strcmp(Arg, "--help") == 0) {
      Usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg);
      Usage(stderr);
      std::exit(2);
    }
  }
  return Opts;
}

//===----------------------------------------------------------------------===//
// Allocation counting
//===----------------------------------------------------------------------===//
//
// A driver that wants per-scenario heap-allocation counts places
// SEMINAL_BENCH_COUNT_ALLOCATIONS() once at namespace scope in its own
// translation unit; the macro replaces the global operator new/delete
// with a counting interposer. Every allocation pays a 16-byte size
// header (so frees can maintain a live-byte gauge without sized-delete
// being guaranteed) and a few relaxed atomic increments -- fine for
// counting, useless for timing, which is why the figure drivers do NOT
// instantiate it. Headers keep malloc's 16-byte alignment; over-aligned
// (align_val_t) allocations bypass the interposer and go uncounted,
// which is fine: nothing in the measured pipeline over-aligns.

/// Global allocator telemetry maintained by the interposer. Monotonic
/// counters except LiveBytes (a gauge) and PeakBytes (a high-water mark
/// that AllocScope resets to the current live level).
struct AllocCounters {
  std::atomic<uint64_t> Allocs{0};
  std::atomic<uint64_t> Frees{0};
  std::atomic<uint64_t> LiveBytes{0};
  std::atomic<uint64_t> PeakBytes{0};
};

inline AllocCounters &allocCounters() {
  static AllocCounters C;
  return C;
}

constexpr std::size_t AllocHeaderBytes = 16;

inline void *allocCounted(std::size_t Size) {
  void *Raw = std::malloc(Size + AllocHeaderBytes);
  if (!Raw)
    throw std::bad_alloc();
  *static_cast<std::size_t *>(Raw) = Size;
  AllocCounters &C = allocCounters();
  C.Allocs.fetch_add(1, std::memory_order_relaxed);
  uint64_t Live =
      C.LiveBytes.fetch_add(Size, std::memory_order_relaxed) + Size;
  uint64_t Peak = C.PeakBytes.load(std::memory_order_relaxed);
  while (Live > Peak &&
         !C.PeakBytes.compare_exchange_weak(Peak, Live,
                                            std::memory_order_relaxed)) {
  }
  return static_cast<char *>(Raw) + AllocHeaderBytes;
}

inline void freeCounted(void *P) noexcept {
  if (!P)
    return;
  char *Raw = static_cast<char *>(P) - AllocHeaderBytes;
  std::size_t Size;
  std::memcpy(&Size, Raw, sizeof(Size));
  AllocCounters &C = allocCounters();
  C.Frees.fetch_add(1, std::memory_order_relaxed);
  C.LiveBytes.fetch_sub(Size, std::memory_order_relaxed);
  std::free(Raw);
}

/// Snapshot of what happened between an AllocScope's construction and a
/// finish() call.
struct AllocReport {
  uint64_t Allocs = 0;    ///< operator-new calls inside the scope.
  uint64_t PeakBytes = 0; ///< Peak live bytes above the scope's baseline.
};

/// Brackets one measured scenario. Construction snapshots the counters
/// and resets the high-water mark to the current live level, so
/// PeakBytes reports the scenario's own footprint, not the process's.
class AllocScope {
public:
  AllocScope() {
    AllocCounters &C = allocCounters();
    StartAllocs = C.Allocs.load(std::memory_order_relaxed);
    StartLive = C.LiveBytes.load(std::memory_order_relaxed);
    C.PeakBytes.store(StartLive, std::memory_order_relaxed);
  }

  AllocReport finish() const {
    AllocCounters &C = allocCounters();
    AllocReport R;
    R.Allocs = C.Allocs.load(std::memory_order_relaxed) - StartAllocs;
    uint64_t Peak = C.PeakBytes.load(std::memory_order_relaxed);
    R.PeakBytes = Peak > StartLive ? Peak - StartLive : 0;
    return R;
  }

private:
  uint64_t StartAllocs = 0;
  uint64_t StartLive = 0;
};

/// True when the counting interposer is linked into this binary (any
/// allocation has been observed -- the runtime allocates long before
/// main). Drivers use it to refuse to emit all-zero reports.
inline bool allocCountingActive() {
  return allocCounters().Allocs.load(std::memory_order_relaxed) != 0;
}

} // namespace bench
} // namespace seminal

/// Instantiates the counting operator new/delete. Exactly one
/// translation unit per binary may expand this.
#define SEMINAL_BENCH_COUNT_ALLOCATIONS()                                     \
  void *operator new(std::size_t Size) {                                      \
    return seminal::bench::allocCounted(Size);                                \
  }                                                                           \
  void *operator new[](std::size_t Size) {                                    \
    return seminal::bench::allocCounted(Size);                                \
  }                                                                           \
  void operator delete(void *P) noexcept { seminal::bench::freeCounted(P); }  \
  void operator delete[](void *P) noexcept {                                  \
    seminal::bench::freeCounted(P);                                           \
  }                                                                           \
  void operator delete(void *P, std::size_t) noexcept {                       \
    seminal::bench::freeCounted(P);                                           \
  }                                                                           \
  void operator delete[](void *P, std::size_t) noexcept {                     \
    seminal::bench::freeCounted(P);                                           \
  }

namespace seminal {
namespace bench {

/// Prints a horizontal rule.
inline void rule() {
  std::printf("---------------------------------------------------------"
              "---------------\n");
}

/// Prints a centered-ish section header.
inline void header(const std::string &Title) {
  rule();
  std::printf("%s\n", Title.c_str());
  rule();
}

} // namespace bench
} // namespace seminal

#endif // SEMINAL_BENCH_BENCHUTIL_H
