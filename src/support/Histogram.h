//===- Histogram.h - Lock-free log-bucketed latency histogram ---*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size, HDR-style latency histogram for the server's live
/// observability layer (DESIGN.md section 14). A sample vector sorted on
/// query (Samples, support/Stats.h) is fine for one-shot data -- a bench
/// run, or the series derived from a trace -- but wrong for a daemon:
/// memory grows without bound and a scrape pays O(n log n) while
/// requests are in flight.
/// LogHistogram instead buckets values logarithmically into a fixed
/// array of atomic counters:
///
///   * record() is lock-free and wait-free on x86: one bit-scan to find
///     the bucket, then relaxed fetch_adds (plus CAS loops for min/max).
///     No allocation, ever -- safe to call from any shard worker.
///   * Values 0..63 land in exact width-1 buckets; beyond that each
///     power of two is split into 32 sub-buckets, so any recorded value
///     is off by at most 1/32 (~3.1%) of itself. Values at or above
///     2^40 (about 12.7 days when recording microseconds) clamp into a
///     single overflow bucket; min/max still track the raw values.
///   * Histograms merge by bucket-wise addition, so per-shard recording
///     with a merge at scrape time is bit-identical to recording the
///     interleaved stream into one histogram (pinned by tests).
///
/// Quantiles walk the bucket array (1153 entries) and return the lower
/// bound of the bucket holding the requested rank: exact for values
/// below 64, never more than one sub-bucket below the true value
/// otherwise. Concurrent record() during a query can skew a quantile by
/// the in-flight samples; counts are never lost.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SUPPORT_HISTOGRAM_H
#define SEMINAL_SUPPORT_HISTOGRAM_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace seminal {

/// One consistent view of a LogHistogram, extracted in a single bucket
/// walk so the quantiles agree with the count.
struct HistogramSummary {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0; ///< Raw (unbucketed) minimum; 0 when empty.
  uint64_t Max = 0; ///< Raw (unbucketed) maximum; 0 when empty.
  double Mean = 0.0;
  uint64_t P50 = 0;
  uint64_t P90 = 0;
  uint64_t P95 = 0;
  uint64_t P99 = 0;
};

/// A plain (non-atomic) copy of a LogHistogram's bucket array, taken in
/// one walk. Snapshots subtract bucket-wise, which is what makes
/// windowed views possible without ever resetting a live histogram:
/// `Cur.deltaFrom(Prev)` is exactly the histogram of the samples
/// recorded between the two snapshots (per-counter monotonicity -- see
/// the ordering note in Histogram.cpp -- guarantees Cur >= Prev in
/// every bucket while no reset intervenes). Min/Max/Sum are cumulative
/// statistics and do not subtract exactly: a delta keeps the saturating
/// Sum difference (exact once writers quiesce) and zeroes Min/Max,
/// which have no interval meaning.
struct HistogramSnapshot {
  static constexpr size_t NumBuckets =
      2 * (1u << 5) + (39 - 5) * (1u << 5) + 1; // Mirrors LogHistogram.
  uint64_t Buckets[NumBuckets] = {};
  /// Derived from the bucket walk, so quantiles always agree with it.
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0; ///< Raw minimum (0 in deltas and when empty).
  uint64_t Max = 0; ///< Raw maximum (0 in deltas and when empty).

  /// Nearest-rank quantile over the snapshot (same contract as
  /// LogHistogram::quantile).
  uint64_t quantile(double Q) const;

  /// Count/sum/min/max plus p50/p90/p95/p99 over the snapshot.
  HistogramSummary summarize() const;

  /// Samples strictly above \p Value, up to bucket quantization: whole
  /// buckets whose lower bound exceeds \p Value. A bucket straddling
  /// \p Value counts as "not above", so the answer can be low by at
  /// most one sub-bucket's population (values below 64 are exact).
  uint64_t countAbove(uint64_t Value) const;

  /// Bucket-wise `this - Prev`, saturating at zero per bucket (slack
  /// only appears if a reset slipped between the snapshots).
  HistogramSnapshot deltaFrom(const HistogramSnapshot &Prev) const;

  /// Bucket-wise addition; delta(A,C) == delta(A,B) + delta(B,C).
  void merge(const HistogramSnapshot &Other);
};

class LogHistogram {
public:
  /// Sub-bucket resolution: each power of two splits into 2^SubBits
  /// buckets, bounding relative error at 2^-SubBits.
  static constexpr unsigned SubBits = 5;
  static constexpr unsigned SubBucketCount = 1u << SubBits;
  /// Largest exponent with its own sub-buckets; values >= 2^(MaxExp+1)
  /// clamp into the overflow bucket.
  static constexpr unsigned MaxExp = 39;
  static constexpr size_t NumBuckets =
      2 * SubBucketCount + (MaxExp - SubBits) * SubBucketCount + 1;

  LogHistogram() = default;
  LogHistogram(const LogHistogram &) = delete;
  LogHistogram &operator=(const LogHistogram &) = delete;

  /// Records one sample. Lock-free; callable from any thread.
  void record(uint64_t Value);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Raw minimum/maximum recorded value (not bucket-quantized); 0 when
  /// no samples were recorded.
  uint64_t min() const;
  uint64_t max() const { return MaxSeen.load(std::memory_order_relaxed); }

  /// \p Q in [0, 1]; nearest-rank quantile over the bucket array. 0 when
  /// empty. Returns the lower bound of the selected bucket (exact below
  /// 64, at most one sub-bucket low otherwise).
  uint64_t quantile(double Q) const;

  /// Count/sum/min/max plus p50/p90/p95/p99 from one bucket walk.
  HistogramSummary summarize() const;

  /// One-walk plain copy of the buckets (see HistogramSnapshot).
  HistogramSnapshot snapshot() const;

  /// The interval histogram since \p Prev: snapshot().deltaFrom(Prev).
  /// Never resets or perturbs the live histogram, so any number of
  /// independent windows can be carved out of one instrument.
  HistogramSnapshot snapshotDelta(const HistogramSnapshot &Prev) const;

  /// Adds \p Other's samples bucket-wise. Merging per-shard histograms
  /// equals recording the union stream into one histogram.
  void merge(const LogHistogram &Other);

  /// Drops all samples. Not atomic with respect to concurrent record();
  /// meant for bench loops and tests.
  void reset();

  // Bucket introspection (tests and exposition) ------------------------
  static size_t bucketIndex(uint64_t Value);
  /// Smallest value mapping to bucket \p Index.
  static uint64_t bucketLowerBound(size_t Index);
  uint64_t bucketLoad(size_t Index) const {
    return Buckets[Index].load(std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  /// UINT64_MAX = "nothing recorded yet" sentinel.
  std::atomic<uint64_t> MinSeen{UINT64_MAX};
  std::atomic<uint64_t> MaxSeen{0};
};

} // namespace seminal

#endif // SEMINAL_SUPPORT_HISTOGRAM_H
