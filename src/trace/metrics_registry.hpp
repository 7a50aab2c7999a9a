// Named counters and per-(syscall, mechanism) cycle-latency histograms.
//
// The registry is the aggregated view the flight recorder's event stream
// cannot give once the ring wraps: counters never drop, so per-mechanism
// totals stay exact over arbitrarily long runs. Latencies go into log2
// buckets (bucket i holds samples in [2^i, 2^(i+1))) — the paper's Table II
// spans ~100 cycles (zpoline fast path) to ~30k (ptrace round trip), which
// log2 bucketing resolves with 64 counters and no allocation on the hot
// path. A RunningStats (Welford) per key gives exact mean/stddev alongside.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/stats.hpp"
#include "kernel/smp.hpp"
#include "kernel/trace_sink.hpp"

namespace lzp::trace {

struct LatencyHistogram {
  static constexpr std::size_t kNumBuckets = 64;

  std::array<std::uint64_t, kNumBuckets> buckets{};
  RunningStats stats;

  static constexpr std::size_t bucket_of(std::uint64_t cycles) noexcept {
    if (cycles == 0) return 0;
    std::size_t bucket = 0;
    while (cycles >>= 1) ++bucket;
    return bucket;  // 63 at most for a 64-bit value
  }

  void add(std::uint64_t cycles) noexcept {
    ++buckets[bucket_of(cycles)];
    stats.add(static_cast<double>(cycles));
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t b : buckets) sum += b;
    return sum;
  }

  // Quantile estimate from the log2 buckets: find the bucket holding the
  // q-th sample, then interpolate linearly across the bucket's [2^i, 2^(i+1))
  // span by the sample's rank within the bucket. Exact to within one bucket
  // width — plenty for p50/p95/p99 tails spanning orders of magnitude.
  [[nodiscard]] double quantile(double q) const noexcept {
    const std::uint64_t n = total();
    if (n == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the target sample, 1-based (q=0 -> first, q=1 -> last).
    const double rank = 1.0 + q * static_cast<double>(n - 1);
    double seen = 0.0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      if (buckets[i] == 0) continue;
      const double in_bucket = static_cast<double>(buckets[i]);
      if (rank <= seen + in_bucket) {
        const double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << i);
        const double width = i == 0 ? 2.0 : lo;  // bucket 0 holds {0, 1}
        const double frac = (rank - seen) / in_bucket;
        return lo + frac * width;
      }
      seen += in_bucket;
    }
    return static_cast<double>(1ULL << (kNumBuckets - 1));
  }
};

class MetricsRegistry {
 public:
  struct Key {
    std::uint64_t nr;
    kern::InterposeMechanism mech;
    auto operator<=>(const Key&) const = default;
  };

  void bump(const std::string& counter, std::uint64_t delta = 1) {
    counters_[counter] += delta;
  }
  // Stable reference to a counter's storage (std::map nodes never move), so
  // hot probes can cache the slot and skip the string lookup per event.
  // Invalidated only by clear().
  [[nodiscard]] std::uint64_t& counter_slot(const std::string& name) {
    return counters_[name];
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  void record_latency(std::uint64_t nr, kern::InterposeMechanism mech,
                      std::uint64_t cycles) {
    histograms_[Key{nr, mech}].add(cycles);
  }
  // Stable reference for slot caching, as with counter_slot().
  [[nodiscard]] LatencyHistogram& histogram_slot(std::uint64_t nr,
                                                 kern::InterposeMechanism mech) {
    return histograms_[Key{nr, mech}];
  }
  [[nodiscard]] const std::map<Key, LatencyHistogram>& histograms() const {
    return histograms_;
  }
  // nullptr when no sample was ever recorded for the key.
  [[nodiscard]] const LatencyHistogram* histogram(
      std::uint64_t nr, kern::InterposeMechanism mech) const {
    auto it = histograms_.find(Key{nr, mech});
    return it == histograms_.end() ? nullptr : &it->second;
  }

  // Sum of histogram totals for one mechanism across all syscall numbers —
  // the per-mechanism syscall count the acceptance criteria check against
  // the exporter's per-track event counts.
  [[nodiscard]] std::uint64_t mechanism_total(kern::InterposeMechanism mech) const {
    std::uint64_t sum = 0;
    for (const auto& [key, hist] : histograms_) {
      if (key.mech == mech) sum += hist.total();
    }
    return sum;
  }

  void clear() {
    counters_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<Key, LatencyHistogram> histograms_;
};

// Folds a finished run_smp()'s scheduler statistics into registry counters
// under the "smp." prefix — the bridge that makes the scheduler's steal /
// barrier / shootdown / mailbox accounting visible through the same counter
// surface as everything else (fig5_webservers prints it, BENCH_smp.json
// carries it). Header-only so binaries that only want counters need not link
// the tracer.
inline void record_smp_stats(MetricsRegistry& metrics,
                             const kern::SmpStats& smp) {
  metrics.bump("smp.barriers", smp.barriers);
  metrics.bump("smp.steals", smp.steals);
  metrics.bump("smp.shootdowns", smp.shootdowns);
  metrics.bump("smp.mailbox_signals", smp.mailbox_signals);
  metrics.bump("smp.placements", smp.placement.size());
  for (std::size_t cpu = 0; cpu < smp.cpus.size(); ++cpu) {
    const std::string prefix = "smp.cpu" + std::to_string(cpu);
    metrics.bump(prefix + ".steps", smp.cpus[cpu].steps);
    metrics.bump(prefix + ".slices", smp.cpus[cpu].slices);
    metrics.bump(prefix + ".tasks", smp.cpus[cpu].tasks);
  }
}

}  // namespace lzp::trace
