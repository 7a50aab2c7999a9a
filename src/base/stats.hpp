// Statistics helpers used by the benchmark harnesses and the tracer.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace lzp {

[[nodiscard]] double median(std::vector<double> samples) noexcept;

// Paired host-time comparison, the one estimator behind every host-time gate.
// Each arm runs one repetition and returns the host seconds of its own timed
// region (positive); arm 0 is the baseline. One warm-up round runs first and
// is discarded. Every later round runs each arm once, starting one arm later
// than the round before, and then the baseline once more: the A/A control.
// Rounds go on until at least kPairedMinRounds have run and their returned
// seconds sum to at least kPairedBudgetSeconds. An arm's ratio is the median
// over rounds of its seconds over the baseline's in the same round, so a host
// slowdown that outlasts a round cancels. The A/A ratio (second baseline run
// over the first) is what an arm with no cost reads. On a shared 4-vCPU host
// a round's ratio scatters by about ±4% (interquartile); 8 s of ~15 ms runs
// gives the ~100 rounds that hold the median to about ±0.5%, as a 1.02 bound
// needs. The minimum keeps ~100 ms arms from stopping after a few rounds.
inline constexpr double kPairedBudgetSeconds = 8.0;
inline constexpr std::size_t kPairedMinRounds = 40;

struct PairedArm {
  std::string name;
  std::function<double()> run;
};

struct PairedResult {
  struct Arm {
    std::string name;
    double median_seconds = 0.0;
    double median_ratio = 0.0;  // 1 for the baseline
  };
  std::vector<Arm> arms;
  double aa_ratio = 0.0;
  std::size_t rounds = 0;
};

[[nodiscard]] PairedResult paired_ratios(const std::vector<PairedArm>& arms);

// Streaming accumulator for single-pass mean/variance (Welford).
class RunningStats {
 public:
  void add(double sample) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace lzp
