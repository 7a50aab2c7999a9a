#include "base/stats.hpp"

#include <algorithm>
#include <cmath>

namespace lzp {

double median(std::vector<double> samples) noexcept {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  if (samples.size() % 2 == 1) return samples[mid];
  const double hi = samples[mid];
  const double lo = *std::max_element(samples.begin(),
                                      samples.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

PairedResult paired_ratios(const std::vector<PairedArm>& arms) {
  PairedResult out;
  const std::size_t n = arms.size();
  if (n == 0) return out;
  // Runs round `round` and returns each arm's seconds, the A/A run last.
  const auto run_round = [&](std::size_t round) {
    std::vector<double> seconds(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t arm = (round + i) % n;
      seconds[arm] = arms[arm].run();
    }
    seconds[n] = arms[0].run();
    return seconds;
  };
  (void)run_round(0);  // warm-up
  std::vector<std::vector<double>> seconds(n + 1);
  std::vector<std::vector<double>> ratios(n + 1);
  double spent = 0.0;
  while (out.rounds < kPairedMinRounds || spent < kPairedBudgetSeconds) {
    const std::vector<double> round = run_round(out.rounds++);
    for (std::size_t arm = 0; arm <= n; ++arm) {
      seconds[arm].push_back(round[arm]);
      ratios[arm].push_back(round[arm] / round[0]);
      spent += round[arm];
    }
  }
  for (std::size_t arm = 0; arm < n; ++arm) {
    out.arms.push_back({arms[arm].name, median(seconds[arm]),
                        median(ratios[arm])});
  }
  out.aa_ratio = median(ratios[n]);
  return out;
}

void RunningStats::add(double sample) noexcept {
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace lzp
