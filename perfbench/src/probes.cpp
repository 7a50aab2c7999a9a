#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace perfbench {

void LayerClock::add(std::uint64_t ns) {
  total_ns_ += ns;
  ++calls_;
  const auto sample = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(ns, std::numeric_limits<std::uint32_t>::max()));
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(sample);
}

double LayerClock::quantile_ns(double q) const {
  std::vector<std::uint32_t> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted = samples_;
  }
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

std::uint64_t TimingShim::handle(lzp::interpose::InterposeContext& ctx) {
  // Per host thread, so concurrent SMP lanes each time their own calls.
  thread_local std::array<int, kNumLayers> depth{};
  int& level = depth[static_cast<std::size_t>(layer_)];
  if (level > 0) return inner_->handle(ctx);
  ++level;
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t result = inner_->handle(ctx);
  const auto end = std::chrono::steady_clock::now();
  --level;
  clock_.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()));
  return result;
}

std::shared_ptr<lzp::interpose::SyscallHandler> Probe::wrap(
    Layer layer, std::shared_ptr<lzp::interpose::SyscallHandler> inner) {
  const auto index = static_cast<std::size_t>(layer);
  wrapped_[index] = true;
  return std::make_shared<TimingShim>(layer, std::move(inner), clocks_[index]);
}

void Probe::attach(lzp::kern::Machine& machine) {
  machine.set_trace_sink(&sink_);
  machine.add_syscall_observer(
      [this](const lzp::kern::Task&, std::uint64_t,
             const std::array<std::uint64_t, 6>&,
             lzp::kern::Machine::SyscallOrigin origin) {
        if (origin == lzp::kern::Machine::SyscallOrigin::kHostCode) {
          ++syscalls_host_;
        } else {
          ++syscalls_sim_;
        }
      });
}

const LayerClock& Probe::outermost() const noexcept {
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    if (wrapped_[i]) return clocks_[i];
  }
  return clocks_[static_cast<std::size_t>(Layer::kPassThrough)];
}

}  // namespace perfbench
