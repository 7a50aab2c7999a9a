// Instrumentation for the benchmark's traced run.
//
// Everything here attaches from outside the simulator through its public
// surface: timing shims inserted between the layers of a handler chain, a
// TraceSink subclass that counts probe events, and a syscall observer. None
// of it makes Machine::can_batch_execute false (no insn observer, no slice
// observer, no schedule hook, no ptrace), so the traced run executes the
// same engine the untraced runs do. Every accumulator is safe under the
// concurrent lanes of Machine::run_smp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "interpose/handler.hpp"
#include "kernel/machine.hpp"
#include "kernel/trace_sink.hpp"

namespace perfbench {

// Handler-chain layers, outermost first. A workload wraps each layer it has
// in a TimingShim; the innermost shim sits directly above the DummyHandler,
// whose only work is InterposeContext::pass_through (kernel dispatch).
enum class Layer : std::uint8_t { kReplay, kPolicy, kPassThrough };
inline constexpr std::size_t kNumLayers = 3;

// Host time spent inside one shim: total, call count, and every call's
// duration (for percentiles).
class LayerClock {
 public:
  void add(std::uint64_t ns);
  [[nodiscard]] std::uint64_t total_ns() const noexcept { return total_ns_; }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  // Linear-interpolated quantile (q in [0, 1]) of the per-call durations, in
  // ns; 0 when the shim never ran.
  [[nodiscard]] double quantile_ns(double q) const;

 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> calls_{0};
  mutable std::mutex mu_;
  std::vector<std::uint32_t> samples_;  // guarded by mu_
};

// A SyscallHandler that forwards to `inner` and times the call. Re-entry of
// the same layer on one thread is timed only at the outermost level, so a
// layer's time never counts twice.
class TimingShim final : public lzp::interpose::SyscallHandler {
 public:
  TimingShim(Layer layer, std::shared_ptr<lzp::interpose::SyscallHandler> inner,
             LayerClock& clock)
      : layer_(layer), inner_(std::move(inner)), clock_(clock) {}

  std::uint64_t handle(lzp::interpose::InterposeContext& ctx) override;
  bool pre_execute(lzp::interpose::InterposeContext& ctx,
                   std::uint64_t* result) override {
    return inner_->pre_execute(ctx, result);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  Layer layer_;
  std::shared_ptr<lzp::interpose::SyscallHandler> inner_;
  LayerClock& clock_;
};

// Counts the kernel and interposer probe events the per-layer report needs.
class CountingSink final : public lzp::kern::TraceSink {
 public:
  void on_interpose_enter(const lzp::kern::Task&, std::uint64_t,
                          lzp::kern::InterposeMechanism mech) override {
    ++interpositions_[static_cast<std::size_t>(mech)];
  }
  void on_selector_flip(const lzp::kern::Task&, std::uint8_t) override {
    ++selector_flips_;
  }
  void on_site_rewrite(const lzp::kern::Task&, std::uint64_t) override {
    ++site_rewrites_;
  }
  void on_signal_delivery(const lzp::kern::Task&,
                          const lzp::kern::SigInfo&) override {
    ++signals_;
  }
  void on_task_event(const lzp::kern::Task&, TaskEvent event,
                     std::uint64_t) override {
    if (event == TaskEvent::kSwitch) ++task_switches_;
  }

  [[nodiscard]] std::uint64_t interpositions(
      lzp::kern::InterposeMechanism mech) const noexcept {
    return interpositions_[static_cast<std::size_t>(mech)];
  }
  [[nodiscard]] std::uint64_t selector_flips() const noexcept { return selector_flips_; }
  [[nodiscard]] std::uint64_t site_rewrites() const noexcept { return site_rewrites_; }
  [[nodiscard]] std::uint64_t signals() const noexcept { return signals_; }
  [[nodiscard]] std::uint64_t task_switches() const noexcept { return task_switches_; }

 private:
  std::array<std::atomic<std::uint64_t>, lzp::kern::kNumMechanisms> interpositions_{};
  std::atomic<std::uint64_t> selector_flips_{0};
  std::atomic<std::uint64_t> site_rewrites_{0};
  std::atomic<std::uint64_t> signals_{0};
  std::atomic<std::uint64_t> task_switches_{0};
};

// Everything one traced run attaches. Must outlive the machine it is
// attached to (the shims and the observer refer to it).
class Probe {
 public:
  Probe() = default;
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // Wraps one handler-chain layer in a timing shim.
  std::shared_ptr<lzp::interpose::SyscallHandler> wrap(
      Layer layer, std::shared_ptr<lzp::interpose::SyscallHandler> inner);
  // Installs the sink and the syscall observer on `machine`.
  void attach(lzp::kern::Machine& machine);

  [[nodiscard]] const LayerClock& clock(Layer layer) const noexcept {
    return clocks_[static_cast<std::size_t>(layer)];
  }
  // The outermost layer this workload wrapped (the whole handler chain).
  [[nodiscard]] const LayerClock& outermost() const noexcept;
  [[nodiscard]] const CountingSink& sink() const noexcept { return sink_; }
  [[nodiscard]] std::uint64_t syscalls_sim() const noexcept { return syscalls_sim_; }
  [[nodiscard]] std::uint64_t syscalls_host() const noexcept { return syscalls_host_; }

 private:
  std::array<LayerClock, kNumLayers> clocks_;
  std::array<bool, kNumLayers> wrapped_{};
  CountingSink sink_;
  std::atomic<std::uint64_t> syscalls_sim_{0};
  std::atomic<std::uint64_t> syscalls_host_{0};
};

}  // namespace perfbench
