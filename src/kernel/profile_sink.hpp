// The kernel-side profiling probe interface.
//
// A ProfileSink is the cycle-attribution hook the Machine reports into: every
// call to Machine::charge() is mirrored to on_cycles() tagged with the task's
// current attribution class, and the execution engines report guest
// instruction retirement sites (exactly per block when the superblock engine
// runs, per instruction under step_once). The mirror is coalesced: runs of
// consecutive charges sharing one (class, detail) attribution arrive as a
// single on_cycles call (flushed on every attribution change and at run-loop
// exit), so the per-charge cost is two compares and an add, not a virtual
// call. Because every charged cycle still passes through on_cycles, the
// per-class totals a sink accumulates sum to Machine::total_cycles() exactly
// whenever the machine is idle — the invariant examples/profile and
// bench/overhead gate on.
//
// Probes never charge simulated cycles and never mutate machine state:
// attaching a sink must leave cycle/instruction counters bit-identical
// (tests/profile_test.cpp asserts this across all four mechanisms and under
// run_smp). The full-fat implementation is profile::Profiler (src/profile).
#pragma once

#include <cstdint>
#include <string_view>

namespace lzp::kern {

struct Task;

// Who a charged cycle belongs to. The split mirrors the paper's cost
// accounting: application work, interposer-runtime work (trampolines, SIGSYS
// handlers, host tracer stops, supervisors), kernel syscall-path work
// (entry/exit, dispatch, filters), and decorator work layered on the handler
// chain (the record/replay and policy subsystems).
enum class CycleClass : std::uint8_t {
  kGuest = 0,    // simulated application instructions + faults/signals
  kInterposer,   // host-bound runtime code: trampolines, handlers, tracers
  kKernel,       // syscall entry path: intercept checks, dispatch, filters
  kDecorator,    // handler decorators: record capture, policy enforcement
};
inline constexpr std::size_t kNumCycleClasses = 4;

[[nodiscard]] constexpr std::string_view to_string(CycleClass cls) noexcept {
  switch (cls) {
    case CycleClass::kGuest: return "guest";
    case CycleClass::kInterposer: return "interposer";
    case CycleClass::kKernel: return "kernel";
    case CycleClass::kDecorator: return "decorator";
  }
  return "?";
}

// Task::cycle_detail values that are not addresses/syscall numbers. The
// detail qualifies the class: for kKernel it is the syscall number being
// dispatched; for kInterposer it is the host binding address (>=
// Machine::kHostRegionBase) or one of the sentinels below; for kDecorator a
// decorator id (kDetailRecorder).
inline constexpr std::uint64_t kDetailNone = 0;
inline constexpr std::uint64_t kDetailPtraceStop = 1;
inline constexpr std::uint64_t kDetailUserNotif = 2;
inline constexpr std::uint64_t kDetailRecorder = 3;

class ProfileSink {
 public:
  virtual ~ProfileSink() = default;

  // Runtime gate, non-virtual so Machine::profile_sink() can filter a
  // disabled sink with a plain load (same pattern as TraceSink::enabled()).
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Mirror of a run of Machine::charge(task, ...) calls that shared one
  // attribution: `cls`/`detail` are the class and qualifier the cycles were
  // charged under (passed explicitly — the task may have moved on by flush
  // time). Every charged cycle reaches exactly one on_cycles call, so
  // per-class sums are exact by construction.
  virtual void on_cycles(const Task&, CycleClass, std::uint64_t /*detail*/,
                         std::uint64_t /*cycles*/) {}

  // The superblock engine retired `retired` instructions of the block
  // starting at `block_start`, about to charge `cycles` for them — exact
  // per-block site attribution. Fired immediately *before* the matching
  // charge, so a sink can establish site/stack context that the charge's
  // on_cycles mirror is then folded under.
  virtual void on_guest_block(const Task&, std::uint64_t /*block_start*/,
                              std::uint32_t /*retired*/,
                              std::uint64_t /*cycles*/) {}

  // The step-engine site probe: step_once retired an instruction at `rip`,
  // and `cycles` is everything charged for guest instructions since the
  // previous probe. Fired on every step_sample_period()-th retirement
  // (period 1 — the default — makes it exactly per instruction, cycles the
  // single instruction's cost), immediately before the matching charge.
  virtual void on_guest_insn(const Task&, std::uint64_t /*rip*/,
                             std::uint64_t /*cycles*/) {}

  // How often the machine fires on_guest_insn under the step engine: every
  // Nth retired instruction per task, with the skipped instructions' cycles
  // batched onto the next probe (site-map sums stay exact; sites coarsen).
  // Read once at set_profile_sink time. The block engine ignores this — its
  // probe already amortizes to one call per superblock.
  [[nodiscard]] virtual std::uint64_t step_sample_period() const noexcept {
    return 1;
  }

 private:
  bool enabled_ = true;
};

}  // namespace lzp::kern
