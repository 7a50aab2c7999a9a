// The full-fat TraceSink: flight recorder + metrics registry.
//
// A Tracer attaches to a Machine as its trace sink and turns every probe into
// (a) a typed event in the ring buffer and (b) counter/histogram updates in
// the registry. It consumes *only* the kernel probe layer — no Machine
// observers — so it composes freely with replay and user observers, and a
// single `enabled` flag gates all recording at run time (the attach stays,
// the probes become single-branch no-ops).
//
// Enter/exit pairing: each mechanism brackets its handler with
// on_interpose_enter/on_interpose_exit. Pairs are matched through a per-tid
// stack of open frames (nested interposition — a handler issuing an
// interposed syscall — pops in LIFO order), and the latency is the task's own
// cycle delta between the two probes: syscalls complete synchronously within
// one machine step, so no other task's cycles can leak into the interval.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "kernel/machine.hpp"
#include "kernel/trace_sink.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metrics_registry.hpp"

namespace lzp::trace {

class Tracer final : public kern::TraceSink {
 public:
  explicit Tracer(std::size_t ring_capacity = FlightRecorder::kDefaultCapacity)
      : ring_(ring_capacity) {}

  // Installs this tracer as the machine's trace sink. Recording starts
  // immediately (construct-then-attach is enabled by default). The runtime
  // gate is TraceSink::set_enabled: a disabled tracer stays attached but the
  // Machine stops routing probes to it.
  void attach(kern::Machine& machine);
  void detach(kern::Machine& machine);

  [[nodiscard]] const FlightRecorder& ring() const noexcept { return ring_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }
  // Mutable view, for folding in end-of-run aggregates that have no per-event
  // probe (record_smp_stats).
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  void clear();

  // SMP mode: probes fire from several host threads at once, so a concurrent
  // tracer serializes each probe through an internal mutex and timestamps
  // events with the task's own cycle counter (the machine-global counter is
  // stale between barriers). Off by default — the single-threaded hot path
  // (gated by bench/overhead) stays lock-free. Flip only while no run
  // is in progress.
  void set_concurrent(bool on) noexcept { concurrent_ = on; }
  [[nodiscard]] bool concurrent() const noexcept { return concurrent_; }

  // TraceSink probes.
  void on_interpose_enter(const kern::Task& task, std::uint64_t nr,
                          kern::InterposeMechanism mech) override;
  void on_interpose_exit(const kern::Task& task, std::uint64_t nr,
                         kern::InterposeMechanism mech,
                         std::uint64_t result) override;
  void on_selector_flip(const kern::Task& task, std::uint8_t value) override;
  void on_site_rewrite(const kern::Task& task, std::uint64_t site_addr) override;
  void on_signal_delivery(const kern::Task& task,
                          const kern::SigInfo& info) override;
  void on_seccomp_decision(const kern::Task& task, std::uint64_t nr,
                           std::uint32_t action) override;
  void on_block_invalidation(const kern::Task& task, std::uint64_t rip) override;
  void on_mechanism_install(const kern::Task& task,
                            kern::InterposeMechanism mech) override;
  void on_crosscheck(const kern::Task& task, std::uint64_t site,
                     std::uint8_t verdict, std::uint8_t outcome) override;
  void on_policy_decision(const kern::Task& task, std::uint64_t nr,
                          std::uint64_t from_state,
                          kern::PolicyDecision decision) override;
  void on_task_event(const kern::Task& task, TaskEvent event,
                     std::uint64_t detail) override;

 private:
  struct OpenFrame {
    std::uint64_t nr;
    kern::InterposeMechanism mech;
    std::uint64_t enter_task_cycles;   // task.cycles at enter (latency base)
    std::uint64_t enter_total_cycles;  // global stamp at enter (export ts)
  };

  void push_event(const kern::Task& task, Event event);
  [[nodiscard]] std::uint64_t now() const noexcept;
  // Held for the whole probe when concurrent; a released (empty) lock
  // otherwise, so the single-threaded path pays one branch and no atomic.
  [[nodiscard]] std::unique_lock<std::mutex> maybe_lock() {
    return concurrent_ ? std::unique_lock<std::mutex>(mu_)
                       : std::unique_lock<std::mutex>();
  }
  [[nodiscard]] std::vector<OpenFrame>& open_frames(kern::Tid tid);
  [[nodiscard]] std::uint64_t& cached_counter(std::uint64_t*& slot,
                                              const char* name);
  void reset_slot_caches() noexcept;
  [[nodiscard]] std::pair<std::uint64_t*, std::uint64_t*>& policy_state_slots(
      std::uint64_t state);

  kern::Machine* machine_ = nullptr;
  bool concurrent_ = false;
  std::mutex mu_;
  FlightRecorder ring_;
  MetricsRegistry metrics_;
  std::map<kern::Tid, std::vector<OpenFrame>> open_;

  // Hot-path slot caches into the registry's node-stable maps (reset by
  // clear()). The per-event cost is what bench/overhead.cpp gates, so
  // the common probes must not do a string-keyed map lookup per event.
  std::array<std::uint64_t*, kern::kNumMechanisms> syscall_count_slots_{};
  std::uint64_t* policy_transitions_slot_ = nullptr;
  std::uint64_t* policy_violations_slot_ = nullptr;
  // Per-automaton-state check/violation slots ("policy.state.<name>.*"):
  // policies have a handful of states, so one map lookup keyed by the raw
  // state id (no string formatting) amortizes to a cheap hit.
  std::map<std::uint64_t, std::pair<std::uint64_t*, std::uint64_t*>>
      policy_state_slots_;
  std::uint64_t* selector_flip_slot_ = nullptr;
  std::uint64_t* signals_delivered_slot_ = nullptr;
  std::uint64_t* sigsys_slot_ = nullptr;
  std::uint64_t* seccomp_decision_slot_ = nullptr;
  LatencyHistogram* last_hist_ = nullptr;
  std::uint64_t last_hist_nr_ = ~0ULL;
  kern::InterposeMechanism last_hist_mech_ = kern::InterposeMechanism::kNone;
  std::vector<OpenFrame>* last_open_ = nullptr;
  kern::Tid last_open_tid_ = 0;
};

}  // namespace lzp::trace
