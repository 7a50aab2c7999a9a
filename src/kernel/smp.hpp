// SMP substrate: multi-CPU execution of the simulated machine.
//
// Machine::run_smp() places tasks onto N simulated CPUs (seeded, reproducible
// placement) and executes each CPU's run queue between deterministic
// barriers:
//
//   serial:   merge clone children, place them (gang groups stay together),
//             rebalance queues (deterministic work stealing), drain the
//             cross-CPU signal mailbox in sorted order, run the SMC/TLB
//             shootdown pass (generation epochs).
//   parallel: every CPU runs `rounds_per_barrier` round-robin passes over its
//             own queue, one `slice_insns` slice per runnable task per pass,
//             counting steps into a private lane.
//
// A parallel phase runs its lanes on a host thread pool (at most one lane per
// host core, started on first use) only when at least two CPUs have work and
// the lanes have measured clearly cheaper per guest step than running inline
// on this host; otherwise the calling thread runs lanes 0..cpus-1 in order.
// Which host thread runs a lane never changes a simulated result.
//
// Determinism: with gang placement (default), tasks sharing an address space
// or a process land on the same CPU, so all sharing-dependent execution is
// sequential within one lane and the whole run is a pure function of
// (programs, seed, cpus). Cross-CPU interactions go through deterministic
// channels: the signal mailbox is drained in (target, sender, seq) order at
// barriers, tids/pids come from per-CPU ranges, and sys_getrandom draws from
// per-task streams. Kernel tables shared across CPUs (VFS, net) are
// internally locked; their results are order-independent for disjoint
// resources (per-worker listeners), which is what the fig5 SMP benchmark
// uses. Sharing one listener across CPUs stays memory-safe but its accept
// interleaving is host-timing dependent — see DESIGN.md §10.
//
// `gang_shared = false` lifts gang placement: CLONE_VM siblings may run
// truly concurrently on different CPUs. Soundness then comes from per-slice
// locking: a CPU holds the task's address-space lock, then its process lock
// (fixed order) for the whole slice — the "per-mm big lock" model. Execution
// remains memory-safe and TSan-clean, but the sibling interleaving is a real
// schedule race, so bit-determinism is only guaranteed per seed in gang mode.
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/task.hpp"

namespace lzp::kern {

struct SmpConfig {
  unsigned cpus = 1;
  std::uint64_t seed = 0;
  // Place tasks sharing an address space or a process on one CPU (see
  // header comment). Default on: deterministic and contention-free.
  bool gang_shared = true;
  // Steps per scheduling slice (the single-CPU scheduler's kSliceInsns).
  std::uint64_t slice_insns = 64;
  // Round-robin passes each CPU makes over its queue between barriers.
  // Higher amortizes barrier cost; lower tightens cross-CPU signal latency.
  unsigned rounds_per_barrier = 4;
};

struct CpuStats {
  std::uint64_t steps = 0;   // machine steps this CPU's lane executed
  std::uint64_t slices = 0;  // scheduling slices granted
  std::uint64_t tasks = 0;   // tasks resident at the final barrier
};

// One barrier round's scheduler snapshot, taken in the serial phase (so it
// is deterministic under gang placement). Per-CPU values are deltas for the
// parallel phase that just finished; queue depths are post-rebalance, i.e.
// what the *next* parallel phase starts with. The exporter turns these into
// Perfetto counter tracks and a per-round span timeline.
struct SmpBarrierSample {
  std::uint64_t round = 0;            // barrier index, 0-based
  std::uint64_t total_insns = 0;      // machine-wide insns at the barrier
  std::uint64_t total_cycles = 0;     // machine-wide cycles at the barrier
  std::uint64_t steals = 0;           // cumulative
  std::uint64_t shootdowns = 0;       // cumulative
  std::uint64_t mailbox_signals = 0;  // cumulative
  std::vector<std::uint64_t> cpu_steps;   // this round's steps per CPU
  std::vector<std::uint64_t> cpu_slices;  // this round's slices per CPU
  std::vector<std::uint64_t> run_queue;   // post-rebalance depth per CPU
};

struct SmpStats {
  std::uint64_t insns = 0;  // total_insns() at the end of the run
  bool all_exited = false;
  std::vector<CpuStats> cpus;
  std::uint64_t barriers = 0;
  std::uint64_t steals = 0;      // rebalance moves of a task (or gang group)
  std::uint64_t shootdowns = 0;  // cross-CPU generation-epoch TLB flushes
  std::uint64_t mailbox_signals = 0;  // cross-CPU signals drained at barriers
  // Every placement decision made during the run: (tid, cpu), in decision
  // order. The determinism suite compares this across runs.
  std::vector<std::pair<Tid, unsigned>> placement;
  // Per-barrier-round telemetry (capped at kMaxTimelineSamples rounds so a
  // long run cannot grow it unboundedly; the cap drops the tail, and
  // timeline_truncated records that it happened).
  static constexpr std::size_t kMaxTimelineSamples = 65536;
  std::vector<SmpBarrierSample> timeline;
  bool timeline_truncated = false;
  // Parallel phases run inline on the calling thread and on host lanes.
  // They depend on host timing, so no exporter or exact comparison reads
  // them (trace::record_smp_stats leaves them out).
  std::uint64_t host_inline_phases = 0;
  std::uint64_t host_parallel_phases = 0;
};

}  // namespace lzp::kern
