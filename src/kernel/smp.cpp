// Machine::run_smp — the SMP scheduler (see kernel/smp.hpp for the model).
//
// Structure: a barrier-round loop. Each iteration runs one *parallel phase*
// (every simulated CPU executes rounds_per_barrier round-robin passes over
// its own run queue on the host thread pool) followed by one *serial phase*
// (counter reconciliation, cross-CPU signal drain, clone-child placement,
// SMC/TLB shootdowns, queue pruning). All cross-CPU decisions happen in the
// serial phase in sorted order, which is what makes a gang-placed run a pure
// function of (programs, seed, cpus).
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "base/thread_pool.hpp"
#include "kernel/machine.hpp"

namespace lzp::kern {

namespace {

// Gang grouping: a union-find over tasks where sharing an address space
// (CLONE_VM) or a process (CLONE_THREAD) joins two tasks. Groups are the
// placement unit — they move between CPUs whole, so sharing-dependent
// execution stays sequential within one lane.
class GangGroups {
 public:
  explicit GangGroups(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void join(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

// Per-CPU execution lane counters, padded so two host threads never share a
// cache line while counting.
struct alignas(64) Lane {
  std::uint64_t steps = 0;
  std::uint64_t slices = 0;
};

constexpr std::uint64_t kSmpIdBase = 1'000'000;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

}  // namespace

void Machine::smp_post_remote_signal(Task& sender, Tid target,
                                     const SigInfo& info) {
  std::lock_guard<std::mutex> lock(mailbox_mu_);
  signal_mailbox_.push_back(
      RemoteSignal{target, sender.tid, sender.smp_sig_seq++, info});
}

SmpStats Machine::run_smp(const SmpConfig& config,
                          std::uint64_t max_total_steps) {
  const unsigned cpus = config.cpus == 0 ? 1 : config.cpus;
  if (cpus == 1) {
    // One CPU is, by definition, the single-threaded machine.
    const RunStats stats = run(max_total_steps);
    SmpStats out;
    out.insns = stats.insns;
    out.all_exited = stats.all_exited;
    out.cpus.resize(1);
    out.cpus[0].tasks = live_task_count();
    for (const Tid tid : task_ids()) out.placement.emplace_back(tid, 0);
    return out;
  }

  SmpStats out;
  out.cpus.resize(cpus);
  smp_seed_ = config.seed;
  // Per-CPU id ranges persist across runs on one machine, so a second
  // run_smp never reissues a tid that is still resident in tasks_.
  while (smp_next_tid_.size() < cpus) {
    const auto cpu = static_cast<std::uint64_t>(smp_next_tid_.size());
    smp_next_tid_.push_back(static_cast<Tid>(kSmpIdBase * (cpu + 1)));
    smp_next_pid_.push_back(static_cast<Pid>(kSmpIdBase * (cpu + 1)));
  }

  Xoshiro256 place_rng(config.seed);
  std::vector<std::vector<Task*>> queues(cpus);

  // Places a batch of tasks: gang mode keeps sharers together (preferring a
  // CPU a sharer already lives on), everything else draws a seeded CPU.
  // Batches are processed in tid order so placement is reproducible.
  auto place_batch = [&](std::vector<Task*> batch) {
    std::sort(batch.begin(), batch.end(),
              [](const Task* a, const Task* b) { return a->tid < b->tid; });
    // Union-find over the batch plus pins to already-placed sharers.
    GangGroups groups(batch.size());
    std::map<const void*, std::size_t> owner;  // AS / Process -> batch index
    std::vector<int> pinned(batch.size(), -1);
    if (config.gang_shared) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        for (const void* key : {static_cast<const void*>(batch[i]->mem.get()),
                                static_cast<const void*>(batch[i]->process.get())}) {
          auto [it, inserted] = owner.emplace(key, i);
          if (!inserted) groups.join(i, it->second);
        }
      }
      // A batch task sharing with an already-resident task is pinned to that
      // task's CPU (children normally arrive pre-pinned via parent.cpu; this
      // also covers tasks load()ed between runs).
      for (unsigned c = 0; c < cpus; ++c) {
        for (const Task* resident : queues[c]) {
          for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch[i]->mem == resident->mem ||
                batch[i]->process == resident->process) {
              pinned[i] = static_cast<int>(c);
            }
          }
        }
      }
    }
    // One seeded draw per group root, in batch order; pins win over draws.
    std::map<std::size_t, unsigned> root_cpu;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t root = config.gang_shared ? groups.find(i) : i;
      auto it = root_cpu.find(root);
      if (it == root_cpu.end()) {
        it = root_cpu
                 .emplace(root, static_cast<unsigned>(place_rng.next_below(cpus)))
                 .first;
      }
      if (pinned[i] >= 0) it->second = static_cast<unsigned>(pinned[i]);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Task* task = batch[i];
      const std::size_t root = config.gang_shared ? groups.find(i) : i;
      const unsigned cpu = root_cpu.at(root);
      task->cpu = cpu;
      task->smp_rng =
          Xoshiro256{config.seed ^ (kGolden * static_cast<std::uint64_t>(task->tid))};
      task->smp_seen_code_gen = task->mem->code_gen();
      task->smp_seen_layout_gen = task->mem->layout_gen();
      queues[cpu].push_back(task);
      out.placement.emplace_back(task->tid, cpu);
    }
  };

  // Deterministic work stealing: move whole gang groups from the fullest
  // queue to the emptiest until the task-count spread is <= 1. Runs in the
  // serial phase only, so "stealing" is a rebalance decision, not a race.
  auto rebalance = [&] {
    for (std::size_t guard = 0; guard < out.placement.size() + cpus; ++guard) {
      unsigned max_cpu = 0;
      unsigned min_cpu = 0;
      for (unsigned c = 1; c < cpus; ++c) {
        if (queues[c].size() > queues[max_cpu].size()) max_cpu = c;
        if (queues[c].size() < queues[min_cpu].size()) min_cpu = c;
      }
      if (queues[max_cpu].size() - queues[min_cpu].size() <= 1) return;
      // The movable unit is a whole gang group (all sharers are co-resident
      // on the donor by the gang invariant, so grouping within the donor's
      // queue is exact): find the donor's smallest group (ties: lowest
      // leader tid) that still helps when moved.
      std::vector<Task*>& donor = queues[max_cpu];
      GangGroups donor_groups(donor.size());
      if (config.gang_shared) {
        std::map<const void*, std::size_t> donor_owner;
        for (std::size_t i = 0; i < donor.size(); ++i) {
          for (const void* key :
               {static_cast<const void*>(donor[i]->mem.get()),
                static_cast<const void*>(donor[i]->process.get())}) {
            auto [it, inserted] = donor_owner.emplace(key, i);
            if (!inserted) donor_groups.join(i, it->second);
          }
        }
      }
      std::map<std::size_t, std::vector<Task*>> by_group;
      for (std::size_t i = 0; i < donor.size(); ++i) {
        by_group[config.gang_shared ? donor_groups.find(i) : i].push_back(
            donor[i]);
      }
      std::vector<Task*>* best = nullptr;
      Tid best_tid = 0;
      for (auto& [key, members] : by_group) {
        const Tid leader = members.front()->tid;
        if (best == nullptr || members.size() < best->size() ||
            (members.size() == best->size() && leader < best_tid)) {
          best = &members;
          best_tid = leader;
        }
      }
      const std::size_t moved = best->size();
      if (queues[max_cpu].size() - moved < queues[min_cpu].size() + moved &&
          moved > 1) {
        return;  // moving the group would just flip the imbalance
      }
      for (Task* task : *best) {
        task->cpu = min_cpu;
        queues[min_cpu].push_back(task);
        out.placement.emplace_back(task->tid, min_cpu);
      }
      std::erase_if(queues[max_cpu], [&](Task* task) {
        return std::find(best->begin(), best->end(), task) != best->end();
      });
      ++out.steals;
    }
  };

  auto reconcile_counters = [&] {
    std::uint64_t insns = 0;
    std::uint64_t cycles = 0;
    for (const auto& [tid, task] : tasks_) {
      insns += task->insns_retired;
      cycles += task->cycles;
    }
    for (const auto& task : nursery_) {
      insns += task->insns_retired;
      cycles += task->cycles;
    }
    total_insns_ = insns;
    total_cycles_ = cycles;
  };

  // Non-gang soundness: CLONE_VM siblings on different CPUs serialize at
  // slice granularity through a per-address-space lock, then a per-process
  // lock — the fixed AS -> Process order (each slice holds exactly one of
  // each, and process locks are only ever taken under an AS lock, so the
  // hierarchy cannot cycle). The registries are built in serial phases;
  // a mid-slice execve swaps in a brand-new (necessarily private) space,
  // which safely runs unlocked until the next barrier registers it.
  std::map<const void*, std::unique_ptr<std::mutex>> as_locks;
  std::map<const void*, std::unique_ptr<std::mutex>> proc_locks;
  auto register_slice_locks = [&] {
    if (config.gang_shared) return;
    for (auto& [tid, task] : tasks_) {
      if (as_locks.find(task->mem.get()) == as_locks.end()) {
        as_locks.emplace(task->mem.get(), std::make_unique<std::mutex>());
      }
      if (proc_locks.find(task->process.get()) == proc_locks.end()) {
        proc_locks.emplace(task->process.get(), std::make_unique<std::mutex>());
      }
    }
  };

  // Initial placement: every resident task, in tid order.
  merge_nursery();
  {
    std::vector<Task*> batch;
    for (auto& [tid, task] : tasks_) {
      if (task->runnable()) batch.push_back(task.get());
    }
    place_batch(std::move(batch));
    rebalance();
    register_slice_locks();
  }

  // Lane count: enough host threads to use the machine's cores (and to give
  // TSan real concurrency on small hosts), without one thread per simulated
  // CPU when sweeping datacenter-scale configs.
  ThreadPool pool(std::min(cpus, std::max(ThreadPool::host_cores(), 8U)));
  std::vector<Lane> lanes(cpus);

  const std::uint64_t deadline = total_steps_ + max_total_steps;
  // Previous-barrier lane counters, so each timeline sample carries this
  // round's per-CPU deltas rather than running totals.
  std::vector<std::uint64_t> prev_steps(cpus, 0);
  std::vector<std::uint64_t> prev_slices(cpus, 0);
  smp_active_ = true;
  while (total_steps_ < deadline) {
    bool any_runnable = false;
    for (unsigned c = 0; c < cpus && !any_runnable; ++c) {
      for (Task* task : queues[c]) {
        if (task->runnable()) {
          any_runnable = true;
          break;
        }
      }
    }
    if (!any_runnable) break;

    // --- parallel phase ---------------------------------------------------
    // Each index is one simulated CPU draining its own queue. The budget
    // check happens only at barriers, so a round can overshoot the deadline
    // by at most cpus * rounds_per_barrier * slice_insns steps.
    pool.run_indexed(cpus, [&](unsigned c) {
      Lane& lane = lanes[c];
      for (unsigned round = 0; round < config.rounds_per_barrier; ++round) {
        for (Task* task : queues[c]) {
          if (!task->runnable()) continue;
          ++lane.slices;
          if (config.gang_shared) {
            run_slice_counted(*task, config.slice_insns, lane.steps);
            continue;
          }
          // AS -> Process slice-lock order (see register_slice_locks).
          auto as_it = as_locks.find(task->mem.get());
          std::unique_lock<std::mutex> as_lock;
          if (as_it != as_locks.end()) {
            as_lock = std::unique_lock<std::mutex>(*as_it->second);
          }
          auto proc_it = proc_locks.find(task->process.get());
          std::unique_lock<std::mutex> proc_lock;
          if (proc_it != proc_locks.end()) {
            proc_lock = std::unique_lock<std::mutex>(*proc_it->second);
          }
          run_slice_counted(*task, config.slice_insns, lane.steps);
        }
      }
    });
    ++out.barriers;

    // --- serial phase -----------------------------------------------------
    std::uint64_t lane_steps = 0;
    for (const Lane& lane : lanes) lane_steps += lane.steps;
    total_steps_ = deadline - max_total_steps + lane_steps;
    reconcile_counters();

    // Cross-CPU signals: drained in (target, sender, seq) order — the
    // deterministic stand-in for IPI arrival order.
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      std::sort(signal_mailbox_.begin(), signal_mailbox_.end(),
                [](const RemoteSignal& a, const RemoteSignal& b) {
                  return std::tie(a.target, a.sender, a.seq) <
                         std::tie(b.target, b.sender, b.seq);
                });
      for (const RemoteSignal& posted : signal_mailbox_) {
        if (Task* task = find_task(posted.target);
            task != nullptr && task->runnable()) {
          task->pending_signals.push_back(posted.info);
          ++out.mailbox_signals;
        }
      }
      signal_mailbox_.clear();
    }

    // Clone children born this round: placed now (they pre-ran nothing — a
    // child never executes before its first barrier, matching a real kernel
    // waking a new thread on another CPU).
    if (!nursery_.empty()) {
      std::vector<Task*> batch;
      {
        std::lock_guard<std::mutex> lock(nursery_mu_);
        for (const auto& task : nursery_) batch.push_back(task.get());
      }
      merge_nursery();
      place_batch(std::move(batch));
      rebalance();
    }
    register_slice_locks();

    // Shootdown pass: a task whose address space moved past the generation
    // epochs its CPU last observed gets its caches flushed — the moment the
    // "IPI" lands. Counted only when the space is genuinely cross-CPU
    // shared; a single-CPU gang invalidates through the generation checks
    // exactly like the single-threaded machine and needs no IPI.
    for (auto& [tid, task] : tasks_) {
      if (!task->runnable()) continue;
      const std::uint64_t code_gen = task->mem->code_gen();
      const std::uint64_t layout_gen = task->mem->layout_gen();
      if (code_gen == task->smp_seen_code_gen &&
          layout_gen == task->smp_seen_layout_gen) {
        continue;
      }
      bool shared_cross_cpu = false;
      for (const auto& [other_tid, other] : tasks_) {
        if (other->mem == task->mem && other->cpu != task->cpu &&
            other->runnable()) {
          shared_cross_cpu = true;
          break;
        }
      }
      if (shared_cross_cpu) {
        task->dcache.flush();
        task->bcache.flush();
        task->dtlb.flush();
        ++out.shootdowns;
      }
      task->smp_seen_code_gen = code_gen;
      task->smp_seen_layout_gen = layout_gen;
    }

    // Prune exited tasks from the queues (their Task objects stay in tasks_,
    // like zombies awaiting a wait() that this kernel models implicitly).
    for (auto& queue : queues) {
      std::erase_if(queue, [](const Task* task) { return !task->runnable(); });
    }

    // Telemetry sample for this barrier round — serial phase, so it is a
    // deterministic function of the schedule. Queue depths are taken after
    // placement/rebalance/prune: what the next parallel phase starts with.
    if (out.timeline.size() < SmpStats::kMaxTimelineSamples) {
      SmpBarrierSample sample;
      sample.round = out.barriers - 1;
      sample.total_insns = total_insns_;
      sample.total_cycles = total_cycles_;
      sample.steals = out.steals;
      sample.shootdowns = out.shootdowns;
      sample.mailbox_signals = out.mailbox_signals;
      sample.cpu_steps.resize(cpus);
      sample.cpu_slices.resize(cpus);
      sample.run_queue.resize(cpus);
      for (unsigned c = 0; c < cpus; ++c) {
        sample.cpu_steps[c] = lanes[c].steps - prev_steps[c];
        sample.cpu_slices[c] = lanes[c].slices - prev_slices[c];
        sample.run_queue[c] = queues[c].size();
        prev_steps[c] = lanes[c].steps;
        prev_slices[c] = lanes[c].slices;
      }
      out.timeline.push_back(std::move(sample));
    } else {
      out.timeline_truncated = true;
    }
  }
  smp_active_ = false;

  // Final reconciliation covers the last partial round.
  merge_nursery();
  reconcile_counters();
  flush_profile_mirror();
  {
    std::uint64_t lane_steps = 0;
    for (const Lane& lane : lanes) lane_steps += lane.steps;
    total_steps_ = deadline - max_total_steps + lane_steps;
  }

  out.insns = total_insns_;
  out.all_exited = live_task_count() == 0;
  for (unsigned c = 0; c < cpus; ++c) {
    out.cpus[c].steps = lanes[c].steps;
    out.cpus[c].slices = lanes[c].slices;
  }
  // Final residency per CPU (a task's last placement entry wins; exited
  // tasks count where they ran — the queues themselves are already pruned).
  std::map<Tid, unsigned> final_cpu;
  for (const auto& [tid, cpu] : out.placement) final_cpu[tid] = cpu;
  for (const auto& [tid, cpu] : final_cpu) ++out.cpus[cpu].tasks;
  return out;
}

}  // namespace lzp::kern
