#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "mechanisms/sud_tool.hpp"
#include "policy/extract.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

using lzp::interpose::SyscallHandler;

constexpr double kGhz = 2.1;       // Fig. 5's clock for sim_rps
constexpr unsigned kSmpCpus = 4;   // simulated CPUs = host lanes (nproc)

struct Shape {
  unsigned workers;
  bool shared_listener;  // one listener for all workers, else one each
  std::uint32_t connections;  // per listener
  std::uint64_t requests;     // per listener
  std::uint64_t file_bytes;
};

Shape shape_of(Workload workload) {
  switch (workload) {
    case Workload::kWebLazypoline: return {1, true, 36, 2400, 4096};
    case Workload::kWebSudRecord: return {2, true, 36, 2400, 1024};
    case Workload::kSmpLazypoline: return {8, false, 4, 300, 16 * 1024};
  }
  return {};
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: set-up failed: %s\n", what.c_str());
  std::exit(1);
}

void check(const lzp::Status& status, const char* what) {
  if (!status.is_ok()) die(std::string(what) + ": " + status.to_string());
}

template <typename T>
T unwrap(lzp::Result<T> result, const char* what) {
  if (!result.is_ok()) die(std::string(what) + ": " + result.status().to_string());
  return std::move(result).value();
}

// Runs fn() and adds its host time to *acc when acc is non-null.
template <typename Fn>
void timed(double* acc, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  if (acc != nullptr) {
    *acc += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count();
  }
}

// The server's automaton with the edge sendfile -> close removed. The first
// request's close(file) is then off-automaton; a denial does not advance the
// automaton state, so every later syscall is refused too and the run stalls
// until its step budget ends it.
lzp::policy::Automaton without_sendfile_close(const lzp::policy::Automaton& in) {
  lzp::policy::Automaton out;
  out.name = in.name;
  out.source = in.source;
  for (const auto& [from, tos] : in.edges()) {
    out.add_state(from);
    for (const std::uint64_t to : tos) {
      if (from == lzp::kern::kSysSendfile && to == lzp::kern::kSysClose) continue;
      if (const auto* clauses = in.predicate(from, to)) {
        for (const auto& clause : *clauses) out.add_edge(from, to, clause);
      } else {
        out.add_edge(from, to);
      }
    }
  }
  for (const std::uint64_t to : in.from_any()) out.add_from_any(to);
  if (out.allows(lzp::kern::kSysSendfile, lzp::kern::kSysClose)) {
    die("self-test: sendfile -> close is still allowed without its edge");
  }
  return out;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {Workload::kWebLazypoline, "web-lazypoline",
       "paper headline: lazypoline + full xstate, 1 worker, 4 KiB, 36 conns; "
       "host time is the CPU engine walking the VA-0 nop sled"},
      {Workload::kWebSudRecord, "web-sud-record",
       "SUD with Recorder -> PolicyEnforcer -> Dummy, 2 workers, 1 KiB: every "
       "syscall takes SIGSYS; bypasses the sled; only set-up with analysis/policy"},
      {Workload::kSmpLazypoline, "smp-lazypoline",
       "8 lazypoline workers, 16 KiB, 4 simulated CPUs on 4 host threads: the "
       "only workload running SMP barriers and the host thread pool"},
  };
  return kAll;
}

std::optional<Workload> find_workload(std::string_view name) {
  for (const WorkloadInfo& info : workloads()) {
    if (name == info.name) return info.id;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  for (const WorkloadInfo& info : workloads()) {
    if (info.id == workload) return info.name;
  }
  return "?";
}

Instance build(Workload workload, const BuildOptions& options) {
  const Shape shape = shape_of(workload);
  SetupSplit* split = options.split;
  auto phase = [split](double SetupSplit::*field) {
    return split != nullptr ? &(split->*field) : nullptr;
  };

  Instance inst;
  inst.workload = workload;
  inst.seed = options.seed;
  inst.machine = std::make_unique<lzp::kern::Machine>(options.costs);
  lzp::kern::Machine& machine = *inst.machine;
  machine.mmap_min_addr = 0;
  machine.block_exec_enabled = !options.reference_engine;

  const lzp::apps::ServerProfile profile = lzp::apps::nginx_profile();
  check(machine.vfs().put_file_of_size("index.html", shape.file_bytes),
        "seed index.html");
  const unsigned listeners = shape.shared_listener ? 1 : shape.workers;
  for (unsigned i = 0; i < listeners; ++i) {
    lzp::kern::ClientWorkload client;
    client.connections = shape.connections;
    client.total_requests = shape.requests;
    client.response_bytes = profile.header_bytes + shape.file_bytes;
    inst.listeners.push_back(machine.net().create_listener(client));
    inst.requests_expected += shape.requests;
  }

  lzp::isa::Program program;
  timed(phase(&SetupSplit::build_s), [&] {
    program = unwrap(lzp::apps::make_webserver(machine, profile, "index.html"),
                     "build server");
  });
  machine.register_program(program);

  auto wrap = [&](Layer layer, std::shared_ptr<SyscallHandler> handler) {
    return options.probe != nullptr ? options.probe->wrap(layer, std::move(handler))
                                    : handler;
  };
  std::shared_ptr<SyscallHandler> handler =
      wrap(Layer::kPassThrough, std::make_shared<lzp::interpose::DummyHandler>());

  if (workload == Workload::kWebSudRecord) {
    // The server's own static automaton, enforced with the deny verdict.
    lzp::policy::StaticExtraction extraction;
    timed(phase(&SetupSplit::extract_s),
          [&] { extraction = lzp::policy::extract_static(program); });
    if (split != nullptr) split->sites_resolved = extraction.sites_resolved;
    if (options.drop_policy_edge) {
      extraction.automaton = without_sendfile_close(extraction.automaton);
    }
    timed(phase(&SetupSplit::compile_s), [&] {
      inst.enforcer = unwrap(
          lzp::policy::PolicyEnforcer::create(extraction.automaton, {}, handler),
          "compile policy");
    });
    inst.recorder =
        std::make_shared<lzp::replay::Recorder>(wrap(Layer::kPolicy, inst.enforcer));
    handler = wrap(Layer::kReplay, inst.recorder);
    inst.recorder->attach(machine, options.seed, "sud", workload_name(workload));
  } else {
    machine.reseed_rng(options.seed);
  }

  for (unsigned w = 0; w < shape.workers; ++w) {
    lzp::kern::Tid tid = 0;
    timed(phase(&SetupSplit::load_s),
          [&] { tid = unwrap(machine.load(program), "load worker"); });
    lzp::kern::FdEntry entry;
    entry.kind = lzp::kern::FdEntry::Kind::kListener;
    entry.net_id = inst.listeners[shape.shared_listener ? 0 : w];
    machine.find_task(tid)->process->install_fd_at(lzp::apps::kListenerFd, entry);
    inst.workers.push_back(tid);

    timed(phase(&SetupSplit::install_s), [&] {
      if (workload == Workload::kWebSudRecord) {
        check(lzp::mechanisms::SudMechanism().install(machine, tid, handler),
              "install sud");
      } else {
        lzp::core::LazypolineConfig config;
        config.xstate = lzp::core::XstateMode::kFull;
        // The machine's host bindings keep the runtime alive.
        check(lzp::core::Lazypoline::create(machine, config)
                  ->install(machine, tid, handler),
              "install lazypoline");
      }
    });
  }
  return inst;
}

RunResult run(Instance& inst, std::uint64_t max_steps) {
  RunResult result;
  const auto start = std::chrono::steady_clock::now();
  if (inst.workload == Workload::kSmpLazypoline) {
    lzp::kern::SmpConfig config;
    config.cpus = kSmpCpus;
    config.seed = inst.seed;
    result.smp = inst.machine->run_smp(config, max_steps);
    result.all_exited = result.smp.all_exited;
  } else {
    result.all_exited = inst.machine->run(max_steps).all_exited;
  }
  result.run_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

SimOutputs collect(const Instance& inst) {
  lzp::kern::Machine& machine = *inst.machine;
  SimOutputs out;
  out.sim_cycles = machine.total_cycles();
  out.insns_retired = machine.total_insns();
  out.machine_steps = machine.total_steps();
  for (const lzp::kern::Tid tid : machine.task_ids()) {
    const lzp::kern::Task* task = machine.find_task(tid);
    out.syscalls += task->syscalls_dispatched;
    out.exit_codes.push_back(task->exit_code);
  }
  for (const int listener : inst.listeners) {
    out.requests += machine.net().completed_requests(listener);
  }
  // Simulated wall time: workers run on dedicated cores, so the slowest one
  // sets it; under SMP, co-resident workers share their CPU.
  std::vector<std::uint64_t> busy(kSmpCpus, 0);
  for (const lzp::kern::Tid tid : inst.workers) {
    const lzp::kern::Task* task = machine.find_task(tid);
    if (inst.workload == Workload::kSmpLazypoline) {
      busy[task->cpu % kSmpCpus] += task->cycles;
    } else {
      busy[0] = std::max(busy[0], task->cycles);
    }
  }
  const std::uint64_t wall_cycles = *std::max_element(busy.begin(), busy.end());
  if (wall_cycles != 0) {
    out.sim_rps = static_cast<double>(out.requests) /
                  (static_cast<double>(wall_cycles) / (kGhz * 1e9));
  }
  return out;
}

std::string self_check(const Instance& inst, const RunResult& result,
                       const SimOutputs& outputs) {
  if (inst.enforcer != nullptr) {
    const std::uint64_t violations = inst.enforcer->stats().violations;
    if (violations != 0) {
      return "policy violations: " + std::to_string(violations);
    }
  }
  if (!result.all_exited) {
    return "hung: not every task exited within the step budget (" +
           inst.machine->last_fatal() + ")";
  }
  if (outputs.requests != inst.requests_expected) {
    return "dropped requests: served " + std::to_string(outputs.requests) +
           " of " + std::to_string(inst.requests_expected);
  }
  if (inst.recorder != nullptr && inst.recorder->uncaptured_nondeterminism()) {
    return "recorder audit: uncaptured nondeterminism";
  }
  return {};
}

std::string compare(const SimOutputs& oracle, const SimOutputs& run) {
  auto differs = [](const char* what, std::uint64_t want, std::uint64_t got) {
    return std::string(what) + " " + std::to_string(got) + " != oracle " +
           std::to_string(want);
  };
  if (run.sim_cycles != oracle.sim_cycles) {
    return differs("sim_cycles", oracle.sim_cycles, run.sim_cycles);
  }
  if (run.insns_retired != oracle.insns_retired) {
    return differs("insns_retired", oracle.insns_retired, run.insns_retired);
  }
  if (run.machine_steps != oracle.machine_steps) {
    return differs("machine_steps", oracle.machine_steps, run.machine_steps);
  }
  if (run.syscalls != oracle.syscalls) {
    return differs("syscalls", oracle.syscalls, run.syscalls);
  }
  if (run.requests != oracle.requests) {
    return differs("requests", oracle.requests, run.requests);
  }
  if (run.exit_codes != oracle.exit_codes) return "per-task exit codes differ";
  return {};
}

}  // namespace perfbench
