// Shared helpers for the benchmark binaries (no gtest dependency).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/minilibc.hpp"
#include "base/thread_pool.hpp"
#include "kernel/machine.hpp"
#include "metrics/json.hpp"
#include "scenario/scenario.hpp"

namespace lzp::bench {

inline void die(const std::string& message) {
  std::fprintf(stderr, "bench: fatal: %s\n", message.c_str());
  std::exit(1);
}

// Uniform CLI contract for every bench binary: `--cpus=N` selects the
// simulated CPU count (1 = the classic single-threaded machine) and is
// stripped before positional arguments, so all benches parse it identically
// and their BENCH_*.json artifacts stay comparable across CPU counts.
struct CliArgs {
  unsigned cpus = 1;
  std::vector<std::string> positional;

  [[nodiscard]] std::string positional_or(std::size_t index,
                                          const std::string& fallback) const {
    return index < positional.size() ? positional[index] : fallback;
  }
};

inline CliArgs parse_cli(int argc, char** argv) {
  CliArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--cpus=", 0) == 0) {
      out.cpus = static_cast<unsigned>(
          std::strtoul(arg.c_str() + sizeof("--cpus=") - 1, nullptr, 10));
      if (out.cpus == 0) out.cpus = 1;
    } else {
      out.positional.push_back(arg);
    }
  }
  return out;
}

template <typename T>
T unwrap(Result<T> result, const char* what) {
  if (!result.is_ok()) die(std::string(what) + ": " + result.status().to_string());
  return std::move(result).value();
}

inline void check(const Status& status, const char* what) {
  if (!status.is_ok()) die(std::string(what) + ": " + status.to_string());
}

// The one way bench binaries emit their BENCH_*.json artifact: a top-level
// {"benchmark": ..., "results": [...]} object built from metrics::JsonObject
// rows, so every artifact the CI gates parse shares one escaper.
inline void write_json_report(const std::string& path,
                              const std::string& benchmark,
                              const std::vector<std::string>& result_objects,
                              unsigned cpus = 1) {
  metrics::JsonObject root;
  root.add("benchmark", benchmark);
  root.add("cpus", static_cast<std::uint64_t>(cpus));
  root.add("host_cores", static_cast<std::uint64_t>(ThreadPool::host_cores()));
  root.add_raw("results", metrics::json_array(result_objects));
  std::ofstream out(path);
  out << root.render() << "\n";
  if (!out) die("cannot write " + path);
  std::printf("json -> %s\n", path.c_str());
}

// Runs `program` on a fresh machine after `setup` (which installs whatever
// mechanism the caller needs), returning the main task's cycle count. Dies if
// the machine does not quiesce. For the programs a Scenario does not
// describe; the loop and the webserver go through run_scenario below.
using Setup = std::function<void(kern::Machine&, kern::Tid)>;
inline std::uint64_t run_cycles(const isa::Program& program,
                                const Setup& setup) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  const kern::Tid tid = unwrap(machine.load(program), "load");
  if (setup) setup(machine, tid);
  const auto stats = machine.run();
  if (!stats.all_exited) die("machine did not quiesce: " + machine.last_fatal());
  return machine.find_task(tid)->cycles;
}

// Builds `scenario` on `machine`, runs it, and dies (naming the scenario)
// unless it finished cleanly. Observers (Tracer, Profiler, Recorder) attach
// to `machine` before the call.
inline scenario::Outcome run_scenario(
    const scenario::Scenario& scenario, kern::Machine& machine,
    std::shared_ptr<interpose::SyscallHandler> handler =
        std::make_shared<interpose::DummyHandler>()) {
  const scenario::Instance instance =
      unwrap(scenario::build(scenario, machine, std::move(handler)), "build");
  return unwrap(scenario::run(scenario, machine, instance), "run");
}

// The same on a fresh machine with cost model `costs`.
inline scenario::Outcome run_scenario(
    const scenario::Scenario& scenario,
    std::shared_ptr<interpose::SyscallHandler> handler =
        std::make_shared<interpose::DummyHandler>(),
    kern::CostModel costs = {}) {
  kern::Machine machine(costs);
  return run_scenario(scenario, machine, std::move(handler));
}

// Steady-state lazypoline (§V-B methodology): every site rewritten up front,
// SUD optionally disarmed (Figure 4's "without SUD" configuration).
inline scenario::Mechanism steady_lazypoline(core::XstateMode xstate,
                                             bool use_sud = true) {
  scenario::Mechanism mechanism{scenario::Mechanism::Kind::kLazypoline};
  mechanism.lazypoline.xstate = xstate;
  mechanism.lazypoline.use_sud = use_sud;
  mechanism.prerewrite = true;
  return mechanism;
}

}  // namespace lzp::bench
