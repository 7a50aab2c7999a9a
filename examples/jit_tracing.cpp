// JIT tracing: the paper's headline scenario (§V-A). A tcc-style runner
// compiles C source at run time; the generated code performs syscalls whose
// instructions did not exist when any static rewriter could have scanned the
// binary. lazypoline's SUD slow path discovers them at first use and rewrites
// them, so the trace is complete — run the same scenario with
// ZpolineMechanism to watch the getpid disappear from the trace.
//
// Build & run:  cmake --build build && ./build/examples/jit_tracing
#include <cstdio>

#include "apps/jitcc.hpp"
#include "core/lazypoline.hpp"
#include "kernel/machine.hpp"
#include "scenario/scenario.hpp"

using namespace lzp;

int main() {
  const std::string cleaned = R"(
    int fib(int n) {
      if (n <= 1) { return n; }
      return fib(n - 1) + fib(n - 2);
    }

    int main() {
      int pid = syscall1(39, 0);   // getpid — JIT-generated syscall!
      int tid = syscall1(186, 0);  // gettid — another one
      if (pid == tid) {
        return fib(10);            // 55, computed by recursive JIT code
      }
      return 0;
    })";

  kern::Machine machine;
  machine.mmap_min_addr = 0;
  if (auto seeded = machine.vfs().put_file(
          "fib.c", std::vector<std::uint8_t>(cleaned.begin(), cleaned.end()));
      !seeded.is_ok()) {
    return 1;
  }

  auto runner = apps::make_jit_runner(machine, "fib.c");
  if (!runner.is_ok()) {
    std::fprintf(stderr, "runner: %s\n", runner.status().to_string().c_str());
    return 1;
  }
  std::printf("static syscall sites in the runner binary: %zu\n",
              runner.value().static_syscall_sites);

  machine.register_program(runner.value().program);
  auto tid = machine.load(runner.value().program);
  auto handler = std::make_shared<interpose::TracingHandler>();
  std::shared_ptr<core::Lazypoline> lazypoline;
  if (!scenario::install(scenario::Mechanism::Kind::kLazypoline, machine,
                         tid.value(), handler, &lazypoline)
           .is_ok()) {
    return 1;
  }

  const auto stats = machine.run();
  if (!stats.all_exited) {
    std::fprintf(stderr, "hung: %s\n", machine.last_fatal().c_str());
    return 1;
  }

  std::printf("full trace (note the getpid/gettid from JIT-generated code):\n");
  for (const auto& record : handler->trace()) {
    const bool jit = record.nr == kern::kSysGetpid || record.nr == kern::kSysGettid;
    std::printf("  %s%s\n", record.to_string().c_str(), jit ? "   <-- JIT" : "");
  }
  std::printf("\nguest exit code (fib(10)): %d\n",
              machine.find_task(tid.value())->exit_code);
  std::printf("slow-path discoveries: %llu (includes the JIT sites)\n",
              static_cast<unsigned long long>(lazypoline->stats().slow_path_hits));
  return machine.find_task(tid.value())->exit_code == 55 ? 0 : 1;
}
