// Quickstart: interpose every syscall of a small program with lazypoline.
//
//   1. Create a Machine (the simulated Linux box) and allow VA-0 mappings.
//   2. Assemble and load a guest program.
//   3. Install lazypoline (which creates its runtime) with a TracingHandler.
//   4. Run; print the trace and the slow-path/fast-path statistics.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "apps/minilibc.hpp"
#include "core/lazypoline.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "scenario/scenario.hpp"

using namespace lzp;

int main() {
  // A guest that greets, asks for its pid three times, and exits.
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  apps::emit_print(a, "hello from the guest!\n");
  // Ask for the pid 5 times from ONE call site: the first execution takes
  // the SIGSYS slow path (and rewrites the site); the rest take the
  // trampoline fast path.
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.mov(isa::Gpr::rbx, 5);
  a.bind(loop);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("quickstart-guest", a, entry);
  if (!program.is_ok()) {
    std::fprintf(stderr, "assemble failed: %s\n",
                 program.status().to_string().c_str());
    return 1;
  }

  kern::Machine machine;
  machine.mmap_min_addr = 0;  // the fast-path trampoline lives at VA 0
  machine.register_program(program.value());
  auto tid = machine.load(program.value());
  if (!tid.is_ok()) {
    std::fprintf(stderr, "load failed: %s\n", tid.status().to_string().c_str());
    return 1;
  }

  auto handler = std::make_shared<interpose::TracingHandler>();
  std::shared_ptr<core::Lazypoline> lazypoline;
  if (auto status = scenario::install(scenario::Mechanism::Kind::kLazypoline,
                                      machine, tid.value(), handler,
                                      &lazypoline);
      !status.is_ok()) {
    std::fprintf(stderr, "install failed: %s\n", status.to_string().c_str());
    return 1;
  }

  const auto stats = machine.run();
  if (!stats.all_exited) {
    std::fprintf(stderr, "guest did not finish: %s\n",
                 machine.last_fatal().c_str());
    return 1;
  }

  std::printf("guest console: %s",
              machine.find_task(tid.value())->process->console.c_str());
  std::printf("\nintercepted syscalls:\n");
  for (const auto& record : handler->trace()) {
    std::printf("  %s\n", record.to_string().c_str());
  }

  const auto& lp = lazypoline->stats();
  std::printf("\nlazypoline: %llu interpositions total — %llu first-use slow"
              " path (SIGSYS + rewrite), %llu fast path (trampoline)\n",
              static_cast<unsigned long long>(lp.entry_invocations),
              static_cast<unsigned long long>(lp.slow_path_hits),
              static_cast<unsigned long long>(lp.fast_path_hits()));
  std::printf("sites rewritten to CALL RAX: %llu\n",
              static_cast<unsigned long long>(lp.sites_rewritten));
  return 0;
}
