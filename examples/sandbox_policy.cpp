// Sandbox example: deny opens of protected paths by *deep argument
// inspection* — the interposer dereferences the path pointer in guest
// memory, which a seccomp-bpf filter fundamentally cannot do (paper Table I,
// "Limited" expressiveness). Exhaustiveness matters here too: a sandbox that
// misses one syscall is bypassable (paper §VI), which is why the policy runs
// under lazypoline rather than a static rewriter.
//
// The path check composes with the syscall-flow-integrity layer
// (src/policy): the guest's automaton is extracted statically from its code
// and a PolicyEnforcer wraps the path handler, so a syscall must BOTH be a
// legal next step of the program's own syscall digraph AND pass the deep
// path inspection. Layered defenses: the automaton stops code-reuse that
// strays off the program's syscall order, the path check stops in-order
// calls with hostile arguments.
//
// Build & run:  cmake --build build && ./build/examples/sandbox_policy
#include <cstdio>

#include "apps/minilibc.hpp"
#include "kernel/machine.hpp"
#include "mechanisms/seccomp_bpf_tool.hpp"
#include "policy/enforce.hpp"
#include "policy/extract.hpp"
#include "scenario/scenario.hpp"

using namespace lzp;

int main() {
  // Guest: reads a public file, then tries the protected one; exits with
  // the number of successful opens.
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  const std::uint64_t pub = apps::embed_string(a, "public/readme");
  const std::uint64_t secret = apps::embed_string(a, "secret/token");
  a.mov(isa::Gpr::r15, 0);  // success counter

  for (const std::uint64_t path : {pub, secret}) {
    a.mov(isa::Gpr::rdi, path);
    a.mov(isa::Gpr::rsi, 0);
    apps::emit_syscall(a, kern::kSysOpen);
    a.cmp(isa::Gpr::rax, 0);
    const auto failed = a.new_label();
    a.jlt(failed);
    a.add(isa::Gpr::r15, 1);
    a.bind(failed);
  }
  a.mov(isa::Gpr::rdi, isa::Gpr::r15);
  apps::emit_syscall(a, kern::kSysExitGroup);
  auto program = isa::make_program("sandboxed-guest", a, entry);
  if (!program.is_ok()) return 1;

  kern::Machine machine;
  machine.mmap_min_addr = 0;
  (void)machine.vfs().put_file("public/readme", {'o', 'k'});
  (void)machine.vfs().put_file("secret/token", {'k', 'e', 'y'});
  machine.register_program(program.value());
  auto tid = machine.load(program.value());

  // First, demonstrate that seccomp-bpf cannot host this policy at all.
  mechanisms::SeccompBpfMechanism bpf_mechanism;
  auto handler = std::make_shared<interpose::PathPolicyHandler>(
      std::vector<std::string>{"secret"});
  const Status bpf_attempt = bpf_mechanism.install(machine, tid.value(), handler);
  std::printf("seccomp-bpf install of the path policy: %s\n",
              bpf_attempt.to_string().c_str());

  // Layer the guest's own syscall-flow automaton over the path check: the
  // enforcer consults the automaton first, then hands allowed syscalls to
  // the path handler.
  const policy::StaticExtraction extraction =
      policy::extract_static(program.value());
  std::printf("\nextracted flow automaton (%zu states, %zu edges):\n%s\n",
              extraction.automaton.state_count(),
              extraction.automaton.edge_count(),
              extraction.automaton.serialize().c_str());
  auto enforcer =
      policy::PolicyEnforcer::create(extraction.automaton, {}, handler);
  if (!enforcer.is_ok()) {
    std::fprintf(stderr, "enforcer: %s\n",
                 enforcer.status().to_string().c_str());
    return 1;
  }

  // Now install the composed policy under lazypoline.
  if (!scenario::install(scenario::Mechanism::Kind::kLazypoline, machine,
                         tid.value(), enforcer.value())
           .is_ok()) {
    return 1;
  }

  const auto stats = machine.run();
  if (!stats.all_exited) return 1;

  const int successful_opens = machine.find_task(tid.value())->exit_code;
  std::printf("\nguest managed %d of 2 opens (the protected one was denied)\n",
              successful_opens);
  std::printf("path-policy denials: %llu\n",
              static_cast<unsigned long long>(handler->denials()));
  const policy::EnforcerStats flow = enforcer.value()->stats();
  std::printf("flow-integrity: %llu transitions checked, %llu violations "
              "(the guest stayed on its own automaton)\n",
              static_cast<unsigned long long>(flow.transitions_checked),
              static_cast<unsigned long long>(flow.violations));
  return successful_opens == 1 && handler->denials() == 1 &&
                 flow.transitions_checked > 0 && flow.violations == 0
             ? 0
             : 1;
}
