// Reproduces Table I — but instead of just printing the paper's qualitative
// matrix, this harness *measures* each property:
//
//   Expressiveness: can the mechanism run an interposer that dereferences a
//     user pointer (deny open() by path prefix)? seccomp-bpf cannot even
//     install such a handler; its API only accepts number/arg-value rules.
//   Exhaustiveness: does the mechanism intercept a syscall whose instruction
//     is JIT-generated after installation (the V-A probe)?
//   Efficiency: microbenchmark overhead bucket (High < 3x, Moderate < 40x,
//     Low otherwise) on the non-existent-syscall loop.
#include <algorithm>
#include <cstdio>

#include "apps/jitcc.hpp"
#include "bench_util.hpp"
#include "mechanisms/ptrace_tool.hpp"
#include "mechanisms/seccomp_bpf_tool.hpp"
#include "mechanisms/seccomp_user_tool.hpp"
#include "metrics/report.hpp"

namespace {
using namespace lzp;

enum class Kind { kPtrace, kSeccompBpf, kSeccompUser, kSud, kZpoline, kLazypoline };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kPtrace: return "ptrace";
    case Kind::kSeccompBpf: return "seccomp-bpf";
    case Kind::kSeccompUser: return "seccomp-user";
    case Kind::kSud: return "SUD";
    case Kind::kZpoline: return "zpoline (rewriting)";
    case Kind::kLazypoline: return "lazypoline (ours)";
  }
  return "?";
}

Status install(Kind kind, kern::Machine& machine, kern::Tid tid,
               std::shared_ptr<interpose::SyscallHandler> handler) {
  using scenario::Mechanism;
  switch (kind) {
    case Kind::kSeccompBpf:
      return mechanisms::SeccompBpfMechanism().install(machine, tid, handler);
    case Kind::kSeccompUser:
      return mechanisms::SeccompUserMechanism().install(machine, tid, handler);
    case Kind::kPtrace:
      return scenario::install(Mechanism::Kind::kPtrace, machine, tid, handler);
    case Kind::kSud:
      return scenario::install(Mechanism::Kind::kSud, machine, tid, handler);
    case Kind::kZpoline:
      return scenario::install(Mechanism::Kind::kZpoline, machine, tid, handler);
    case Kind::kLazypoline:
      return scenario::install(Mechanism::Kind::kLazypoline, machine, tid,
                               handler);
  }
  return make_error(StatusCode::kInternal, "bad kind");
}

// Expressiveness probe: a program opens "secret/key"; a fully expressive
// interposer (PathPolicyHandler) must be able to deny it by inspecting the
// path string in task memory.
std::string probe_expressiveness(Kind kind) {
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  const std::uint64_t path = apps::embed_string(a, "secret/key");
  a.mov(isa::Gpr::rdi, path);
  a.mov(isa::Gpr::rsi, 0);
  apps::emit_syscall(a, kern::kSysOpen);
  a.mov(isa::Gpr::rbx, 0);
  a.sub(isa::Gpr::rbx, isa::Gpr::rax);
  a.mov(isa::Gpr::rdi, isa::Gpr::rbx);  // exit code = -result
  apps::emit_syscall(a, kern::kSysExitGroup);
  const auto program =
      bench::unwrap(isa::make_program("open-secret", a, entry), "assemble");

  kern::Machine machine;
  machine.mmap_min_addr = 0;
  bench::check(machine.vfs().put_file("secret/key", {1, 2, 3}), "seed");
  machine.register_program(program);
  const kern::Tid tid = bench::unwrap(machine.load(program), "load");
  auto handler = std::make_shared<interpose::PathPolicyHandler>(
      std::vector<std::string>{"secret"});
  const Status status = install(kind, machine, tid, handler);
  if (!status.is_ok()) {
    return "Limited";  // cannot even host the deep-inspection handler
  }
  (void)machine.run();
  const int code = machine.find_task(tid)->exit_code;
  return code == kern::kEACCES && handler->denials() > 0 ? "Full" : "Limited";
}

// Exhaustiveness probe: is the JIT-generated getpid intercepted?
// For handler-based mechanisms we check the trace; for seccomp-bpf we check
// that an ERRNO rule on getpid applies to the JIT-generated invocation.
bool probe_exhaustiveness(Kind kind) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  const std::string src = "int main() { return syscall1(39, 0); }";
  bench::check(machine.vfs().put_file(
                   "p.c", std::vector<std::uint8_t>(src.begin(), src.end())),
               "seed");
  const auto runner =
      bench::unwrap(apps::make_jit_runner(machine, "p.c"), "runner");
  machine.register_program(runner.program);
  const kern::Tid tid = bench::unwrap(machine.load(runner.program), "load");

  if (kind == Kind::kSeccompBpf) {
    const mechanisms::SeccompRule rules[] = {
        {static_cast<std::uint32_t>(kern::kSysGetpid),
         bpf::SECCOMP_RET_ERRNO | 77}};
    bench::check(mechanisms::SeccompBpfMechanism::install_filter(
                     machine, tid, rules, bpf::SECCOMP_RET_ALLOW),
                 "filter");
    (void)machine.run();
    // main returns getpid's result; -77 truncated means the rule reached
    // the JIT-generated syscall.
    return machine.find_task(tid)->exit_code == -77;
  }

  auto handler = std::make_shared<interpose::TracingHandler>();
  const Status status = install(kind, machine, tid, handler);
  if (!status.is_ok()) return false;
  (void)machine.run();
  const auto numbers = handler->traced_numbers();
  return std::find(numbers.begin(), numbers.end(),
                   std::uint64_t{kern::kSysGetpid}) != numbers.end();
}

std::pair<std::string, double> probe_efficiency(Kind kind) {
  const auto program =
      bench::unwrap(scenario::make_loop(scenario::Loop{20'000}), "loop");
  const double baseline =
      static_cast<double>(bench::run_cycles(program, nullptr));
  const double cycles = static_cast<double>(bench::run_cycles(
      program, [&](kern::Machine& machine, kern::Tid tid) {
        if (kind == Kind::kSeccompBpf) {
          bench::check(mechanisms::SeccompBpfMechanism::install_monitoring_filter(
                           machine, tid),
                       "filter");
          return;
        }
        bench::check(install(kind, machine, tid,
                             std::make_shared<interpose::DummyHandler>()),
                     "install");
      }));
  const double ratio = cycles / baseline;
  const char* bucket = ratio < 3.0 ? "High" : ratio < 40.0 ? "Moderate" : "Low";
  return {bucket, ratio};
}

}  // namespace

int main() {
  std::printf("== Table I: measured characteristics of interposition "
              "mechanisms ==\n\n");
  metrics::Table table({"Mechanism", "Expressiveness", "Exhaustive",
                        "Efficiency", "(micro overhead)"});
  for (Kind kind : {Kind::kPtrace, Kind::kSeccompBpf, Kind::kSeccompUser,
                    Kind::kSud, Kind::kZpoline, Kind::kLazypoline}) {
    const std::string expressiveness = probe_expressiveness(kind);
    const bool exhaustive = probe_exhaustiveness(kind);
    const auto [bucket, ratio] = probe_efficiency(kind);
    table.add_row({kind_name(kind), expressiveness, exhaustive ? "yes" : "NO",
                   bucket, metrics::ratio(ratio)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper Table I: only lazypoline is simultaneously fully\n"
              "expressive, exhaustive, and high-efficiency.\n");
  return 0;
}
