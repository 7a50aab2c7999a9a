// Multi-variant execution (MVEE) monitor — use case (ii) from the paper's
// introduction: run two variants of a program and cross-check their syscall
// streams; any divergence indicates a compromised or faulty variant.
//
// This requires an interposer that is simultaneously:
//   * exhaustive — a variant that can smuggle even one unmonitored syscall
//     defeats the monitor (the paper's §VI point),
//   * expressive — the monitor compares numbers AND argument values,
//   * efficient — MVEEs run in production, doubling every syscall.
// lazypoline is the only non-intrusive mechanism offering all three.
//
// Build & run:  cmake --build build && ./build/examples/mvee_monitor
#include <cstdio>

#include "apps/minilibc.hpp"
#include "scenario/scenario.hpp"
#include "kernel/machine.hpp"

using namespace lzp;

namespace {

// Builds a variant: identical observable behaviour unless `compromised`,
// in which case it sneaks an extra open("secret") between two writes.
isa::Program make_variant(const std::string& name, bool compromised) {
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  apps::emit_print(a, "step one\n");
  if (compromised) {
    const std::uint64_t path = apps::embed_string(a, "secret");
    a.mov(isa::Gpr::rdi, path);
    a.mov(isa::Gpr::rsi, 0x40);  // O_CREAT: exfiltration channel
    apps::emit_syscall(a, kern::kSysOpen);
  }
  apps::emit_print(a, "step two\n");
  apps::emit_exit(a, 0);
  return isa::make_program(name, a, entry).value();
}

std::vector<interpose::TraceRecord> run_variant(const isa::Program& program) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  auto tid = machine.load(program).value();
  auto handler = std::make_shared<interpose::TracingHandler>();
  if (!scenario::install(scenario::Mechanism::Kind::kLazypoline, machine, tid,
                         handler)
           .is_ok()) {
    return {};
  }
  (void)machine.run();
  return handler->trace();
}

// Lockstep comparison: numbers and the argument registers must agree.
int compare(const std::vector<interpose::TraceRecord>& a,
            const std::vector<interpose::TraceRecord>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].nr != b[i].nr || a[i].args != b[i].args) {
      return static_cast<int>(i);
    }
  }
  if (a.size() != b.size()) return static_cast<int>(n);
  return -1;
}

}  // namespace

int main() {
  const auto leader = run_variant(make_variant("variant-A", false));
  const auto follower_ok = run_variant(make_variant("variant-B", false));
  const auto follower_bad = run_variant(make_variant("variant-C", true));

  std::printf("leader issued %zu syscalls\n\n", leader.size());

  std::printf("A vs B (both healthy): ");
  int divergence = compare(leader, follower_ok);
  std::printf(divergence < 0 ? "LOCKSTEP OK\n" : "DIVERGENCE at %d\n",
              divergence);

  std::printf("A vs C (C compromised): ");
  divergence = compare(leader, follower_bad);
  if (divergence >= 0) {
    std::printf("DIVERGENCE at syscall %d — leader: %s, variant: %s\n",
                divergence,
                divergence < static_cast<int>(leader.size())
                    ? std::string(kern::syscall_name(leader[divergence].nr)).c_str()
                    : "<end>",
                divergence < static_cast<int>(follower_bad.size())
                    ? std::string(kern::syscall_name(follower_bad[divergence].nr)).c_str()
                    : "<end>");
    std::printf("monitor verdict: variant killed, incident reported.\n");
  } else {
    std::printf("LOCKSTEP OK (unexpected!)\n");
  }
  return divergence >= 0 ? 0 : 1;
}
