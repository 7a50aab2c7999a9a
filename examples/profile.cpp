// profile — the cycle-exact guest profiler front-end (src/profile). Runs a
// workload under one interposition mechanism with a Profiler attached as the
// machine's profile sink, prints the top-N hot-site table split by
// attribution class (guest code / interposer trampoline / kernel syscall
// cost / policy+record decorators), and writes the folded call stacks in
// flamegraph.pl input format:
//
//   ./build/examples/profile [mechanism] [--workload=W] [--folded=PATH]
//       mechanism:  lazypoline (default) | sud | zpoline | ptrace
//       --workload: webserver (default) | getpid-loop
//       --folded:   folded-stack output path (default profile.folded)
//       --top:      hot-site table rows (default 20)
//
//   flamegraph.pl profile.folded > profile.svg
//
// The run executes the workload twice — superblock engine on, then off — and
// verifies the profiler's per-class cycle totals sum to the machine's retired
// cycle counter EXACTLY in both configurations (the attribution-exactness
// invariant the profiler is built around). Exits non-zero if either run
// disagrees.
//
// Build & run:  cmake --build build && ./build/examples/profile
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/webserver.hpp"
#include "kernel/machine.hpp"
#include "profile/profiler.hpp"
#include "workloads.hpp"

using namespace lzp;

namespace {

struct ProfiledRun {
  bool ok = false;
  std::uint64_t machine_cycles = 0;
  std::uint64_t profiler_cycles = 0;
  std::string folded;
  std::string hot_sites;
};

ProfiledRun run_profiled(const std::string& mechanism,
                         const std::string& workload, bool block_engine,
                         std::size_t top_n) {
  profile::Profiler profiler;
  kern::Machine machine;
  machine.block_exec_enabled = block_engine;
  // Attach before load/install so arming-time charges (site rewrites,
  // selector setup) are attributed too — that is what makes the class sums
  // match total_cycles() from a fresh machine exactly.
  profiler.attach(machine);

  isa::Program program;
  ProfiledRun out;
  if (!examples::load_workload(machine, workload, mechanism,
                               std::make_shared<interpose::DummyHandler>(),
                               &program)) {
    return out;
  }
  profiler.register_symbol(program.base, program.image.size(),
                           program.name + ":code");

  const auto stats = machine.run(400'000'000ULL);
  if (!stats.all_exited) {
    std::fprintf(stderr, "workload hung: %s\n", machine.last_fatal().c_str());
    return out;
  }
  out.ok = true;
  out.machine_cycles = machine.total_cycles();
  out.profiler_cycles = profiler.total_cycles();
  out.folded = profiler.folded_stacks();
  out.hot_sites = profiler.render_hot_sites(top_n);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mechanism = "lazypoline";
  std::string workload = "webserver";
  std::string folded_path = "profile.folded";
  std::size_t top_n = 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      workload = arg.substr(11);
    } else if (arg.rfind("--folded=", 0) == 0) {
      folded_path = arg.substr(9);
    } else if (arg.rfind("--top=", 0) == 0) {
      top_n = static_cast<std::size_t>(std::stoul(arg.substr(6)));
    } else {
      mechanism = arg;
    }
  }

  const ProfiledRun with_blocks =
      run_profiled(mechanism, workload, /*block_engine=*/true, top_n);
  if (!with_blocks.ok) return 1;
  const ProfiledRun stepped =
      run_profiled(mechanism, workload, /*block_engine=*/false, top_n);
  if (!stepped.ok) return 1;

  std::printf("== profile: %s under %s ==\n\n", workload.c_str(),
              mechanism.c_str());
  std::printf("-- hot sites (block engine on) --\n%s\n",
              with_blocks.hot_sites.c_str());

  // The invariant: every simulated cycle the machine retired is attributed
  // to exactly one class, under both execution engines.
  const struct {
    const char* engine;
    const ProfiledRun* r;
  } checks[] = {{"block", &with_blocks}, {"step", &stepped}};
  for (const auto& check : checks) {
    const bool exact = check.r->profiler_cycles == check.r->machine_cycles;
    std::printf("%s engine: machine %llu cycles, profiler %llu — %s\n",
                check.engine,
                static_cast<unsigned long long>(check.r->machine_cycles),
                static_cast<unsigned long long>(check.r->profiler_cycles),
                exact ? "exact" : "MISMATCH");
    if (!exact) {
      std::fprintf(stderr, "FAIL: attribution is not cycle-exact\n");
      return 1;
    }
  }

  std::ofstream out(folded_path);
  out << with_blocks.folded;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", folded_path.c_str());
    return 1;
  }
  std::printf("\nfolded stacks -> %s  "
              "(render: flamegraph.pl %s > profile.svg)\n",
              folded_path.c_str(), folded_path.c_str());
  return 0;
}
