// Reproduces the §V-A exhaustiveness experiment: run a tcc-style JIT
// compiler on a C program containing a single non-libc getpid syscall,
// under SUD, zpoline, and lazypoline, with a tracing interposer; diff the
// traces.
//
// Expected: SUD and lazypoline print the exact same syscalls in the same
// order, INCLUDING the JIT-generated getpid; zpoline's trace misses it,
// because the syscall instruction did not exist at its load-time scan.
#include <algorithm>
#include <cstdio>

#include "apps/jitcc.hpp"
#include "bench_util.hpp"
#include "interpose/handler.hpp"
#include "metrics/report.hpp"

namespace {
using namespace lzp;

using Kind = scenario::Mechanism::Kind;

std::vector<interpose::TraceRecord> run_traced(Kind kind) {
  const std::string which = scenario::to_string(kind);
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  const std::string src = apps::exhaustiveness_test_source();
  bench::check(machine.vfs().put_file(
                   "prog.c", std::vector<std::uint8_t>(src.begin(), src.end())),
               "seed source");
  const auto runner =
      bench::unwrap(apps::make_jit_runner(machine, "prog.c"), "build runner");
  machine.register_program(runner.program);
  const kern::Tid tid = bench::unwrap(machine.load(runner.program), "load");

  auto handler = std::make_shared<interpose::TracingHandler>();
  bench::check(scenario::install(kind, machine, tid, handler),
               which.c_str());
  const auto stats = machine.run();
  if (!stats.all_exited) bench::die(which + " hung: " + machine.last_fatal());
  if (machine.find_task(tid)->exit_code != 21) {
    bench::die(which + ": wrong program result");
  }
  return handler->trace();
}

bool contains_getpid(const std::vector<interpose::TraceRecord>& trace) {
  return std::any_of(trace.begin(), trace.end(), [](const auto& record) {
    return record.nr == kern::kSysGetpid;
  });
}

}  // namespace

int main() {
  std::printf("== Exhaustiveness (paper V-A): JIT-compiled getpid under "
              "tcc-style `minicc -run` ==\n\n");

  const auto sud = run_traced(Kind::kSud);
  const auto lazy = run_traced(Kind::kLazypoline);
  const auto zpoline = run_traced(Kind::kZpoline);

  std::printf("-- lazypoline trace (%zu syscalls) --\n", lazy.size());
  for (const auto& record : lazy) {
    const bool jit = record.nr == kern::kSysGetpid;
    std::printf("  %s%s\n", record.to_string().c_str(),
                jit ? "    <-- the JIT-generated syscall" : "");
  }

  const bool same_order =
      sud.size() == lazy.size() &&
      std::equal(sud.begin(), sud.end(), lazy.begin(),
                 [](const auto& a, const auto& b) { return a.nr == b.nr; });

  std::printf("\n");
  metrics::Table table({"Interposer", "Syscalls traced", "JIT getpid traced"});
  table.add_row({"SUD", std::to_string(sud.size()),
                 contains_getpid(sud) ? "YES" : "NO"});
  table.add_row({"lazypoline", std::to_string(lazy.size()),
                 contains_getpid(lazy) ? "YES" : "NO"});
  table.add_row({"zpoline", std::to_string(zpoline.size()),
                 contains_getpid(zpoline) ? "NO (missed)" : "NO (missed)"});
  std::printf("%s\n", table.render().c_str());

  std::printf("lazypoline trace identical to SUD (same syscalls, same order): "
              "%s\n", same_order ? "YES" : "NO");
  std::printf("zpoline missed %zu syscall(s) that SUD/lazypoline intercepted.\n",
              sud.size() - zpoline.size());
  return same_order && contains_getpid(lazy) && !contains_getpid(zpoline) ? 0 : 1;
}
