// Cross-module integration tests: the paper's headline claims, asserted
// end-to-end at small scale (the bench/ binaries run the full-size versions).
#include <gtest/gtest.h>

#include "apps/jitcc.hpp"
#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "mechanisms/seccomp_bpf_tool.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace lzp {
namespace {

using interpose::DummyHandler;
using interpose::TracingHandler;
using kern::Machine;
using kern::Tid;

using scenario::Mechanism;

// Cycles of a 400-iteration syscall(500) loop under `mechanism`.
std::uint64_t micro_cycles(const Mechanism& mechanism) {
  const scenario::Scenario spec{scenario::Loop{400}, mechanism};
  Machine machine;
  auto instance =
      scenario::build(spec, machine, std::make_shared<DummyHandler>());
  EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
  auto outcome = scenario::run(spec, machine, instance.value());
  EXPECT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  return outcome.is_ok() ? outcome.value().wall_cycles : 0;
}

// Table II ordering: baseline < baseline+SUD < zpoline+eps < lazypoline-no-x
// < lazypoline < SUD. (Exact ratios are validated by bench/table2_micro.)
TEST(TableTwoIntegration, OverheadOrderingMatchesPaper) {
  const std::uint64_t baseline = micro_cycles(Mechanism::Kind::kNative);
  const std::uint64_t sud_enabled = micro_cycles(Mechanism::Kind::kSudAllow);
  const std::uint64_t zpoline = micro_cycles(Mechanism::Kind::kZpoline);

  // Steady state: pre-rewrite all sites (paper §V-B methodology).
  auto lazy_cycles = [&](core::XstateMode mode, bool sud) {
    Mechanism lazypoline = Mechanism::Kind::kLazypoline;
    lazypoline.lazypoline.xstate = mode;
    lazypoline.lazypoline.use_sud = sud;
    lazypoline.prerewrite = true;
    return micro_cycles(lazypoline);
  };
  const std::uint64_t lazy_no_sud = lazy_cycles(core::XstateMode::kNone, false);
  const std::uint64_t lazy_no_xstate = lazy_cycles(core::XstateMode::kNone, true);
  const std::uint64_t lazy_full = lazy_cycles(core::XstateMode::kFull, true);

  const std::uint64_t sud = micro_cycles(Mechanism::Kind::kSud);

  EXPECT_LT(baseline, sud_enabled);
  EXPECT_LT(sud_enabled, lazy_no_xstate);
  EXPECT_LT(zpoline, lazy_no_xstate);
  EXPECT_LT(lazy_no_xstate, lazy_full);
  EXPECT_LT(lazy_full, sud / 4) << "lazypoline must be far cheaper than SUD";

  // Figure 4: without SUD, lazypoline's fast path == zpoline (within 2%).
  const double fast_vs_zpoline = static_cast<double>(lazy_no_sud) /
                                 static_cast<double>(zpoline);
  EXPECT_NEAR(fast_vs_zpoline, 1.0, 0.02);

  // Rough Table II ratio bands.
  const auto ratio = [&](std::uint64_t cycles) {
    return static_cast<double>(cycles) / static_cast<double>(baseline);
  };
  EXPECT_NEAR(ratio(sud_enabled), 1.42, 0.15);
  EXPECT_NEAR(ratio(lazy_no_xstate), 1.66, 0.20);
  EXPECT_NEAR(ratio(lazy_full), 2.38, 0.30);
  EXPECT_NEAR(ratio(sud), 20.8, 5.0);
}

// §V-A: traces under SUD and lazypoline are identical and include the JIT
// getpid; zpoline's misses it.
TEST(ExhaustivenessIntegration, JitTraceComparison) {
  const std::string src = apps::exhaustiveness_test_source();

  auto run_traced = [&](Mechanism::Kind which) {
    Machine machine;
    machine.mmap_min_addr = 0;
    EXPECT_TRUE(machine.vfs()
                    .put_file("prog.c", std::vector<std::uint8_t>(src.begin(),
                                                                  src.end()))
                    .is_ok());
    auto runner = apps::make_jit_runner(machine, "prog.c").value();
    machine.register_program(runner.program);
    auto tid = machine.load(runner.program).value();
    auto handler = std::make_shared<TracingHandler>();
    EXPECT_TRUE(scenario::install(which, machine, tid, handler).is_ok());
    auto stats = machine.run();
    EXPECT_TRUE(stats.all_exited)
        << scenario::to_string(which) << ": " << machine.last_fatal();
    EXPECT_EQ(machine.find_task(tid)->exit_code, 21)
        << scenario::to_string(which);
    return handler->traced_numbers();
  };

  const auto sud_trace = run_traced(Mechanism::Kind::kSud);
  const auto lazy_trace = run_traced(Mechanism::Kind::kLazypoline);
  const auto zpoline_trace = run_traced(Mechanism::Kind::kZpoline);

  // lazypoline and SUD print the exact same syscalls in the same order.
  EXPECT_EQ(sud_trace, lazy_trace);

  const auto contains_getpid = [](const std::vector<std::uint64_t>& trace) {
    return std::find(trace.begin(), trace.end(),
                     std::uint64_t{kern::kSysGetpid}) != trace.end();
  };
  EXPECT_TRUE(contains_getpid(sud_trace));
  EXPECT_TRUE(contains_getpid(lazy_trace));
  EXPECT_FALSE(contains_getpid(zpoline_trace));
  // zpoline still saw the load-time syscalls.
  EXPECT_FALSE(zpoline_trace.empty());
}

// Figure 5 shape at one grid point: throughput ordering and dilution.
TEST(WebServerIntegration, ThroughputOrderingAndDilution) {
  const std::uint64_t requests = 150;

  auto run_server = [&](std::uint64_t file_size,
                        const std::string& mechanism) -> double {
    const scenario::Scenario spec{
        scenario::Web{apps::nginx_profile(), 1, file_size, 36, requests},
        scenario::parse_mechanism(mechanism).value()};
    Machine machine;
    auto instance =
        scenario::build(spec, machine, std::make_shared<DummyHandler>());
    EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
    auto outcome = scenario::run(spec, machine, instance.value());
    EXPECT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    return static_cast<double>(requests) /
           static_cast<double>(outcome.value().wall_cycles);
  };

  const double base_1k = run_server(1024, "native");
  const double zp_1k = run_server(1024, "zpoline");
  const double lazy_1k = run_server(1024, "lazypoline");
  const double sud_1k = run_server(1024, "sud");

  // Ordering at 1K: native >= zpoline >= lazypoline > SUD.
  EXPECT_GT(base_1k, zp_1k);
  EXPECT_GT(zp_1k, lazy_1k);
  EXPECT_GT(lazy_1k, sud_1k);
  // lazypoline keeps >90% of native; SUD loses roughly half.
  EXPECT_GT(lazy_1k / base_1k, 0.88);
  EXPECT_LT(sud_1k / base_1k, 0.65);

  // Dilution at 256K: the zpoline/lazypoline gap practically vanishes.
  const double base_256k = run_server(256 * 1024, "native");
  const double zp_256k = run_server(256 * 1024, "zpoline");
  const double lazy_256k = run_server(256 * 1024, "lazypoline");
  const double sud_256k = run_server(256 * 1024, "sud");
  // "From 64 KB on, the overhead difference between zpoline and lazypoline
  // practically vanishes" — within 2 percentage points at 256K.
  EXPECT_LT(zp_256k / base_256k - lazy_256k / base_256k, 0.02);
  EXPECT_GT(lazy_256k / base_256k, 0.97);
  EXPECT_GT(zp_256k / base_256k, 0.985);
  // SUD's slowdown is still noticeable even at 256K.
  EXPECT_LT(sud_256k / base_256k, 0.95);
}

// seccomp filters survive execve; lazypoline's interposition does too (via
// preload), so both worlds compose.
TEST(ExecveIntegration, SeccompPersistsAndLazypolineReinitializes) {
  Machine machine;
  machine.mmap_min_addr = 0;

  isa::Assembler t;
  auto t_entry = t.new_label();
  t.bind(t_entry);
  t.mov(isa::Gpr::rax, kern::kSysGetpid);
  t.syscall_();
  apps::emit_exit(t, 5);
  auto target = isa::make_program("exec-target", t, t_entry).value();
  machine.register_program(target);

  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  const std::uint64_t name = apps::embed_string(a, "exec-target");
  a.mov(isa::Gpr::rdi, name);
  apps::emit_syscall(a, kern::kSysExecve);
  apps::emit_exit(a, 1);
  auto program = isa::make_program("execer", a, entry).value();
  machine.register_program(program);

  auto tid = machine.load(program).value();
  // A monitoring seccomp filter...
  ASSERT_TRUE(mechanisms::SeccompBpfMechanism::install_monitoring_filter(
                  machine, tid)
                  .is_ok());
  // ...plus lazypoline with preload.
  auto handler = std::make_shared<TracingHandler>();
  std::shared_ptr<core::Lazypoline> runtime;
  ASSERT_TRUE(scenario::install(Mechanism::Kind::kLazypoline, machine, tid,
                                handler, &runtime)
                  .is_ok());
  runtime->attach_as_preload();

  auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  kern::Task* task = machine.find_task(tid);
  EXPECT_EQ(task->exit_code, 5);
  EXPECT_FALSE(task->seccomp.empty()) << "seccomp filters cannot be removed";
  EXPECT_TRUE(task->sud.enabled) << "lazypoline re-armed after execve";
}

}  // namespace
}  // namespace lzp
