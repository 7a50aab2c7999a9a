// Ablation benches for the design choices DESIGN.md calls out:
//
//   A. xstate preservation granularity (none / SSE / SSE+AVX / full) — the
//      §IV-B configurable option, quantifying what each component costs.
//   B. SUD deployment style: lazypoline's selector-only redirection vs the
//      typical handle-in-SIGSYS + allowlisted-sigreturn deployment, per
//      interception.
//   C. Hybrid vs pure-SUD vs pure-static on a JIT workload: coverage AND
//      aggregate cost (why the hybrid design is necessary).
//   D. Static scan strategy risk: raw-byte vs linear-sweep false positives /
//      misses on hostile-but-legal code, vs lazypoline's kernel-verified
//      discovery.
//   E. nop-sled entry depth: fast-path cost as a function of the syscall
//      number under a pessimistic 1-cycle-per-nop core (zpoline's design
//      accepts this; modern cores hide it).
#include <algorithm>
#include <cstdio>

#include "apps/jitcc.hpp"
#include "bench_util.hpp"
#include "disasm/scanner.hpp"
#include "metrics/report.hpp"

namespace {
using namespace lzp;

using scenario::Mechanism;

// Cycles of the §V-B loop under `mechanism`.
double loop_cycles(const scenario::Loop& loop, const Mechanism& mechanism,
                   kern::CostModel costs = {}) {
  return static_cast<double>(
      bench::run_scenario({loop, mechanism},
                          std::make_shared<interpose::DummyHandler>(), costs)
          .wall_cycles);
}

void ablation_xstate() {
  std::printf("-- Ablation A: xstate preservation granularity --\n");
  const scenario::Loop loop{20'000};
  const double baseline = loop_cycles(loop, {});

  metrics::Table table({"Mode", "Overhead", "Preserves"});
  const std::pair<core::XstateMode, const char*> modes[] = {
      {core::XstateMode::kNone, "GPRs only (breaks Listing-1 code)"},
      {core::XstateMode::kSse, "+ XMM (fixes both Table-III idioms)"},
      {core::XstateMode::kSseAvx, "+ YMM upper lanes"},
      {core::XstateMode::kFull, "+ legacy x87 (fully ABI-compliant)"},
  };
  for (const auto& [mode, what] : modes) {
    const double cycles = loop_cycles(loop, bench::steady_lazypoline(mode));
    table.add_row({std::string(core::to_string(mode)),
                   metrics::ratio(cycles / baseline), what});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablation_sud_style() {
  std::printf("-- Ablation B: SUD deployment style, cost per interception --\n");
  const scenario::Loop loop{5'000};
  const double baseline = loop_cycles(loop, {});

  // Typical deployment: handle inside the SIGSYS handler, sigreturn through
  // an allowlisted stub.
  const double typical = loop_cycles(loop, Mechanism::Kind::kSud);
  // lazypoline's selector-only slow path, forced permanent (rewriting off):
  // redirect out of the handler, shared entry, no allowlisted range.
  Mechanism selector_only_mechanism = Mechanism::Kind::kLazypoline;
  selector_only_mechanism.lazypoline.rewrite_to_fast_path = false;
  selector_only_mechanism.lazypoline.xstate = core::XstateMode::kNone;
  const double selector_only = loop_cycles(loop, selector_only_mechanism);

  metrics::Table table({"Style", "Overhead vs baseline", "Notes"});
  table.add_row({"typical (allowlisted sigreturn)",
                 metrics::ratio(typical / baseline),
                 "attackers can jump to the allowlisted syscall"});
  table.add_row({"selector-only + redirect (lazypoline slow path)",
                 metrics::ratio(selector_only / baseline),
                 "no exempt code range; one shared entry for both paths"});
  std::printf("%s\n", table.render().c_str());
}

void ablation_hybrid() {
  std::printf("-- Ablation C: hybrid vs pure-SUD vs pure-static (JIT "
              "workload, 300 post-JIT syscalls) --\n");
  // A JIT program whose generated main performs many getpid calls: the
  // discovery cost amortizes only in the hybrid design.
  const std::string src = R"(
    int main() {
      int i = 0;
      int last = 0;
      while (i < 300) {
        last = syscall1(39, 0);
        i = i + 1;
      }
      return last;
    })";

  struct Variant {
    const char* name;
    bool rewrite;
    bool use_sud;
    bool use_zpoline;
  };
  const Variant variants[] = {
      {"zpoline (pure static)", false, false, true},
      {"pure SUD (no rewriting)", false, true, false},
      {"lazypoline (hybrid)", true, true, false},
  };

  metrics::Table table({"Design", "Cycles", "JIT syscalls interposed",
                        "slow-path hits"});
  for (const Variant& variant : variants) {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    bench::check(machine.vfs().put_file(
                     "p.c", std::vector<std::uint8_t>(src.begin(), src.end())),
                 "seed");
    const auto runner =
        bench::unwrap(apps::make_jit_runner(machine, "p.c"), "runner");
    machine.register_program(runner.program);
    const kern::Tid tid = bench::unwrap(machine.load(runner.program), "load");
    auto handler = std::make_shared<interpose::TracingHandler>();

    Mechanism mechanism = Mechanism::Kind::kZpoline;
    if (!variant.use_zpoline) {
      mechanism = Mechanism::Kind::kLazypoline;
      mechanism.lazypoline.rewrite_to_fast_path = variant.rewrite;
      mechanism.lazypoline.xstate = core::XstateMode::kNone;
    }
    std::shared_ptr<core::Lazypoline> runtime;
    bench::check(scenario::install(mechanism, machine, tid, handler, &runtime),
                 "install");
    const auto stats = machine.run();
    if (!stats.all_exited) bench::die("hung: " + machine.last_fatal());

    const auto numbers = handler->traced_numbers();
    const auto jit_hits = std::count(numbers.begin(), numbers.end(),
                                     std::uint64_t{kern::kSysGetpid});
    table.add_row({variant.name,
                   std::to_string(machine.find_task(tid)->cycles),
                   std::to_string(jit_hits) + "/300",
                   runtime ? std::to_string(runtime->stats().slow_path_hits)
                           : "n/a"});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablation_scan_risk() {
  std::printf("-- Ablation D: static identification risk vs kernel-verified "
              "discovery --\n");
  // Hostile-but-legal code: a real syscall, a syscall byte pattern inside an
  // immediate, and a data blob that desyncs linear sweeps.
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, 0x0000'0000'0000'050FULL);  // fake pattern in imm
  const auto after = a.new_label();
  a.jmp(after);
  a.db({0xB8, 0x00});  // data resembling a MOV header
  a.syscall_();        // real site hidden from desynced sweeps
  a.nops(6);
  a.bind(after);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();        // plainly visible real site
  apps::emit_exit(a, 0);
  const auto program =
      bench::unwrap(isa::make_program("hostile", a, entry), "assemble");

  metrics::Table table(
      {"Identification", "true sites found", "false positives", "missed"});
  for (auto strategy : {disasm::Strategy::kRawBytes,
                        disasm::Strategy::kLinearSweep}) {
    const auto result = disasm::scan(program.image, program.base, strategy);
    const auto accuracy = disasm::evaluate(result, program);
    table.add_row({strategy == disasm::Strategy::kRawBytes ? "raw byte scan"
                                                            : "linear sweep",
                   std::to_string(accuracy.true_positives.size()),
                   std::to_string(accuracy.false_positives.size()),
                   std::to_string(accuracy.missed.size())});
  }
  // lazypoline: the kernel reports each site at first use — by construction
  // 0 false positives, 0 misses among *executed* sites.
  table.add_row({"kernel-verified (lazypoline slow path)", "all executed",
                 "0 by construction", "0 by construction"});
  std::printf("%s\n", table.render().c_str());
}

void ablation_sled_depth() {
  std::printf("-- Ablation E: nop-sled entry depth (pessimistic 1 cycle/nop "
              "core) --\n");
  kern::CostModel pessimistic;
  pessimistic.insn_nop = 1;  // no superscalar nop elimination
  const Mechanism lazypoline =
      bench::steady_lazypoline(core::XstateMode::kNone);

  metrics::Series series("syscall nr", {"cycles/syscall (deep sled)",
                                        "cycles/syscall (nops free)"});
  const std::uint64_t iterations = 2'000;
  for (std::uint64_t nr : {0ULL, 100ULL, 250ULL, 400ULL, 500ULL}) {
    const scenario::Loop loop{iterations, nr};
    const double deep = loop_cycles(loop, lazypoline, pessimistic);
    const double free_nops = loop_cycles(loop, lazypoline);
    series.add_point(std::to_string(nr),
                     {deep / iterations, free_nops / iterations}, 1);
  }
  std::printf("%s\n", series.render().c_str());
  std::printf("The paper's microbenchmark uses nr=500 precisely so the sled\n"
              "is entered at its very tail, minimizing zpoline's cost.\n\n");
}


void ablation_worker_model() {
  std::printf("-- Ablation F: worker model under lazypoline (4 workers, 400 "
              "requests) --\n");
  const std::uint64_t requests = 400;

  // One process of 4 CLONE_VM threads, or 4 single-threaded processes.
  auto slow_path_hits = [&](unsigned workers, unsigned threads) {
    const scenario::Scenario spec{
        scenario::Web{apps::nginx_profile(), workers, 2048, 12, requests,
                      /*shared_listener=*/true, threads},
        Mechanism::Kind::kLazypoline};
    kern::Machine machine;
    const scenario::Instance instance = bench::unwrap(
        scenario::build(spec, machine,
                        std::make_shared<interpose::DummyHandler>()),
        "build");
    bench::unwrap(scenario::run(spec, machine, instance), "run");
    std::uint64_t hits = 0;
    for (const auto& runtime : instance.runtimes) {
      hits += runtime->stats().slow_path_hits;
    }
    return hits;
  };
  auto run_threads = [&] { return slow_path_hits(1, 4); };
  auto run_processes = [&] { return slow_path_hits(4, 0); };

  metrics::Table table({"Worker model", "slow-path discoveries", "why"});
  table.add_row({"4 threads (CLONE_VM)", std::to_string(run_threads()),
                 "shared text: each site rewritten once for everyone"});
  table.add_row({"4 processes", std::to_string(run_processes()),
                 "separate address spaces rediscover every site"});
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main() {
  std::printf("== Design ablations ==\n\n");
  ablation_xstate();
  ablation_sud_style();
  ablation_hybrid();
  ablation_scan_risk();
  ablation_sled_depth();
  ablation_worker_model();
  return 0;
}
