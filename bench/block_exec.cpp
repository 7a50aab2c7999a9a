// Superblock engine throughput gates.
//
// Every workload here runs on otherwise-identical machines differing only in
// the execution engine:
//   reference — per-instruction stepping (decode cache on), the baseline;
//   block     — the superblock engine (block_exec_enabled), which also runs
//               long nop runs such as the VA-0 sled in O(1) per slice.
// Three claims are enforced:
//   (1) determinism — simulated cycles, retired instructions, machine steps
//       and exit codes are bit-identical across both engines, for the
//       straight-line workload, each interposition mechanism's micro loop
//       (native / SUD / zpoline / lazypoline), and the Figure-5 webserver
//       under the same four mechanisms;
//   (2) block throughput — the superblock engine runs the straight-line
//       workload at least kBlockGate x faster than reference in host wall
//       time;
//   (3) sled throughput — the block engine runs the syscall-intensive
//       webserver at least kSledGate x faster than reference under zpoline
//       and lazypoline, where each interposed syscall walks the VA-0 nop
//       sled.
// Every host-time gate reads the median paired ratio of lzp::paired_ratios,
// which interleaves the two engines it compares (its A/A control is printed
// beside it); every other run is single and reported only. Only the guest
// run is timed.
// A fourth regression gate holds the SUD selector/stub page split: SUD must
// not invalidate cached blocks any more than zpoline does (the selector byte
// used to share the executable stub page, so every flip was an SMC event).
// Results land in BENCH_block_exec.json for scripts/check.sh.
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/webserver.hpp"
#include "base/stats.hpp"
#include "base/strings.hpp"
#include "bench_util.hpp"
#include "metrics/report.hpp"

namespace {
using namespace lzp;

constexpr std::uint64_t kStraightLineIters = 20'000;
constexpr int kUnroll = 24;  // arithmetic ops per loop body → long blocks
constexpr std::uint64_t kMicroIters = 2'000;
constexpr std::uint64_t kWebRequests = 2'400;
constexpr std::uint64_t kWebFileSize = 4'096;
constexpr double kBlockGate = 1.5;
constexpr double kSledGate = 8.0;

struct EngineCfg {
  const char* name;
  bool block;
};
constexpr EngineCfg kEngines[] = {{"reference", false}, {"block", true}};
constexpr std::size_t kReference = 0, kBlock = 1;

// The throughput workload: a hot loop whose body is a long straight-line run
// of arithmetic, so nearly every retired instruction is eligible for batched
// dispatch (the loop branch ends each block).
isa::Program make_straight_line(std::uint64_t iterations) {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, iterations);
  a.mov(isa::Gpr::rcx, 0);
  a.bind(loop);
  for (int i = 0; i < kUnroll; ++i) {
    a.add(isa::Gpr::rcx, static_cast<std::uint64_t>(i + 1));
  }
  a.sub(isa::Gpr::rbx, 1);
  a.cmp(isa::Gpr::rbx, 0);
  a.jnz(loop);
  apps::emit_exit(a, 0);
  return bench::unwrap(isa::make_program("block-straight-line", a, entry),
                       "assemble straight-line");
}

struct RunResult {
  double seconds = 0.0;  // the paired median when the engine was paired
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::uint64_t steps = 0;
  int exit_code = -1;
  cpu::BlockCacheStats bcache;
  cpu::DataTlbStats dtlb;
};

// A workload runs `spec` when it has one, else `program` alone; the exit
// code reported is its first task's.
struct Workload {
  std::string name;
  std::optional<scenario::Scenario> spec;
  const isa::Program* program = nullptr;
};

RunResult run_once(const Workload& workload, const EngineCfg& cfg) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.block_exec_enabled = cfg.block;
  scenario::Instance instance;
  kern::Tid tid = 0;
  if (workload.spec) {
    instance = bench::unwrap(
        scenario::build(*workload.spec, machine,
                        std::make_shared<interpose::DummyHandler>()),
        "build");
    tid = instance.workers.front();
  } else {
    machine.register_program(*workload.program);
    tid = bench::unwrap(machine.load(*workload.program), "load");
  }
  const auto start = std::chrono::steady_clock::now();
  if (workload.spec) {
    bench::unwrap(scenario::run(*workload.spec, machine, instance), "run");
  } else if (!machine.run().all_exited) {
    bench::die("machine did not quiesce: " + machine.last_fatal());
  }
  RunResult result;
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result.cycles = machine.total_cycles();
  result.insns = machine.total_insns();
  result.steps = machine.total_steps();
  result.exit_code = machine.find_task(tid)->exit_code;
  result.bcache = machine.block_cache_totals();
  result.dtlb = machine.data_tlb_totals();
  return result;
}

bool same_simulation(const RunResult& a, const RunResult& b) {
  return a.cycles == b.cycles && a.insns == b.insns && a.steps == b.steps &&
         a.exit_code == b.exit_code;
}

struct Measured {
  std::array<RunResult, 2> runs;  // indexed like kEngines
  PairedResult timing;            // of the paired engines, in their order
};

// Runs `workload` under every engine. The engines in `paired` (baseline
// first) are timed against each other by paired_ratios; the others run once.
// Dies unless every run agrees on every simulated observable.
Measured measure(const Workload& workload,
                 const std::vector<std::size_t>& paired = {}) {
  Measured out;
  std::array<bool, 2> ran{};
  std::vector<PairedArm> arms;
  for (const std::size_t engine : paired) {
    arms.push_back({kEngines[engine].name, [&, engine] {
                      const RunResult run = run_once(workload, kEngines[engine]);
                      if (ran[engine] &&
                          !same_simulation(run, out.runs[engine])) {
                        bench::die(workload.name +
                                   ": simulated cycles varied between "
                                   "repetitions");
                      }
                      out.runs[engine] = run;
                      ran[engine] = true;
                      return run.seconds;
                    }});
  }
  out.timing = paired_ratios(arms);
  for (std::size_t i = 0; i < paired.size(); ++i) {
    out.runs[paired[i]].seconds = out.timing.arms[i].median_seconds;
  }
  for (std::size_t engine = 0; engine < out.runs.size(); ++engine) {
    if (!ran[engine]) out.runs[engine] = run_once(workload, kEngines[engine]);
  }
  const auto describe = [](const RunResult& r) {
    return "cycles=" + std::to_string(r.cycles) +
           " insns=" + std::to_string(r.insns) +
           " steps=" + std::to_string(r.steps) +
           " exit=" + std::to_string(r.exit_code);
  };
  for (std::size_t engine = 0; engine < out.runs.size(); ++engine) {
    if (!same_simulation(out.runs[kReference], out.runs[engine])) {
      bench::die(workload.name + " diverged between engines: " +
                 "reference " + describe(out.runs[kReference]) + ", " +
                 kEngines[engine].name + " " + describe(out.runs[engine]));
    }
  }
  return out;
}

// Reports `measured`'s two engines as table and JSON rows, each with its
// host speedup over reference.
void report(const std::string& workload, const Measured& measured,
            metrics::Table& table, std::vector<std::string>& results) {
  const double ref_seconds = measured.runs[kReference].seconds;
  for (std::size_t engine = 0; engine < measured.runs.size(); ++engine) {
    const RunResult& r = measured.runs[engine];
    const double speedup = ref_seconds / r.seconds;
    table.add_row({workload, kEngines[engine].name,
                   format_double(r.seconds * 1e3, 3), metrics::ratio(speedup),
                   std::to_string(r.cycles), std::to_string(r.insns),
                   std::to_string(r.bcache.blocks_built)});
    results.push_back(metrics::JsonObject()
                          .add("workload", workload)
                          .add("config", kEngines[engine].name)
                          .add("wall_ms", r.seconds * 1e3)
                          .add("speedup_x", speedup)
                          .add("sim_cycles", r.cycles)
                          .add("insns_retired", r.insns)
                          .add("machine_steps", r.steps)
                          .add("bcache_hits", r.bcache.hits)
                          .add("bcache_misses", r.bcache.misses)
                          .add("bcache_blocks_built", r.bcache.blocks_built)
                          .add("bcache_invalidations", r.bcache.invalidations)
                          .add("dtlb_read_hits", r.dtlb.read_hits)
                          .add("dtlb_write_hits", r.dtlb.write_hits)
                          .render());
  }
}

// The Figure-5 single-worker webserver: 36 keepalive connections,
// kWebRequests requests against a static file — the syscall-intensive macro
// workload the sled gate is measured on.
scenario::Scenario web_scenario(scenario::Mechanism::Kind kind) {
  return {scenario::Web{apps::nginx_profile(), 1, kWebFileSize, 36,
                        kWebRequests},
          kind};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  const std::string json_path = cli.positional_or(0, "BENCH_block_exec.json");
  std::vector<std::string> results;
  metrics::Table table({"workload", "config", "ms", "speedup", "sim cycles",
                        "insns", "blocks built"});
  bool ok = true;
  const auto expect = [&ok](bool holds, const std::string& message) {
    if (holds) return;
    std::fprintf(stderr, "FAIL: %s\n", message.c_str());
    ok = false;
  };
  // Prints a paired gate's reading beside its A/A control.
  const auto print_paired = [](const char* what, const Measured& m) {
    std::printf("%s: %.3fx (paired median of %zu rounds, A/A %.3fx)\n", what,
                m.timing.arms[1].median_ratio, m.timing.rounds,
                m.timing.aa_ratio);
  };

  // --- straight-line throughput + block gate --------------------------------
  // Paired with block as the baseline, reference's ratio is the speedup.
  const auto program = make_straight_line(kStraightLineIters);
  const Measured straight =
      measure({"straight-line", std::nullopt, &program}, {kBlock, kReference});
  report("straight-line", straight, table, results);
  print_paired("straight-line block over reference", straight);
  const double block_speedup = straight.timing.arms[1].median_ratio;
  expect(block_speedup >= kBlockGate,
         "superblock engine speedup " + format_double(block_speedup, 3) +
             "x < " + format_double(kBlockGate, 2) + "x gate");
  expect(straight.runs[kBlock].bcache.hits > 0,
         "engine-on run recorded no block-cache hits");

  // --- per-mechanism micro-loop determinism ---------------------------------
  // The interposed paths bounce through host code and signals, exercising the
  // engine's fallback edges; each must be cycle-identical across both
  // engines.
  using Kind = scenario::Mechanism::Kind;
  const struct {
    const char* name;
    scenario::Mechanism mechanism;
  } mechanisms[] = {
      {"native", Kind::kNative},
      {"sud", Kind::kSud},
      {"zpoline", Kind::kZpoline},
      {"lazypoline", bench::steady_lazypoline(core::XstateMode::kFull)},
  };
  for (const auto& mechanism : mechanisms) {
    const scenario::Scenario micro{scenario::Loop{kMicroIters},
                                   mechanism.mechanism};
    report(mechanism.name, measure({mechanism.name, micro}), table, results);
  }

  // --- webserver macro workload + sled gate ---------------------------------
  // Paired with block as the baseline, reference's ratio is the speedup.
  const struct {
    const char* name;
    Kind mech;
  } web_mechs[] = {{"web-native", Kind::kNative},
                   {"web-sud", Kind::kSud},
                   {"web-zpoline", Kind::kZpoline},
                   {"web-lazypoline", Kind::kLazypoline}};
  std::uint64_t sud_invalidations = 0;
  std::uint64_t zpoline_invalidations = 0;
  for (const auto& wm : web_mechs) {
    const bool gated =
        wm.mech == Kind::kZpoline || wm.mech == Kind::kLazypoline;
    const Measured web =
        measure({wm.name, web_scenario(wm.mech)},
                gated ? std::vector<std::size_t>{kBlock, kReference}
                      : std::vector<std::size_t>{});
    report(wm.name, web, table, results);
    if (gated) {
      print_paired((std::string(wm.name) + " block over reference").c_str(),
                   web);
      const double speedup = web.timing.arms[1].median_ratio;
      expect(speedup >= kSledGate,
             "block engine " + format_double(speedup, 3) +
                 "x over reference on " + wm.name + " < " +
                 format_double(kSledGate, 2) + "x gate");
    }
    if (wm.mech == Kind::kSud) {
      sud_invalidations = web.runs[kBlock].bcache.invalidations;
    }
    if (wm.mech == Kind::kZpoline) {
      zpoline_invalidations = web.runs[kBlock].bcache.invalidations;
    }
  }

  std::printf(
      "== Execution engines (straight-line %llu iters x %d ops; micro loops "
      "%llu syscalls; nginx %llu requests) ==\n%s\n",
      static_cast<unsigned long long>(kStraightLineIters), kUnroll,
      static_cast<unsigned long long>(kMicroIters),
      static_cast<unsigned long long>(kWebRequests), table.render().c_str());
  // Single-task microbenchmark: --cpus tags the artifact for comparability.
  bench::write_json_report(json_path, "block_exec", results, cli.cpus);

  // The SUD page-split regression gate: with the selector on its own RW page
  // a selector flip is no longer an SMC event, so SUD invalidates no more
  // cached blocks than zpoline (both only pay the install-time rewrites).
  expect(sud_invalidations <= zpoline_invalidations + 8,
         "SUD invalidated " + std::to_string(sud_invalidations) +
             " cached blocks vs zpoline's " +
             std::to_string(zpoline_invalidations) +
             " (selector byte sharing the stub's executable page?)");
  if (!ok) return 1;
  std::printf("PASS: block speedups hold their gates, SUD invalidations at "
              "zpoline level, all workloads cycle/step-identical across "
              "engines\n");
  return 0;
}
