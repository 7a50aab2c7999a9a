// Superblock + trace engine throughput gates.
//
// Every workload here runs on otherwise-identical machines differing only in
// the execution engine configuration:
//   reference — per-instruction stepping (decode cache on), the baseline;
//   block     — the superblock engine (block_exec_enabled);
//   trace     — superblocks chained into traces (trace_exec_enabled), with
//               the fused interposer fast path and the all-nop sled superop.
// Three claims are enforced:
//   (1) determinism — simulated cycles, retired instructions, machine steps
//       and exit codes are bit-identical across all three configurations,
//       for the straight-line workload, each interposition mechanism's micro
//       loop (native / SUD / zpoline / lazypoline), and the Figure-5
//       webserver under the same four mechanisms;
//   (2) block throughput — the superblock engine runs the straight-line
//       workload at least kBlockGate x faster than reference in host wall
//       time (min-of-N to shed scheduler noise);
//   (3) trace throughput — the trace engine runs the syscall-intensive
//       webserver at least kTraceGate x faster than the block engine under
//       zpoline and lazypoline, where each interposed syscall walks the
//       VA-0 nop sled that the trace engine executes as an O(1) superop.
// A fourth regression gate holds the SUD selector/stub page split: SUD must
// not invalidate cached blocks any more than zpoline does (the selector byte
// used to share the executable stub page, so every flip was an SMC event).
// Results land in BENCH_block_exec.json for scripts/check.sh.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/webserver.hpp"
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
constexpr int kReps = 7;
constexpr int kWebReps = 3;
constexpr double kBlockGate = 1.5;
constexpr double kTraceGate = 2.0;

constexpr bool kTraceEngineBuilt =
#ifdef LZP_TRACE_EXEC_DISABLED
    false;
#else
    true;
#endif

struct EngineCfg {
  const char* name;
  bool block;
  bool trace;
};
constexpr EngineCfg kReference{"reference", false, false};
constexpr EngineCfg kBlock{"block", true, false};
constexpr EngineCfg kTrace{"trace", true, true};

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
  double wall_ms = 1e18;  // min over reps
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::uint64_t steps = 0;
  int exit_code = -1;
  cpu::BlockCacheStats bcache;
  cpu::DataTlbStats dtlb;
  cpu::TraceCacheStats tcache;
};

void configure(kern::Machine& machine, const EngineCfg& cfg) {
  machine.mmap_min_addr = 0;
  machine.block_exec_enabled = cfg.block;
  machine.trace_exec_enabled = cfg.trace;
}

// Folds one repetition (timed at `start`..`end`) into `result`; `tid` is the
// task whose exit code is reported.
void record(RunResult& result, kern::Machine& machine, kern::Tid tid,
            std::chrono::steady_clock::time_point start,
            std::chrono::steady_clock::time_point end, int rep) {
  const double ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.wall_ms = std::min(result.wall_ms, ms);
  if (rep > 0 && result.cycles != machine.total_cycles()) {
    bench::die("simulated cycles varied between repetitions");
  }
  result.cycles = machine.total_cycles();
  result.insns = machine.total_insns();
  result.steps = machine.total_steps();
  result.exit_code = machine.find_task(tid)->exit_code;
  result.bcache = machine.block_cache_totals();
  result.dtlb = machine.data_tlb_totals();
  result.tcache = machine.trace_cache_totals();
}

RunResult run_program(const isa::Program& program, const EngineCfg& cfg) {
  RunResult result;
  for (int rep = 0; rep < kReps; ++rep) {
    kern::Machine machine;
    configure(machine, cfg);
    machine.register_program(program);
    const kern::Tid tid = bench::unwrap(machine.load(program), "load");
    const auto start = std::chrono::steady_clock::now();
    const auto stats = machine.run();
    const auto end = std::chrono::steady_clock::now();
    if (!stats.all_exited) {
      bench::die("machine did not quiesce: " + machine.last_fatal());
    }
    record(result, machine, tid, start, end, rep);
  }
  return result;
}

RunResult run_scenario(const scenario::Scenario& spec, const EngineCfg& cfg,
                       int reps) {
  RunResult result;
  for (int rep = 0; rep < reps; ++rep) {
    kern::Machine machine;
    configure(machine, cfg);
    const scenario::Instance instance = bench::unwrap(
        scenario::build(spec, machine,
                        std::make_shared<interpose::DummyHandler>()),
        "build");
    const auto start = std::chrono::steady_clock::now();
    bench::unwrap(scenario::run(spec, machine, instance), "run");
    const auto end = std::chrono::steady_clock::now();
    record(result, machine, instance.workers.front(), start, end, rep);
  }
  return result;
}

// The Figure-5 single-worker webserver: 36 keepalive connections,
// kWebRequests requests against a static file — the syscall-intensive macro
// workload the trace gate is measured on.
scenario::Scenario web_scenario(scenario::Mechanism::Kind kind) {
  return {scenario::Web{apps::nginx_profile(), 1, kWebFileSize, 36,
                        kWebRequests},
          kind};
}

// Dies unless every configuration agrees on every simulated observable.
void require_identical(const std::string& workload,
                       const std::vector<const RunResult*>& runs) {
  const RunResult& ref = *runs.front();
  for (const RunResult* run : runs) {
    if (ref.cycles != run->cycles || ref.insns != run->insns ||
        ref.steps != run->steps || ref.exit_code != run->exit_code) {
      std::fprintf(stderr,
                   "FAIL: %s diverged between engines:\n"
                   "  reference: cycles=%llu insns=%llu steps=%llu exit=%d\n"
                   "  other:     cycles=%llu insns=%llu steps=%llu exit=%d\n",
                   workload.c_str(),
                   static_cast<unsigned long long>(ref.cycles),
                   static_cast<unsigned long long>(ref.insns),
                   static_cast<unsigned long long>(ref.steps), ref.exit_code,
                   static_cast<unsigned long long>(run->cycles),
                   static_cast<unsigned long long>(run->insns),
                   static_cast<unsigned long long>(run->steps),
                   run->exit_code);
      std::exit(1);
    }
  }
}

std::string result_json(const std::string& workload, const std::string& config,
                        const RunResult& r, double speedup) {
  return metrics::JsonObject()
      .add("workload", workload)
      .add("config", config)
      .add("wall_ms", r.wall_ms)
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
      .add("tcache_hits", r.tcache.hits)
      .add("tcache_traces_built", r.tcache.traces_built)
      .add("tcache_chain_follows", r.tcache.chain_follows)
      .add("tcache_side_exits", r.tcache.side_exits)
      .add("tcache_completions", r.tcache.completions)
      .add("tcache_resumes", r.tcache.resumes)
      .add("tcache_demotions", r.tcache.demotions)
      .add("tcache_invalidations", r.tcache.invalidations)
      .add("tcache_fused_fastpaths", r.tcache.fused_fastpaths)
      .render();
}

void add_row(metrics::Table& table, const std::string& workload,
             const EngineCfg& cfg, const RunResult& r, double speedup) {
  table.add_row({workload, cfg.name, format_double(r.wall_ms, 3),
                 metrics::ratio(speedup), std::to_string(r.cycles),
                 std::to_string(r.insns),
                 std::to_string(r.tcache.chain_follows),
                 std::to_string(r.tcache.fused_fastpaths)});
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  const std::string json_path = cli.positional_or(0, "BENCH_block_exec.json");
  std::vector<std::string> results;

  metrics::Table table({"workload", "config", "wall ms (min)", "speedup",
                        "sim cycles", "insns", "chains", "fused"});

  // --- straight-line throughput + block gate --------------------------------
  const auto program = make_straight_line(kStraightLineIters);
  const RunResult sl_ref = run_program(program, kReference);
  const RunResult sl_blk = run_program(program, kBlock);
  const RunResult sl_trc = run_program(program, kTrace);
  require_identical("straight-line", {&sl_ref, &sl_blk, &sl_trc});
  if (sl_blk.bcache.hits == 0) {
    std::fprintf(stderr, "FAIL: engine-on run recorded no block-cache hits\n");
    return 1;
  }
  const double block_speedup = sl_ref.wall_ms / sl_blk.wall_ms;
  add_row(table, "straight-line", kReference, sl_ref, 1.0);
  add_row(table, "straight-line", kBlock, sl_blk, block_speedup);
  add_row(table, "straight-line", kTrace, sl_trc,
          sl_ref.wall_ms / sl_trc.wall_ms);
  results.push_back(result_json("straight-line", "reference", sl_ref, 1.0));
  results.push_back(
      result_json("straight-line", "block", sl_blk, block_speedup));
  results.push_back(result_json("straight-line", "trace", sl_trc,
                                sl_ref.wall_ms / sl_trc.wall_ms));

  // --- per-mechanism micro-loop determinism ---------------------------------
  // The interposed paths bounce through host code and signals, exercising the
  // engines' fallback edges; each must be cycle-identical across all three
  // configurations.
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
    const RunResult m_ref = run_scenario(micro, kReference, kReps);
    const RunResult m_blk = run_scenario(micro, kBlock, kReps);
    const RunResult m_trc = run_scenario(micro, kTrace, kReps);
    require_identical(mechanism.name, {&m_ref, &m_blk, &m_trc});
    add_row(table, mechanism.name, kBlock, m_blk,
            m_ref.wall_ms / m_blk.wall_ms);
    add_row(table, mechanism.name, kTrace, m_trc,
            m_ref.wall_ms / m_trc.wall_ms);
    results.push_back(result_json(mechanism.name, "reference", m_ref, 1.0));
    results.push_back(result_json(mechanism.name, "block", m_blk,
                                  m_ref.wall_ms / m_blk.wall_ms));
    results.push_back(result_json(mechanism.name, "trace", m_trc,
                                  m_ref.wall_ms / m_trc.wall_ms));
  }

  // --- webserver macro workload + trace gate --------------------------------
  metrics::Table wtable({"workload", "config", "wall ms (min)", "speedup",
                         "sim cycles", "insns", "chains", "fused"});
  const struct {
    const char* name;
    Kind mech;
  } web_mechs[] = {{"web-native", Kind::kNative},
                   {"web-sud", Kind::kSud},
                   {"web-zpoline", Kind::kZpoline},
                   {"web-lazypoline", Kind::kLazypoline}};
  double trace_gate_min = 1e18;
  std::uint64_t sud_invalidations = 0;
  std::uint64_t zpoline_invalidations = 0;
  std::uint64_t interposed_fused = 0;
  for (const auto& wm : web_mechs) {
    const scenario::Scenario web = web_scenario(wm.mech);
    const RunResult w_ref = run_scenario(web, kReference, kWebReps);
    const RunResult w_blk = run_scenario(web, kBlock, kWebReps);
    const RunResult w_trc = run_scenario(web, kTrace, kWebReps);
    require_identical(wm.name, {&w_ref, &w_blk, &w_trc});
    const double vs_ref = w_ref.wall_ms / w_trc.wall_ms;
    const double vs_block = w_blk.wall_ms / w_trc.wall_ms;
    add_row(wtable, wm.name, kReference, w_ref, 1.0);
    add_row(wtable, wm.name, kBlock, w_blk, w_ref.wall_ms / w_blk.wall_ms);
    add_row(wtable, wm.name, kTrace, w_trc, vs_ref);
    results.push_back(result_json(wm.name, "reference", w_ref, 1.0));
    results.push_back(result_json(wm.name, "block", w_blk,
                                  w_ref.wall_ms / w_blk.wall_ms));
    results.push_back(result_json(wm.name, "trace", w_trc, vs_ref));
    if (wm.mech == Kind::kZpoline || wm.mech == Kind::kLazypoline) {
      trace_gate_min = std::min(trace_gate_min, vs_block);
      interposed_fused += w_trc.tcache.fused_fastpaths;
    }
    if (wm.mech == Kind::kSud) sud_invalidations = w_blk.bcache.invalidations;
    if (wm.mech == Kind::kZpoline) {
      zpoline_invalidations = w_blk.bcache.invalidations;
    }
  }

  std::printf(
      "== Execution engines (straight-line %llu iters x %d ops, min of %d) "
      "==\n%s\n",
      static_cast<unsigned long long>(kStraightLineIters), kUnroll, kReps,
      table.render().c_str());
  std::printf(
      "== Webserver macro workload (nginx, %llu requests, min of %d) ==\n%s\n",
      static_cast<unsigned long long>(kWebRequests), kWebReps,
      wtable.render().c_str());
  // Single-task microbenchmark: --cpus tags the artifact for comparability.
  bench::write_json_report(json_path, "block_exec", results, cli.cpus);

  bool ok = true;
  if (block_speedup < kBlockGate) {
    std::fprintf(stderr, "FAIL: superblock engine speedup %.3fx < %.2fx gate\n",
                 block_speedup, kBlockGate);
    ok = false;
  }
  // The SUD page-split regression gate: with the selector on its own RW page
  // a selector flip is no longer an SMC event, so SUD invalidates no more
  // cached blocks than zpoline (both only pay the install-time rewrites).
  if (sud_invalidations > zpoline_invalidations + 8) {
    std::fprintf(stderr,
                 "FAIL: SUD invalidated %llu cached blocks vs zpoline's %llu "
                 "(selector byte sharing the stub's executable page?)\n",
                 static_cast<unsigned long long>(sud_invalidations),
                 static_cast<unsigned long long>(zpoline_invalidations));
    ok = false;
  }
  if (kTraceEngineBuilt) {
    if (trace_gate_min < kTraceGate) {
      std::fprintf(stderr,
                   "FAIL: trace engine %.3fx over block engine on the "
                   "interposed webserver < %.2fx gate\n",
                   trace_gate_min, kTraceGate);
      ok = false;
    }
    if (interposed_fused == 0) {
      std::fprintf(stderr,
                   "FAIL: no fused interposer fast paths on the interposed "
                   "webserver\n");
      ok = false;
    }
  } else {
    std::printf("SKIP: trace gates (built with -DLZP_TRACE_EXEC=OFF)\n");
  }
  if (!ok) return 1;
  std::printf(
      "PASS: straight-line block speedup %.3fx >= %.2fx, webserver trace "
      "speedup %.3fx >= %.2fx over block, SUD invalidations at zpoline "
      "level, all workloads cycle/step-identical across engines\n",
      block_speedup, kBlockGate, kTraceEngineBuilt ? trace_gate_min : 0.0,
      kTraceGate);
  return 0;
}
