// analyze — the static rewrite-safety analyzer as a command-line tool.
//
// Runs CFG + superset disassembly (src/analysis) over a named workload's
// program image, classifies every candidate syscall window with a verdict
// (SAFE / UNSAFE_OVERLAP / UNSAFE_JUMP_INTO_WINDOW / UNKNOWN), and compares
// the analyzer's SAFE set as an eager-rewrite list against the raw byte
// scan, the linear sweep, and the assembler's ground truth.
//
//   ./build/examples/analyze                         # webserver, summary
//   ./build/examples/analyze --workload=adversarial --listing
//   ./build/examples/analyze --json=report.json      # machine-readable
//   ./build/examples/analyze --workload=webserver --gate
//
// --gate is the scripts/check.sh leg: it additionally runs the workload
// under lazypoline twice — lazy-only and verified-eager — with the runtime
// cross-checker attached, and fails if (a) the analyzer marked SAFE a window
// that is not a genuine syscall instruction, (b) the eager rewriter patched
// more sites than the analyzer proved SAFE, (c) the cross-checker saw any
// dynamic observation contradicting a SAFE verdict, or (d) the two modes
// disagree on the number of interposed syscalls (eager must change *when*
// sites are rewritten, never *what* is interposed).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/crosscheck.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/report.hpp"
#include "policy/extract.hpp"
#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "disasm/scanner.hpp"
#include "interpose/handler.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "scenario/scenario.hpp"

using namespace lzp;

namespace {

constexpr std::uint64_t kFileSize = 4096;
constexpr std::uint64_t kRequests = 400;

void die(const std::string& message) {
  std::fprintf(stderr, "analyze: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T unwrap(Result<T> result, const char* what) {
  if (!result.is_ok()) die(std::string(what) + ": " + result.status().to_string());
  return std::move(result).value();
}

// A workload is a program builder plus an optional loader (program
// construction is per-machine because hostcall bindings are). Without a
// loader the program is registered and loaded as is.
struct Workload {
  std::function<isa::Program(kern::Machine&)> build;
  std::function<kern::Tid(kern::Machine&, isa::Program*)> load;
};

// The Figure-5 nginx server, one worker, natively: the gate installs
// lazypoline itself so it can attach the cross-checker first.
Workload webserver_workload() {
  Workload w;
  w.load = [](kern::Machine& machine, isa::Program* program) {
    const scenario::Scenario spec{
        scenario::Web{apps::nginx_profile(), 1, kFileSize, 36, kRequests}};
    scenario::Instance instance =
        unwrap(scenario::build(spec, machine, nullptr), "build webserver");
    *program = std::move(instance.program);
    return instance.workers.front();
  };
  return w;
}

// Builds (or, with a loader, loads) the workload's program on `machine`;
// returns the main task when `tid` is given.
isa::Program load_workload(const Workload& workload, kern::Machine& machine,
                           kern::Tid* tid) {
  isa::Program program;
  if (workload.load) {
    const kern::Tid main = workload.load(machine, &program);
    if (tid != nullptr) *tid = main;
    return program;
  }
  program = workload.build(machine);
  if (tid != nullptr) {
    machine.register_program(program);
    *tid = unwrap(machine.load(program), "load");
  }
  return program;
}

Workload getpid_loop_workload() {
  Workload w;
  w.build = [](kern::Machine& machine) {
    machine.mmap_min_addr = 0;
    isa::Assembler a;
    const auto entry = a.new_label();
    const auto loop = a.new_label();
    const auto done = a.new_label();
    a.bind(entry);
    a.mov(isa::Gpr::rbx, 100);
    a.bind(loop);
    a.cmp(isa::Gpr::rbx, 0);
    a.jz(done);
    a.mov(isa::Gpr::rax, kern::kSysGetpid);
    a.syscall_();
    a.sub(isa::Gpr::rbx, 1);
    a.jmp(loop);
    a.bind(done);
    apps::emit_exit(a, 0);
    return unwrap(isa::make_program("getpid-loop", a, entry), "assemble loop");
  };
  return w;
}

// Every classic disassembly trap in one image. Only the entry path executes;
// the baits are reachable (or deliberately unreachable) for the analyzer.
Workload adversarial_workload() {
  Workload w;
  w.build = [](kern::Machine& machine) {
    machine.mmap_min_addr = 0;
    isa::Assembler a;
    const auto entry = a.new_label();
    const auto gadget = a.new_label();
    const auto mid = a.new_label();
    const auto after_data = a.new_label();
    a.bind(entry);
    // Descent explores the gadget arm; runtime never takes it (rbx != 0x7777).
    a.mov(isa::Gpr::rbx, 1);
    a.cmp(isa::Gpr::rbx, 0x7777);
    a.jz(gadget);
    // A genuine, provably SAFE syscall.
    a.mov(isa::Gpr::rax, kern::kSysGetpid);
    a.syscall_();
    // Overlap bait: the immediate's low bytes are 0F 05 — a raw scan flags
    // them, but they live inside this reachable mov.
    a.mov(isa::Gpr::rcx, 0x050FULL);
    a.jmp(after_data);
    // Data island with a syscall-looking pair; unreachable by descent.
    a.db({0x68, 0x69, 0x0F, 0x05, 0x0A, 0x00});
    // Desync header: 0xB8 swallows the following bytes in a linear sweep,
    // hiding a *genuine* (though never-executed) syscall. Unreachable by
    // direct control flow -> UNKNOWN, left to lazy discovery.
    a.db({0xB8});
    a.mov(isa::Gpr::rax, kern::kSysGetpid);
    a.syscall_();
    a.bind(after_data);
    apps::emit_exit(a, 0);
    // Jump-into-window gadget: the 0F 05 window is reachable by fallthrough
    // AND `mid` targets its second byte.
    a.bind(gadget);
    a.jz(mid);
    a.db({0x0F});
    a.bind(mid);
    a.db({0x05});
    a.ret();
    return unwrap(isa::make_program("adversarial", a, entry), "assemble");
  };
  return w;
}

Workload make_workload(const std::string& name) {
  if (name == "webserver") return webserver_workload();
  if (name == "getpid-loop") return getpid_loop_workload();
  if (name == "adversarial") return adversarial_workload();
  die("unknown workload '" + name +
      "' (expected webserver|getpid-loop|adversarial)");
  return {};
}

void print_accuracy_row(const char* label, std::size_t reported,
                        std::size_t tp, std::size_t fp, std::size_t missed) {
  std::printf("  %-22s %8zu %8zu %8zu %8zu\n", label, reported, tp, fp, missed);
}

// The §II-B comparison: each strategy's site list scored against assembler
// ground truth. For the analyzer, the "reported" list is its SAFE set — the
// sites an eager rewriter would patch.
void print_accuracy_table(const isa::Program& program,
                          const analysis::Analysis& result) {
  const auto score = [&](disasm::Strategy strategy, const char* label) {
    const auto scan = disasm::scan(program.image, program.base, strategy);
    const auto acc = disasm::evaluate(scan, program);
    print_accuracy_row(label, scan.syscall_sites.size(),
                       acc.true_positives.size(), acc.false_positives.size(),
                       acc.missed.size());
  };
  std::printf("  %-22s %8s %8s %8s %8s\n", "strategy", "reported", "true+",
              "false+", "missed");
  score(disasm::Strategy::kRawBytes, "raw byte scan");
  score(disasm::Strategy::kLinearSweep, "linear sweep");
  score(disasm::Strategy::kUnion, "union");
  const auto acc = analysis::evaluate(result, program);
  print_accuracy_row("cfg analyzer (SAFE)", acc.safe_true.size() + acc.safe_false.size(),
                     acc.safe_true.size(), acc.safe_false.size(),
                     acc.not_eager.size());
  std::printf("  (analyzer 'missed' = genuine sites deferred to lazy/SUD "
              "discovery, not lost)\n");
}

struct DynamicRun {
  core::LazypolineStats stats;
  std::shared_ptr<analysis::CrossChecker> checker;
  std::uint64_t syscalls_dispatched = 0;
  bool ok = false;
};

DynamicRun run_under_lazypoline(const Workload& workload, bool eager) {
  DynamicRun run;
  kern::Machine machine;
  kern::Tid tid = 0;
  const isa::Program program = load_workload(workload, machine, &tid);

  core::LazypolineConfig config;
  config.eager_verified_rewrite = eager;
  auto runtime = core::Lazypoline::create(machine, config);
  run.checker = std::make_shared<analysis::CrossChecker>();
  run.checker->add_region(
      analysis::analyze(program.image, program.base, program.entry));
  runtime->set_cross_checker(run.checker);
  const Status status = runtime->install(
      machine, tid, std::make_shared<interpose::DummyHandler>());
  if (!status.is_ok()) die("lazypoline install: " + status.to_string());

  const auto stats = machine.run();
  run.stats = runtime->stats();
  run.syscalls_dispatched = machine.find_task(tid)->syscalls_dispatched;
  run.ok = stats.all_exited;
  if (!run.ok) std::fprintf(stderr, "analyze: run hung: %s\n",
                            machine.last_fatal().c_str());
  return run;
}

int run_gate(const std::string& workload_name, const Workload& workload,
             const analysis::Analysis& result, const isa::Program& program) {
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "analyze --gate: FAIL: %s\n", what.c_str());
    ++failures;
  };

  const auto acc = analysis::evaluate(result, program);
  if (!acc.sound()) {
    fail(std::to_string(acc.safe_false.size()) +
         " SAFE verdict(s) on windows that are not genuine syscall sites");
  }

  const DynamicRun lazy = run_under_lazypoline(workload, /*eager=*/false);
  const DynamicRun eager = run_under_lazypoline(workload, /*eager=*/true);
  if (!lazy.ok || !eager.ok) fail("workload did not run to completion");

  const std::size_t safe_count = result.count(analysis::Verdict::kSafe);
  if (eager.stats.eager_sites_rewritten > safe_count) {
    fail("eager rewriter patched " +
         std::to_string(eager.stats.eager_sites_rewritten) +
         " sites but only " + std::to_string(safe_count) + " are SAFE");
  }
  if (eager.checker->safe_disagreements() != 0) {
    fail(std::to_string(eager.checker->safe_disagreements()) +
         " dynamic observation(s) contradicting a SAFE verdict");
  }
  if (lazy.checker->safe_disagreements() != 0) {
    fail("lazy run contradicts SAFE verdict(s)");
  }
  if (lazy.stats.entry_invocations != eager.stats.entry_invocations) {
    fail("interposed-syscall counts diverge: lazy=" +
         std::to_string(lazy.stats.entry_invocations) + " eager=" +
         std::to_string(eager.stats.entry_invocations));
  }
  if (eager.stats.eager_sites_rewritten == 0) {
    fail("analyzer proved no site SAFE on " + workload_name +
         " — eager mode is vacuous");
  }
  if (eager.stats.slow_path_hits >= lazy.stats.slow_path_hits &&
      lazy.stats.slow_path_hits > 0) {
    fail("eager mode saved no slow-path discoveries (lazy=" +
         std::to_string(lazy.stats.slow_path_hits) + " eager=" +
         std::to_string(eager.stats.slow_path_hits) + ")");
  }

  std::printf("\ngate: %s under lazypoline (%llu interposed syscalls)\n",
              workload_name.c_str(),
              static_cast<unsigned long long>(eager.stats.entry_invocations));
  std::printf("  lazy-only : slow-path discoveries %llu, sites rewritten %llu\n",
              static_cast<unsigned long long>(lazy.stats.slow_path_hits),
              static_cast<unsigned long long>(lazy.stats.sites_rewritten));
  std::printf("  verified  : slow-path discoveries %llu, eager-rewritten %llu,"
              " deferred %llu\n",
              static_cast<unsigned long long>(eager.stats.slow_path_hits),
              static_cast<unsigned long long>(eager.stats.eager_sites_rewritten),
              static_cast<unsigned long long>(eager.stats.eager_sites_deferred));
  std::printf("  cross-checker (verified-eager run):\n%s",
              eager.checker->summary().c_str());
  if (failures == 0) std::printf("gate: PASS\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name = "webserver";
  std::string json_path;
  bool want_listing = false;
  bool want_gate = false;
  bool use_dataflow = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      workload_name = arg.substr(std::strlen("--workload="));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg == "--listing") {
      want_listing = true;
    } else if (arg == "--gate") {
      want_gate = true;
    } else if (arg == "--dataflow") {
      use_dataflow = true;
    } else if (arg == "--no-dataflow") {
      use_dataflow = false;
    } else {
      die("unknown flag '" + arg +
          "' (usage: analyze [--workload=NAME] [--json=PATH] [--listing] "
          "[--gate] [--dataflow|--no-dataflow])");
    }
  }

  const Workload workload = make_workload(workload_name);
  kern::Machine scratch;
  const isa::Program program = load_workload(workload, scratch, nullptr);
  const analysis::Analysis result =
      analysis::analyze(program.image, program.base, program.entry);

  std::printf("workload %s: %zu bytes of text, %zu candidate window(s)\n",
              workload_name.c_str(), program.image.size(),
              result.sites.size());
  std::printf("verdicts: %s\n", analysis::verdict_summary(result).c_str());
  std::printf("cfg: %zu reachable instruction(s), %zu basic block(s), "
              "%zu computed transfer(s)\n\n",
              result.cfg.reachable.size(), result.cfg.blocks.size(),
              result.cfg.computed_transfers.size());
  print_accuracy_table(program, result);

  // Syscall-number/argument resolution: the two-tier pipeline feeding the
  // policy subsystem (block-local idiom scan, then the interprocedural
  // value-flow analysis when --dataflow, the default).
  policy::ExtractOptions ex_opts;
  ex_opts.dataflow = use_dataflow;
  const policy::StaticExtraction ex = policy::extract_static(program, ex_opts);
  std::printf("\nsite resolution (%s): %zu/%zu sites resolved "
              "(%zu block-local + %zu value-flow), %zu predicated, "
              "wildcard=%s\n",
              use_dataflow ? "dataflow on" : "block-local only",
              ex.sites_resolved, ex.sites_total,
              ex.sites_resolved_blocklocal, ex.sites_resolved_dataflow,
              ex.predicated_sites, ex.used_wildcard ? "yes" : "no");
  if (use_dataflow) {
    const analysis::DataflowResult df =
        analysis::analyze_dataflow(result.cfg, program.entry);
    std::printf("dataflow: %zu block passes, %zu callee summaries "
                "(%zu conservative)\n",
                df.block_passes, df.callee_summaries, df.conservative_calls);
  }

  if (want_listing) {
    std::printf("\n%s", analysis::annotated_listing(result, program.image).c_str());
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << analysis::json_report(result, program.name) << "\n";
    if (!out) die("cannot write " + json_path);
    std::printf("\njson -> %s\n", json_path.c_str());
  }
  if (want_gate) return run_gate(workload_name, workload, result, program);
  return 0;
}
