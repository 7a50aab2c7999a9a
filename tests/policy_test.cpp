// Tests for the syscall-flow-integrity policy subsystem (src/policy):
// automaton format round trips (including predicate edges), extraction
// (block-local idioms, value-flow cross-block resolution, dynamic learning),
// the static ⊇ dynamic containment on the webserver, minimization (language
// preservation both ways), lowering to shared per-class seccomp-BPF filters
// (including segmented >255-member sets and argument-predicate checks), and
// enforcement semantics — deny/kill verdicts, state non-advance on denial,
// and identical violation verdicts under all four mechanisms.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "bpf/seccomp_filter.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "policy/compile.hpp"
#include "policy/enforce.hpp"
#include "policy/extract.hpp"
#include "policy/from_flight_recorder.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace {
using namespace lzp;
using kern::Machine;
using kern::Tid;

using Mech = scenario::Mechanism::Kind;

void install_mechanism(Machine& machine, Tid tid,
                       std::shared_ptr<interpose::SyscallHandler> handler,
                       Mech mech) {
  ASSERT_TRUE(scenario::install(mech, machine, tid, handler).is_ok());
}

// --- automaton format --------------------------------------------------------

policy::Automaton make_sample_automaton() {
  policy::Automaton automaton;
  automaton.name = "sample";
  automaton.source = "static";
  automaton.add_edge(policy::kEntryState, kern::kSysGetpid);
  automaton.add_edge(kern::kSysGetpid, kern::kSysGetpid);
  automaton.add_edge(kern::kSysGetpid, kern::kSysExitGroup);
  automaton.add_edge(kern::kSysWrite, policy::kAnySyscall);
  automaton.add_from_any(kern::kSysClose);
  return automaton;
}

TEST(PolicyAutomatonTest, SerializeParseRoundTrip) {
  const policy::Automaton automaton = make_sample_automaton();
  const std::string text = automaton.serialize();
  auto parsed = policy::Automaton::parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), automaton);
  // And the round trip is a fixpoint.
  EXPECT_EQ(parsed.value().serialize(), text);
}

TEST(PolicyAutomatonTest, ParseRejectsMalformed) {
  EXPECT_FALSE(policy::Automaton::parse("bogus keyword").is_ok());
  // '*' cannot be a state source: the monitor is never "in" the wildcard.
  EXPECT_FALSE(policy::Automaton::parse("state * -> 1").is_ok());
  // Syscall numbers beyond the table are rejected.
  EXPECT_FALSE(policy::Automaton::parse("state 1 -> 99999").is_ok());
}

TEST(PolicyAutomatonTest, AllowsSemantics) {
  const policy::Automaton automaton = make_sample_automaton();
  // Concrete edge.
  EXPECT_TRUE(automaton.allows(kern::kSysGetpid, kern::kSysExitGroup));
  EXPECT_FALSE(automaton.allows(kern::kSysGetpid, kern::kSysOpen));
  // from_any members are allowed from every state.
  EXPECT_TRUE(automaton.allows(kern::kSysGetpid, kern::kSysClose));
  EXPECT_TRUE(automaton.allows(policy::kEntryState, kern::kSysClose));
  // Wildcard successor: anything goes from that state.
  EXPECT_TRUE(automaton.allows(kern::kSysWrite, kern::kSysOpen));
  // States the automaton never mentions are unconstrained.
  EXPECT_TRUE(automaton.allows(kern::kSysMmap, kern::kSysOpen));
}

policy::Automaton make_predicated_automaton() {
  policy::Automaton automaton;
  automaton.name = "predicated";
  automaton.source = "static";
  automaton.add_edge(policy::kEntryState, kern::kSysOpen);
  // write allowed after open when (rdi in {1,2} && rsi == 0) or (rdx == 7).
  automaton.add_edge(kern::kSysOpen, kern::kSysWrite,
                     policy::PredClause{{0, {1, 2}}, {1, {0}}});
  automaton.add_edge(kern::kSysOpen, kern::kSysWrite,
                     policy::PredClause{{2, {7}}});
  automaton.add_edge(kern::kSysWrite, kern::kSysExitGroup);
  automaton.add_from_any(kern::kSysClose);
  return automaton;
}

TEST(PolicyAutomatonTest, PredicateRoundTripAndSemantics) {
  const policy::Automaton automaton = make_predicated_automaton();
  EXPECT_EQ(automaton.predicated_edge_count(), 1u);
  const std::string text = automaton.serialize();
  auto parsed = policy::Automaton::parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), automaton);
  EXPECT_EQ(parsed.value().serialize(), text);

  const std::uint64_t by_clause1[4] = {2, 0, 99, 0};
  const std::uint64_t by_clause2[4] = {9, 9, 7, 0};
  const std::uint64_t neither[4] = {9, 9, 9, 0};
  EXPECT_TRUE(automaton.allows(kern::kSysOpen, kern::kSysWrite, by_clause1));
  EXPECT_TRUE(automaton.allows(kern::kSysOpen, kern::kSysWrite, by_clause2));
  EXPECT_FALSE(automaton.allows(kern::kSysOpen, kern::kSysWrite, neither));
  // Unpredicated paths never consult args.
  EXPECT_TRUE(automaton.allows(kern::kSysOpen, kern::kSysClose, neither));
  EXPECT_TRUE(
      automaton.allows(kern::kSysWrite, kern::kSysExitGroup, neither));
  // nr-granular allows stays predicate-blind.
  EXPECT_TRUE(automaton.allows(kern::kSysOpen, kern::kSysWrite));

  // Re-adding the edge unconstrained widens away the predicate.
  policy::Automaton widened = automaton;
  widened.add_edge(kern::kSysOpen, kern::kSysWrite);
  EXPECT_EQ(widened.predicated_edge_count(), 0u);
  EXPECT_TRUE(widened.allows(kern::kSysOpen, kern::kSysWrite, neither));
}

TEST(PolicyAutomatonTest, MinimizePreservesLanguage) {
  policy::Automaton automaton = make_sample_automaton();
  // A state whose only successor is from_any-covered: prunable to an
  // explicit empty state.
  automaton.add_edge(kern::kSysRead, kern::kSysClose);
  const policy::MinimizeResult min = policy::minimize(automaton);
  EXPECT_TRUE(min.automaton.contains(automaton));
  EXPECT_TRUE(automaton.contains(min.automaton));
  EXPECT_LE(min.states_after, min.states_before);
  EXPECT_GT(min.edges_dropped, 0u);
  // The wildcard state (write -> *) behaves like an unknown state; dropping
  // it changes nothing observable.
  EXPECT_EQ(min.automaton.edges().count(kern::kSysWrite), 0u);
  EXPECT_TRUE(min.automaton.allows(kern::kSysWrite, kern::kSysOpen));
  // read's successor was subsumed by from_any; the state stays explicit so
  // it still denies everything else.
  EXPECT_TRUE(min.automaton.allows(kern::kSysRead, kern::kSysClose));
  EXPECT_FALSE(min.automaton.allows(kern::kSysRead, kern::kSysOpen));
  // The minimized form round-trips through the text format too.
  auto parsed = policy::Automaton::parse(min.automaton.serialize());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), min.automaton);
}

TEST(PolicyAutomatonTest, MinimizeDropsSubsumedPredicates) {
  // A predicated edge whose nr is also globally allowed is redundant: the
  // unconstrained from_any rule already admits every argument vector.
  policy::Automaton automaton = make_predicated_automaton();
  automaton.add_from_any(kern::kSysWrite);
  const policy::MinimizeResult min = policy::minimize(automaton);
  EXPECT_TRUE(min.automaton.contains(automaton));
  EXPECT_TRUE(automaton.contains(min.automaton));
  EXPECT_EQ(min.automaton.predicated_edge_count(), 0u);
  const std::uint64_t neither[4] = {9, 9, 9, 0};
  EXPECT_TRUE(min.automaton.allows(kern::kSysOpen, kern::kSysWrite, neither));
}

TEST(PolicyAutomatonTest, ContainmentAndMerge) {
  const policy::Automaton big = make_sample_automaton();
  policy::Automaton small;
  small.add_edge(policy::kEntryState, kern::kSysGetpid);
  small.add_edge(kern::kSysGetpid, kern::kSysExitGroup);
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));

  policy::Automaton extra = small;
  extra.add_edge(kern::kSysGetpid, kern::kSysOpen);
  EXPECT_FALSE(big.contains(extra));

  policy::Automaton merged = small;
  merged.merge(extra);
  EXPECT_TRUE(merged.contains(small));
  EXPECT_TRUE(merged.contains(extra));
}

// --- extraction --------------------------------------------------------------

TEST(PolicyExtractTest, StaticGetpidLoop) {
  const isa::Program program =
      testutil::make_syscall_loop(kern::kSysGetpid, 10);
  const policy::StaticExtraction extraction = policy::extract_static(program);
  EXPECT_EQ(extraction.sites_total, 2u);
  EXPECT_EQ(extraction.sites_resolved, 2u);
  EXPECT_FALSE(extraction.used_wildcard);
  const policy::Automaton& automaton = extraction.automaton;
  EXPECT_TRUE(automaton.allows(policy::kEntryState, kern::kSysGetpid));
  EXPECT_TRUE(automaton.allows(kern::kSysGetpid, kern::kSysGetpid));
  EXPECT_TRUE(automaton.allows(kern::kSysGetpid, kern::kSysExitGroup));
  EXPECT_FALSE(automaton.allows(kern::kSysGetpid, kern::kSysOpen));
  // The zero-iteration path reaches exit_group without ever calling getpid,
  // so the sound static automaton must keep entry -> exit_group.
  EXPECT_TRUE(automaton.allows(policy::kEntryState, kern::kSysExitGroup));
  EXPECT_FALSE(automaton.allows(policy::kEntryState, kern::kSysOpen));
}

TEST(PolicyExtractTest, UnresolvableSiteNumberRoutesToFromAny) {
  // rax comes from a register copy. The block-local scan cannot resolve
  // that, so with dataflow off the site's number is unknowable: its
  // follower must be allowed from every state and the entry successor set
  // degrades to the wildcard. The value-flow analysis tracks the copy and
  // recovers full precision.
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, kern::kSysGetpid);
  a.mov(isa::Gpr::rax, isa::Gpr::rbx);
  a.syscall_();
  apps::emit_exit(a, 0);
  const isa::Program program =
      std::move(isa::make_program("reg-nr", a, entry)).value();

  policy::ExtractOptions local_only;
  local_only.dataflow = false;
  const policy::StaticExtraction extraction =
      policy::extract_static(program, local_only);
  EXPECT_EQ(extraction.sites_total, 2u);
  EXPECT_EQ(extraction.sites_resolved, 1u);  // only the exit_group
  EXPECT_TRUE(extraction.used_wildcard);
  // exit_group follows the unknown site: allowed from anywhere.
  EXPECT_TRUE(extraction.automaton.from_any().count(kern::kSysExitGroup) > 0);

  const policy::StaticExtraction dataflow = policy::extract_static(program);
  EXPECT_EQ(dataflow.sites_resolved, 2u);
  EXPECT_EQ(dataflow.sites_resolved_dataflow, 1u);
  EXPECT_FALSE(dataflow.used_wildcard);
  EXPECT_TRUE(dataflow.automaton.from_any().empty());
  EXPECT_TRUE(
      dataflow.automaton.allows(policy::kEntryState, kern::kSysGetpid));
  EXPECT_FALSE(dataflow.automaton.allows(policy::kEntryState, kern::kSysOpen));
  EXPECT_TRUE(
      dataflow.automaton.allows(kern::kSysGetpid, kern::kSysExitGroup));
}

TEST(PolicyExtractTest, BlockLocalResolvesXorAndMov32Idioms) {
  // The two compiler idioms the block-local fallback must recognize even
  // with dataflow off: xor eax,eax (read = nr 0) and the 32-bit
  // mov eax, imm32 encoding.
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.xor_(isa::Gpr::rax, isa::Gpr::rax);
  a.mov(isa::Gpr::rdi, 0);
  a.mov(isa::Gpr::rsi, 0);
  a.mov(isa::Gpr::rdx, 0);
  a.syscall_();  // read
  a.mov32(isa::Gpr::rax, static_cast<std::uint32_t>(kern::kSysGetpid));
  a.syscall_();  // getpid
  apps::emit_exit(a, 0);
  const isa::Program program =
      std::move(isa::make_program("idioms", a, entry)).value();

  policy::ExtractOptions local_only;
  local_only.dataflow = false;
  const policy::StaticExtraction extraction =
      policy::extract_static(program, local_only);
  EXPECT_EQ(extraction.sites_total, 3u);
  EXPECT_EQ(extraction.sites_resolved, 3u);
  EXPECT_EQ(extraction.sites_resolved_blocklocal, 3u);
  EXPECT_FALSE(extraction.used_wildcard);
  EXPECT_TRUE(extraction.automaton.allows(policy::kEntryState,
                                          kern::kSysRead));
  EXPECT_TRUE(extraction.automaton.allows(kern::kSysRead, kern::kSysGetpid));
  EXPECT_TRUE(
      extraction.automaton.allows(kern::kSysGetpid, kern::kSysExitGroup));
  EXPECT_FALSE(extraction.automaton.allows(kern::kSysRead, kern::kSysOpen));
}

TEST(PolicyExtractTest, DataflowResolvesCrossBlockConstant) {
  // The number is loaded in one block and the syscall sits in another: the
  // block-local scan gives up, the cross-block value flow does not.
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto invoke = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.jmp(invoke);
  a.bind(invoke);
  a.syscall_();
  apps::emit_exit(a, 0);
  const isa::Program program =
      std::move(isa::make_program("cross-block", a, entry)).value();

  policy::ExtractOptions local_only;
  local_only.dataflow = false;
  const policy::StaticExtraction local =
      policy::extract_static(program, local_only);
  EXPECT_EQ(local.sites_resolved, 1u);  // exit_group only
  EXPECT_TRUE(local.used_wildcard);

  const policy::StaticExtraction dataflow = policy::extract_static(program);
  EXPECT_EQ(dataflow.sites_resolved, 2u);
  EXPECT_EQ(dataflow.sites_resolved_blocklocal, 1u);
  EXPECT_EQ(dataflow.sites_resolved_dataflow, 1u);
  EXPECT_FALSE(dataflow.used_wildcard);
}

TEST(PolicyExtractTest, ArgumentPredicatesFromDataflow) {
  // write(1, 0, 0): the constant argument registers become constraints on
  // the edges into the write state.
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rdi, 1);
  a.mov(isa::Gpr::rsi, 0);
  a.mov(isa::Gpr::rdx, 0);
  a.mov(isa::Gpr::rax, kern::kSysWrite);
  a.syscall_();
  apps::emit_exit(a, 0);
  const isa::Program program =
      std::move(isa::make_program("write-const-args", a, entry)).value();

  const policy::StaticExtraction extraction = policy::extract_static(program);
  EXPECT_GE(extraction.predicated_sites, 1u);
  const auto* pred =
      extraction.automaton.predicate(policy::kEntryState, kern::kSysWrite);
  ASSERT_NE(pred, nullptr);
  const std::uint64_t good[4] = {1, 0, 0, 12345};
  const std::uint64_t bad[4] = {2, 0, 0, 12345};
  EXPECT_TRUE(
      extraction.automaton.allows(policy::kEntryState, kern::kSysWrite, good));
  EXPECT_FALSE(
      extraction.automaton.allows(policy::kEntryState, kern::kSysWrite, bad));
  // nr-granular reasoning (containment) stays predicate-blind.
  EXPECT_TRUE(extraction.automaton.allows(policy::kEntryState,
                                          kern::kSysWrite));

  // Predicates off: same edges, no constraints.
  policy::ExtractOptions no_preds;
  no_preds.arg_predicates = false;
  const policy::StaticExtraction plain =
      policy::extract_static(program, no_preds);
  EXPECT_EQ(plain.automaton.predicated_edge_count(), 0u);
  EXPECT_EQ(plain.predicated_sites, 0u);
  EXPECT_TRUE(
      plain.automaton.allows(policy::kEntryState, kern::kSysWrite, bad));
}

TEST(PolicyExtractTest, DynamicLearning) {
  std::vector<std::pair<Tid, std::uint64_t>> stream = {
      {1, kern::kSysGetpid}, {2, kern::kSysOpen},  {1, kern::kSysWrite},
      {2, kern::kSysClose},  {1, kern::kSysWrite},
  };
  const policy::Automaton automaton =
      policy::learn_from_sequence(stream, "two-tasks");
  // Per-tid chains: tid 1 getpid->write->write, tid 2 open->close.
  EXPECT_TRUE(automaton.allows(policy::kEntryState, kern::kSysGetpid));
  EXPECT_TRUE(automaton.allows(policy::kEntryState, kern::kSysOpen));
  EXPECT_TRUE(automaton.allows(kern::kSysGetpid, kern::kSysWrite));
  EXPECT_TRUE(automaton.allows(kern::kSysWrite, kern::kSysWrite));
  EXPECT_TRUE(automaton.allows(kern::kSysOpen, kern::kSysClose));
  // Cross-task pollution must not happen.
  EXPECT_FALSE(automaton.allows(kern::kSysGetpid, kern::kSysClose));

  // An incomplete stream (truncated ring) contributes no entry edges: the
  // entry state is left unconstrained (absent) rather than wrongly claiming
  // the truncated stream's first event as the task's first syscall.
  const policy::Automaton truncated =
      policy::learn_from_sequence(stream, "truncated", /*complete=*/false);
  EXPECT_EQ(truncated.edges().count(policy::kEntryState), 0u);
  EXPECT_TRUE(truncated.allows(kern::kSysGetpid, kern::kSysWrite));
}

TEST(PolicyExtractTest, FlightRecorderLearning) {
  trace::FlightRecorder ring(8);
  auto push_enter = [&](Tid tid, std::uint64_t nr) {
    trace::Event event;
    event.type = trace::EventType::kSyscallEnter;
    event.tid = tid;
    event.a = nr;
    ring.push(event);
  };
  push_enter(1, kern::kSysGetpid);
  push_enter(1, kern::kSysWrite);
  push_enter(1, kern::kSysExitGroup);
  const policy::Automaton automaton =
      policy::learn_from_flight_recorder(ring, "ring");
  EXPECT_TRUE(automaton.allows(policy::kEntryState, kern::kSysGetpid));
  EXPECT_TRUE(automaton.allows(kern::kSysGetpid, kern::kSysWrite));
  EXPECT_TRUE(automaton.allows(kern::kSysWrite, kern::kSysExitGroup));

  // Overflow the ring: learning must drop the (now unreliable) entry edges.
  trace::FlightRecorder tiny(2);
  auto push_tiny = [&](Tid tid, std::uint64_t nr) {
    trace::Event event;
    event.type = trace::EventType::kSyscallEnter;
    event.tid = tid;
    event.a = nr;
    tiny.push(event);
  };
  push_tiny(1, kern::kSysGetpid);
  push_tiny(1, kern::kSysWrite);
  push_tiny(1, kern::kSysExitGroup);
  ASSERT_GT(tiny.dropped(), 0u);
  const policy::Automaton truncated =
      policy::learn_from_flight_recorder(tiny, "tiny");
  EXPECT_EQ(truncated.edges().count(policy::kEntryState), 0u);
  EXPECT_TRUE(truncated.allows(kern::kSysWrite, kern::kSysExitGroup));
}

// --- webserver containment ---------------------------------------------------

// Two nginx workers serving 60 requests of a 1 KiB file over 4 connections,
// under `mech`.
isa::Program setup_webserver(Machine& machine, Mech mech,
                             std::shared_ptr<interpose::SyscallHandler> handler) {
  const scenario::Scenario spec{
      scenario::Web{apps::nginx_profile(), 2, 1024, 4, 60}, mech};
  auto instance = scenario::build(spec, machine, std::move(handler));
  EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
  return instance.is_ok() ? instance.value().program : isa::Program{};
}

TEST(PolicyWebserverTest, StaticContainsDynamic) {
  Machine machine;
  auto tracer = std::make_shared<interpose::TracingHandler>();
  const isa::Program program =
      setup_webserver(machine, Mech::kLazypoline, tracer);
  const policy::StaticExtraction extraction = policy::extract_static(program);
  EXPECT_FALSE(extraction.automaton.has_wildcard());
  EXPECT_EQ(extraction.sites_resolved, extraction.sites_total);

  ASSERT_TRUE(machine.run(400'000'000ULL).all_exited);

  std::vector<std::pair<Tid, std::uint64_t>> stream;
  for (const interpose::TraceRecord& record : tracer->trace()) {
    stream.emplace_back(record.tid, record.nr);
  }
  ASSERT_FALSE(stream.empty());
  const policy::Automaton dynamic =
      policy::learn_from_sequence(stream, "webserver");
  EXPECT_TRUE(extraction.automaton.contains(dynamic));
  // The static one must be a strict over-approximation or equal, never
  // smaller.
  EXPECT_GE(extraction.automaton.edge_count(), dynamic.edge_count());
}

// --- lowering ----------------------------------------------------------------

TEST(PolicyCompileTest, FiltersMatchAutomatonAllows) {
  const policy::Automaton automaton = make_sample_automaton();
  auto compiled = policy::compile_to_seccomp(
      automaton, bpf::SECCOMP_RET_ERRNO | std::uint32_t{1});
  ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();

  const std::vector<std::uint64_t> probe_nrs = {
      kern::kSysRead,  kern::kSysWrite,    kern::kSysOpen,
      kern::kSysClose, kern::kSysGetpid,   kern::kSysMmap,
      kern::kSysExit,  kern::kSysExitGroup};
  for (const policy::StatePolicy& sp : compiled.value().classes) {
    for (const std::uint64_t state : sp.members) {
      for (const std::uint64_t nr : probe_nrs) {
        bpf::SeccompData data;
        data.nr = static_cast<std::int32_t>(nr);
        data.arch = bpf::kAuditArchX86_64;
        const auto bytes = data.serialize();
        const auto run = bpf::run(sp.filter, bytes);
        ASSERT_TRUE(run.is_ok());
        const bool filter_allows = run.value().value == bpf::SECCOMP_RET_ALLOW;
        EXPECT_EQ(filter_allows, automaton.allows(state, nr))
            << "state " << state << " nr " << nr;
      }
    }
  }
}

TEST(PolicyCompileTest, EquivalentStatesShareOneProgram) {
  policy::Automaton automaton;
  automaton.add_edge(policy::kEntryState, kern::kSysRead);
  automaton.add_edge(policy::kEntryState, kern::kSysWrite);
  automaton.add_edge(kern::kSysRead, kern::kSysClose);
  automaton.add_edge(kern::kSysWrite, kern::kSysClose);  // same behavior
  policy::CompileOptions baseline_opts;
  baseline_opts.share_equivalent_states = false;
  auto shared =
      policy::compile_to_seccomp(automaton, bpf::SECCOMP_RET_KILL_PROCESS);
  auto baseline = policy::compile_to_seccomp(
      automaton, bpf::SECCOMP_RET_KILL_PROCESS, baseline_opts);
  ASSERT_TRUE(shared.is_ok());
  ASSERT_TRUE(baseline.is_ok());
  EXPECT_EQ(shared.value().state_count(), baseline.value().state_count());
  EXPECT_LT(shared.value().class_count(), baseline.value().class_count());
  EXPECT_LT(shared.value().total_filter_insns(),
            baseline.value().total_filter_insns());
  // read and write resolve to the same shared program.
  EXPECT_EQ(shared.value().find(kern::kSysRead),
            shared.value().find(kern::kSysWrite));
  EXPECT_NE(baseline.value().find(kern::kSysRead),
            baseline.value().find(kern::kSysWrite));
}

TEST(PolicyCompileTest, LowersOversizedStateSetsSegmented) {
  // 300 successors is beyond a single 8-bit-offset JEQ chain; the segmented
  // lowering must still produce one valid program with exact membership.
  policy::Automaton automaton;
  for (std::uint64_t nr = 0; nr < 300; ++nr) {
    automaton.add_edge(kern::kSysGetpid, nr);
  }
  auto compiled =
      policy::compile_to_seccomp(automaton, bpf::SECCOMP_RET_KILL_PROCESS);
  ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  const policy::StatePolicy* sp = compiled.value().find(kern::kSysGetpid);
  ASSERT_NE(sp, nullptr);
  EXPECT_FALSE(sp->wildcard);
  EXPECT_EQ(sp->allowed.size(), 300u);
  for (const std::uint64_t nr : {0ull, 254ull, 255ull, 299ull, 300ull, 400ull}) {
    bpf::SeccompData data;
    data.nr = static_cast<std::int32_t>(nr);
    data.arch = bpf::kAuditArchX86_64;
    const auto bytes = data.serialize();
    const auto run = bpf::run(sp->filter, bytes);
    ASSERT_TRUE(run.is_ok());
    const bool allowed = run.value().value == bpf::SECCOMP_RET_ALLOW;
    EXPECT_EQ(allowed, nr < 300) << "nr " << nr;
  }
}

TEST(PolicyCompileTest, PredicateFiltersCheckArguments) {
  policy::Automaton automaton;
  automaton.add_edge(kern::kSysGetpid, kern::kSysExitGroup);
  // write allowed when (rdi in {1,2} && rsi == 0), or rdx equals a value
  // with a non-zero high word (exercises the 64-bit two-word compare).
  automaton.add_edge(kern::kSysGetpid, kern::kSysWrite,
                     policy::PredClause{{0, {1, 2}}, {1, {0}}});
  automaton.add_edge(kern::kSysGetpid, kern::kSysWrite,
                     policy::PredClause{{2, {(1ULL << 32) | 5}}});
  auto compiled =
      policy::compile_to_seccomp(automaton, bpf::SECCOMP_RET_KILL_PROCESS);
  ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  const policy::StatePolicy* sp = compiled.value().find(kern::kSysGetpid);
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->predicated.size(), 1u);

  auto probe = [&](std::uint64_t nr, std::uint64_t rdi, std::uint64_t rsi,
                   std::uint64_t rdx) {
    bpf::SeccompData data;
    data.nr = static_cast<std::int32_t>(nr);
    data.arch = bpf::kAuditArchX86_64;
    data.args[0] = rdi;
    data.args[1] = rsi;
    data.args[2] = rdx;
    const auto bytes = data.serialize();
    const auto run = bpf::run(sp->filter, bytes);
    EXPECT_TRUE(run.is_ok());
    return run.value().value == bpf::SECCOMP_RET_ALLOW;
  };
  // Unpredicated member: args never consulted.
  EXPECT_TRUE(probe(kern::kSysExitGroup, 9, 9, 9));
  // Clause 1.
  EXPECT_TRUE(probe(kern::kSysWrite, 1, 0, 0));
  EXPECT_TRUE(probe(kern::kSysWrite, 2, 0, 0));
  EXPECT_FALSE(probe(kern::kSysWrite, 3, 0, 0));
  EXPECT_FALSE(probe(kern::kSysWrite, 1, 7, 0));
  // Clause 2: the full 64-bit value must match, not just the low word.
  EXPECT_TRUE(probe(kern::kSysWrite, 9, 9, (1ULL << 32) | 5));
  EXPECT_FALSE(probe(kern::kSysWrite, 9, 9, 5));
  // Off-automaton nr.
  EXPECT_FALSE(probe(kern::kSysOpen, 1, 0, 0));
  // The seccomp artifact agrees with the automaton's own argument-aware
  // semantics on every probe.
  for (const auto& [nr, args] :
       std::vector<std::pair<std::uint64_t, std::array<std::uint64_t, 4>>>{
           {kern::kSysWrite, {1, 0, 0, 0}},
           {kern::kSysWrite, {3, 0, 0, 0}},
           {kern::kSysWrite, {9, 9, (1ULL << 32) | 5, 0}},
           {kern::kSysExitGroup, {9, 9, 9, 0}}}) {
    std::array<std::uint64_t, 4> reordered = args;
    EXPECT_EQ(probe(nr, args[0], args[1], args[2]),
              automaton.allows(kern::kSysGetpid, nr, reordered.data()))
        << "nr " << nr;
  }
}

// --- enforcement -------------------------------------------------------------

// getpid, then an off-policy write, getpid again, an off-policy nanosleep,
// getpid, exit. Under an automaton allowing only entry->getpid,
// getpid->{getpid, exit_group}, the write and the nanosleep are exactly the
// two violations, and with the deny verdict the guest still terminates.
isa::Program make_violating_guest() {
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  apps::emit_syscall(a, kern::kSysGetpid);
  a.mov(isa::Gpr::rdi, 1);
  a.mov(isa::Gpr::rsi, 0);
  a.mov(isa::Gpr::rdx, 0);
  apps::emit_syscall(a, kern::kSysWrite);      // violation 1
  apps::emit_syscall(a, kern::kSysGetpid);
  a.mov(isa::Gpr::rdi, 0);
  apps::emit_syscall(a, kern::kSysNanosleep);  // violation 2
  apps::emit_syscall(a, kern::kSysGetpid);
  apps::emit_exit(a, 7);
  return std::move(isa::make_program("violating-guest", a, entry)).value();
}

policy::Automaton make_getpid_only_automaton() {
  policy::Automaton automaton;
  automaton.name = "getpid-only";
  automaton.add_edge(policy::kEntryState, kern::kSysGetpid);
  automaton.add_edge(kern::kSysGetpid, kern::kSysGetpid);
  automaton.add_edge(kern::kSysGetpid, kern::kSysExitGroup);
  return automaton;
}

policy::EnforcerStats run_violating_guest(Mech mech, int* exit_code) {
  Machine machine;
  machine.mmap_min_addr = 0;
  const isa::Program program = make_violating_guest();
  machine.register_program(program);
  auto tid = machine.load(program);
  EXPECT_TRUE(tid.is_ok());
  auto enforcer =
      policy::PolicyEnforcer::create(make_getpid_only_automaton(), {});
  EXPECT_TRUE(enforcer.is_ok());
  install_mechanism(machine, tid.value(), enforcer.value(), mech);
  const auto stats = machine.run(100'000'000ULL);
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  *exit_code = machine.find_task(tid.value())->exit_code;
  return enforcer.value()->stats();
}

void expect_violation_injection(Mech mech) {
  int exit_code = -1;
  const policy::EnforcerStats stats = run_violating_guest(mech, &exit_code);
  // The same verdicts under every mechanism: 6 checked transitions, exactly
  // the write and the nanosleep denied, and the guest still exits cleanly
  // because denial returns -EPERM instead of killing.
  EXPECT_EQ(stats.transitions_checked, 6u);
  EXPECT_EQ(stats.violations, 2u);
  EXPECT_EQ(stats.denied, 2u);
  EXPECT_EQ(stats.killed, 0u);
  EXPECT_EQ(stats.always_allows, 1u);  // the exit_group
  EXPECT_EQ(exit_code, 7);
  // State must NOT advance on a denial: both violations were judged from the
  // getpid state, so getpid's per-state violation counter carries both.
  const auto it = stats.state_violations.find(kern::kSysGetpid);
  ASSERT_NE(it, stats.state_violations.end());
  EXPECT_EQ(it->second, 2u);
}

TEST(PolicyEnforceTest, ViolationInjectionPtrace) {
  expect_violation_injection(Mech::kPtrace);
}
TEST(PolicyEnforceTest, ViolationInjectionSud) {
  expect_violation_injection(Mech::kSud);
}
TEST(PolicyEnforceTest, ViolationInjectionZpoline) {
  expect_violation_injection(Mech::kZpoline);
}
TEST(PolicyEnforceTest, ViolationInjectionLazypoline) {
  expect_violation_injection(Mech::kLazypoline);
}

TEST(PolicyEnforceTest, LogOnlyVerdictExecutesViolations) {
  Machine machine;
  machine.mmap_min_addr = 0;
  const isa::Program program = make_violating_guest();
  machine.register_program(program);
  auto tid = machine.load(program);
  ASSERT_TRUE(tid.is_ok());
  policy::EnforcerOptions options;
  options.verdict = policy::Verdict::kLogOnly;
  auto enforcer =
      policy::PolicyEnforcer::create(make_getpid_only_automaton(), options);
  ASSERT_TRUE(enforcer.is_ok());
  install_mechanism(machine, tid.value(), enforcer.value(),
                    Mech::kLazypoline);
  ASSERT_TRUE(machine.run(100'000'000ULL).all_exited);
  const policy::EnforcerStats stats = enforcer.value()->stats();
  EXPECT_EQ(stats.violations, 2u);
  EXPECT_EQ(stats.logged, 2u);
  EXPECT_EQ(stats.denied, 0u);
}

TEST(PolicyEnforceTest, KillVerdictTerminatesProcess) {
  Machine machine;
  machine.mmap_min_addr = 0;
  const isa::Program program = make_violating_guest();
  machine.register_program(program);
  auto tid = machine.load(program);
  ASSERT_TRUE(tid.is_ok());
  policy::EnforcerOptions options;
  options.verdict = policy::Verdict::kKill;
  auto enforcer =
      policy::PolicyEnforcer::create(make_getpid_only_automaton(), options);
  ASSERT_TRUE(enforcer.is_ok());
  install_mechanism(machine, tid.value(), enforcer.value(),
                    Mech::kLazypoline);
  ASSERT_TRUE(machine.run(100'000'000ULL).all_exited);
  const policy::EnforcerStats stats = enforcer.value()->stats();
  EXPECT_EQ(stats.killed, 1u);
  EXPECT_EQ(stats.violations, 1u);  // killed at the first one
  // SIGSYS-style death, not the guest's own exit(7).
  EXPECT_EQ(machine.find_task(tid.value())->exit_code, 128 + kern::kSigsys);
}

TEST(PolicyEnforceTest, WebserverCleanUnderOwnPolicyAllMechanisms) {
  isa::Program probe;
  {
    Machine machine;
    probe = setup_webserver(machine, Mech::kNative, nullptr);
  }
  const policy::Automaton automaton = policy::extract_static(probe).automaton;
  for (const Mech mech : scenario::kInterposers) {
    Machine machine;
    auto enforcer = policy::PolicyEnforcer::create(automaton, {});
    ASSERT_TRUE(enforcer.is_ok());
    setup_webserver(machine, mech, enforcer.value());
    ASSERT_TRUE(machine.run(400'000'000ULL).all_exited)
        << machine.last_fatal();
    const policy::EnforcerStats stats = enforcer.value()->stats();
    EXPECT_EQ(stats.violations, 0u);
    EXPECT_GT(stats.transitions_checked, 0u);
  }
}

}  // namespace
