// Decode cache correctness: hits on repeated execution, and — the part the
// paper's mechanism depends on — invalidation when executing code is
// rewritten at runtime (syscall -> call rax), including the
// protect-RW/patch/protect-RX idiom, CLONE_VM sibling writes, fork
// independence, and execve-style address-space swaps.
#include <gtest/gtest.h>

#include <tuple>

#include "core/lazypoline.hpp"
#include "cpu/decode_cache.hpp"
#include "cpu/execute.hpp"
#include "isa/assemble.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace lzp::cpu {
namespace {

using isa::Assembler;
using isa::Gpr;

constexpr std::uint64_t kCodeBase = 0x40'0000;
constexpr std::uint64_t kStackBase = 0x80'0000;

const std::uint8_t kCallRaxBytes[2] = {isa::kByteFF, isa::kByteCallRax2};

struct Fixture {
  mem::AddressSpace as;
  CpuContext ctx;
  DecodeCache cache;

  explicit Fixture(Assembler& assembler) {
    auto code = assembler.finish().value();
    EXPECT_TRUE(as.map(kCodeBase, mem::page_ceil(code.size()),
                       mem::kProtRead | mem::kProtExec, true)
                    .is_ok());
    EXPECT_TRUE(as.write_force(kCodeBase, code).is_ok());
    EXPECT_TRUE(
        as.map(kStackBase, 4096, mem::kProtRead | mem::kProtWrite, true).is_ok());
    ctx.rip = kCodeBase;
    ctx.set_rsp(kStackBase + 4096 - 64);
  }
};

// A single syscall instruction at kCodeBase: the canonical rewrite target.
Fixture make_syscall_site() {
  Assembler a;
  a.syscall_();
  a.nop();
  a.nop();
  return Fixture(a);
}

TEST(DecodeCacheTest, HitsOnRepeatedExecution) {
  Assembler a;
  a.add(Gpr::rax, 1);
  Fixture f(a);

  for (int i = 0; i < 10; ++i) {
    f.ctx.rip = kCodeBase;
    EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kContinue);
  }
  EXPECT_EQ(f.cache.stats().hits, 9u);
  EXPECT_EQ(f.cache.stats().misses, 1u);
  EXPECT_EQ(f.cache.stats().invalidations, 0u);
}

TEST(DecodeCacheTest, SelfModifyingWriteInvalidatesWarmEntry) {
  Fixture f = make_syscall_site();

  // Warm the cache: the site decodes as SYSCALL, twice (second is a hit).
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kSyscall);
  f.ctx.rip = kCodeBase;
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kSyscall);
  EXPECT_EQ(f.cache.stats().hits, 1u);

  // Rewrite the executing instruction (runtime-style privileged write).
  ASSERT_TRUE(f.as.write_force(kCodeBase, kCallRaxBytes).is_ok());

  // The very next step at that rip must execute the rewritten CALL RAX.
  f.ctx.set_reg(Gpr::rax, 0x1234'5678);
  f.ctx.rip = kCodeBase;
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kContinue);
  EXPECT_EQ(f.ctx.rip, 0x1234'5678u);
  EXPECT_EQ(f.cache.stats().invalidations, 1u);
}

TEST(DecodeCacheTest, ProtectFlipRewriteInvalidatesWarmEntry) {
  // The zpoline/lazypoline idiom: the patching write happens while the page
  // is momentarily non-executable, so invalidation must come from the
  // mprotect calls, not the write.
  Fixture f = make_syscall_site();
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kSyscall);

  ASSERT_TRUE(
      f.as.protect(kCodeBase, mem::kPageSize, mem::kProtRead | mem::kProtWrite)
          .is_ok());
  ASSERT_TRUE(f.as.write_force(kCodeBase, kCallRaxBytes).is_ok());
  ASSERT_TRUE(
      f.as.protect(kCodeBase, mem::kPageSize, mem::kProtRead | mem::kProtExec)
          .is_ok());

  f.ctx.set_reg(Gpr::rax, 0xBEEF'0000);
  f.ctx.rip = kCodeBase;
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kContinue);
  EXPECT_EQ(f.ctx.rip, 0xBEEF'0000u);
}

TEST(DecodeCacheTest, CloneVmSiblingWriteInvalidates) {
  // Two tasks sharing one address space (CLONE_VM), each with its own
  // decode cache. A rewrite performed "by the sibling" must be observed by
  // the other task's very next step through the shared page generations.
  Fixture f = make_syscall_site();
  DecodeCache sibling_cache;
  CpuContext sibling_ctx;
  sibling_ctx.rip = kCodeBase;
  sibling_ctx.set_rsp(kStackBase + 4096 - 128);

  // Both caches warm at the same rip.
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kSyscall);
  EXPECT_EQ(step(sibling_ctx, f.as, &sibling_cache).kind, ExecKind::kSyscall);

  // The sibling rewrites the site.
  ASSERT_TRUE(f.as.write_force(kCodeBase, kCallRaxBytes).is_ok());

  // Both tasks see CALL RAX immediately, despite their warm caches.
  for (auto* pair : {&f.ctx, &sibling_ctx}) {
    pair->set_reg(Gpr::rax, 0xAA55'0000);
    pair->rip = kCodeBase;
  }
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kContinue);
  EXPECT_EQ(f.ctx.rip, 0xAA55'0000u);
  EXPECT_EQ(step(sibling_ctx, f.as, &sibling_cache).kind, ExecKind::kContinue);
  EXPECT_EQ(sibling_ctx.rip, 0xAA55'0000u);
  EXPECT_EQ(f.cache.stats().invalidations, 1u);
  EXPECT_EQ(sibling_cache.stats().invalidations, 1u);
}

TEST(DecodeCacheTest, ForkChildStateIsIndependent) {
  Fixture f = make_syscall_site();
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kSyscall);

  // Fork: deep-copied address space, fresh cache (as Task construction
  // gives a child).
  auto child_as = f.as.clone();
  DecodeCache child_cache;
  CpuContext child_ctx;
  child_ctx.rip = kCodeBase;
  child_ctx.set_rsp(kStackBase + 4096 - 64);

  // The child rewrites its copy; the parent's code and generations are
  // untouched.
  ASSERT_TRUE(child_as->write_force(kCodeBase, kCallRaxBytes).is_ok());
  child_ctx.set_reg(Gpr::rax, 0xC0DE'0000);
  EXPECT_EQ(step(child_ctx, *child_as, &child_cache).kind, ExecKind::kContinue);
  EXPECT_EQ(child_ctx.rip, 0xC0DE'0000u);

  // Parent still executes the original SYSCALL, served from its warm cache.
  f.ctx.rip = kCodeBase;
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kSyscall);
  EXPECT_EQ(f.cache.stats().hits, 1u);
  EXPECT_EQ(f.cache.stats().invalidations, 0u);
}

TEST(DecodeCacheTest, AddressSpaceSwapFlushes) {
  // execve semantics: the same cache stepped against a different address
  // space must flush rather than serve entries from the old one.
  Fixture f = make_syscall_site();
  EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kSyscall);

  mem::AddressSpace fresh;
  ASSERT_TRUE(fresh.map(kCodeBase, mem::kPageSize,
                        mem::kProtRead | mem::kProtExec, true)
                  .is_ok());
  ASSERT_TRUE(fresh.write_force(kCodeBase, kCallRaxBytes).is_ok());
  ASSERT_TRUE(
      fresh.map(kStackBase, 4096, mem::kProtRead | mem::kProtWrite, true)
          .is_ok());

  f.ctx.set_reg(Gpr::rax, 0xFEED'0000);
  f.ctx.rip = kCodeBase;
  EXPECT_EQ(step(f.ctx, fresh, &f.cache).kind, ExecKind::kContinue);
  EXPECT_EQ(f.ctx.rip, 0xFEED'0000u);
  EXPECT_EQ(f.cache.stats().flushes, 1u);
}

TEST(DecodeCacheTest, PageCrossingInstructionValidatesTailPage) {
  // A 10-byte MOV r, imm64 straddling a page boundary: a write that only
  // touches the tail page must still invalidate the cached decode.
  mem::AddressSpace as;
  ASSERT_TRUE(as.map(kCodeBase, 2 * mem::kPageSize,
                     mem::kProtRead | mem::kProtExec, true)
                  .is_ok());
  Assembler a;
  a.mov(Gpr::rbx, 0x1111'2222'3333'4444ULL);
  auto code = a.finish().value();
  ASSERT_EQ(code.size(), 10u);
  const std::uint64_t rip = kCodeBase + mem::kPageSize - 4;
  ASSERT_TRUE(as.write_force(rip, code).is_ok());

  DecodeCache cache;
  CpuContext ctx;
  ctx.rip = rip;
  EXPECT_EQ(step(ctx, as, &cache).kind, ExecKind::kContinue);
  EXPECT_EQ(ctx.reg(Gpr::rbx), 0x1111'2222'3333'4444ULL);

  // Patch one immediate byte (bits 40-47), entirely within the tail page.
  const std::uint8_t byte = 0x77;
  ASSERT_TRUE(as.write_force(kCodeBase + mem::kPageSize + 3,
                             std::span<const std::uint8_t>(&byte, 1))
                  .is_ok());

  ctx.rip = rip;
  EXPECT_EQ(step(ctx, as, &cache).kind, ExecKind::kContinue);
  EXPECT_EQ(ctx.reg(Gpr::rbx), 0x1111'7722'3333'4444ULL);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(DecodeCacheTest, DisabledCacheMissesSilently) {
  Assembler a;
  a.add(Gpr::rax, 1);
  Fixture f(a);
  f.cache.set_enabled(false);
  for (int i = 0; i < 5; ++i) {
    f.ctx.rip = kCodeBase;
    EXPECT_EQ(step(f.ctx, f.as, &f.cache).kind, ExecKind::kContinue);
  }
  EXPECT_EQ(f.cache.stats().hits, 0u);
  EXPECT_EQ(f.cache.stats().misses, 0u);
}

TEST(DecodeCacheTest, FetchDecodeUsesCache) {
  Assembler a;
  a.add(Gpr::rax, 1);
  Fixture f(a);
  auto first = fetch_decode(f.ctx, f.as, &f.cache);
  ASSERT_TRUE(first.is_ok());
  auto second = fetch_decode(f.ctx, f.as, &f.cache);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().op, first.value().op);
  EXPECT_EQ(f.cache.stats().hits, 1u);
}

}  // namespace
}  // namespace lzp::cpu

// ---------------------------------------------------------------------------
// Machine-level: the cache is live in Machine::step_once, so the lazypoline
// SIGSYS->rewrite->re-execute round trip runs against warm entries.
// ---------------------------------------------------------------------------

namespace lzp::core {
namespace {

TEST(DecodeCacheMachineTest, LazypolineRewriteTakesEffectWithWarmCache) {
  const std::uint64_t iterations = 50;
  const scenario::Scenario spec{scenario::Loop{iterations, kern::kSysGetpid},
                                scenario::Mechanism::Kind::kLazypoline};
  kern::Machine machine;
  // This test pins the *per-instruction* decode cache; the superblock engine
  // would satisfy the hot loop from its own block cache instead.
  machine.block_exec_enabled = false;
  auto handler = std::make_shared<interpose::TracingHandler>();
  auto instance = scenario::build(spec, machine, handler);
  ASSERT_TRUE(instance.is_ok()) << instance.status().to_string();
  const kern::Tid tid = instance.value().workers.front();
  const auto& runtime = instance.value().runtimes.front();

  auto stats = machine.run();
  ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
  kern::Task* task = machine.find_task(tid);
  ASSERT_NE(task, nullptr);

  // By the time each site is rewritten it has already been executed (and
  // cached) once — SYSCALL decode from the loop's first iteration. Exactly
  // one SIGSYS per site proves the very next execution of the rewritten
  // bytes took the CALL RAX fast path instead of faulting again.
  EXPECT_EQ(runtime->stats().sites_rewritten, 2u);
  EXPECT_EQ(task->sud_sigsys_count, 2u);
  EXPECT_EQ(runtime->stats().entry_invocations, iterations + 1);
  EXPECT_EQ(handler->trace().size(), iterations + 1);

  // The loop body ran hot through the cache, and the rewrites invalidated
  // warm entries rather than flushing everything.
  const cpu::DecodeCacheStats& dstats = task->dcache.stats();
  EXPECT_GT(dstats.hits, dstats.misses);
  EXPECT_GE(dstats.invalidations, 1u);
  EXPECT_EQ(dstats.flushes, 0u);
}

TEST(DecodeCacheMachineTest, DisabledCacheIsBehaviorIdentical) {
  const scenario::Scenario spec{scenario::Loop{25, kern::kSysGetpid},
                                scenario::Mechanism::Kind::kLazypoline};

  auto run_with = [&](bool enabled) {
    kern::Machine machine;
    machine.decode_cache_enabled = enabled;
    auto handler = std::make_shared<interpose::TracingHandler>();
    auto instance = scenario::build(spec, machine, handler);
    EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
    const kern::Tid tid = instance.value().workers.front();
    auto stats = machine.run();
    EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
    kern::Task* task = machine.find_task(tid);
    return std::tuple{task->insns_retired, task->syscalls_entered,
                      task->cycles, handler->trace().size()};
  };

  EXPECT_EQ(run_with(true), run_with(false));
}

}  // namespace
}  // namespace lzp::core
