// Cross-engine invalidation on a *shared* address space (the CLONE_VM case).
//
// Every task carries its own BlockCache/DataTlb, but CLONE_VM siblings
// share one mem::AddressSpace. These tests audit the two ways a
// sibling's private caches could go stale behind a mutation performed by the
// other task (or the kernel) through the shared space:
//
//   1. the DataTlb's raw Page pointers across munmap/mprotect/remap — the
//      generation + live-prot scheme must refuse every stale fast path, and
//   2. a superblock executing decoded instructions after a store inside the
//      same block rewrote them (WX self-modifying code): run_block must end
//      the run at the generation bump so the rebuilt block sees fresh bytes,
//      keeping the engine bit-identical to the per-instruction path.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/minilibc.hpp"
#include "cpu/data_tlb.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/signals.hpp"
#include "kernel/syscalls.hpp"
#include "memory/address_space.hpp"
#include "sim_test_util.hpp"

namespace lzp {
namespace {

constexpr std::uint64_t kAddr = 0x7000'0000'0000ULL;

std::shared_ptr<mem::AddressSpace> make_space(std::uint8_t prot) {
  auto as = std::make_shared<mem::AddressSpace>();
  EXPECT_TRUE(as->map(kAddr, mem::kPageSize, prot, /*fixed=*/true).is_ok());
  return as;
}

std::uint8_t tlb_read_u8(cpu::DataTlb& tlb, const mem::AddressSpace& as,
                         std::uint64_t addr, bool* hit) {
  std::uint8_t value = 0;
  *hit = tlb.read(as, addr, &value, 1);
  return value;
}

// Two siblings warm their private TLBs, then one munmaps the shared page:
// the other's cached Page pointer is dead and must not serve reads.
TEST(SharedAddressSpaceTlbTest, SiblingCannotReadThroughStaleTlbAfterMunmap) {
  auto as = make_space(mem::kProtRead | mem::kProtWrite);
  ASSERT_TRUE(as->write_u8(kAddr, 0x42).is_ok());

  cpu::DataTlb sibling_a;
  cpu::DataTlb sibling_b;
  bool hit = false;
  EXPECT_EQ(tlb_read_u8(sibling_a, *as, kAddr, &hit), 0x42);
  // First touch refills, second is the warm fast path.
  EXPECT_EQ(tlb_read_u8(sibling_a, *as, kAddr, &hit), 0x42);
  EXPECT_TRUE(hit);
  EXPECT_EQ(tlb_read_u8(sibling_b, *as, kAddr, &hit), 0x42);
  EXPECT_TRUE(hit);

  // Sibling A unmaps through the shared space.
  ASSERT_TRUE(as->unmap(kAddr, mem::kPageSize).is_ok());

  // Sibling B's warm entry must be refused (layout generation moved), and
  // the slow path must report the architectural fault.
  std::uint8_t out = 0;
  EXPECT_FALSE(sibling_b.read(*as, kAddr, &out, 1));
  auto fault = as->read(kAddr, {&out, 1});
  ASSERT_TRUE(fault.has_value());
  EXPECT_TRUE(fault->unmapped);
}

// munmap + fresh map at the same address: the sibling must observe the new
// page's bytes, never the retired page's.
TEST(SharedAddressSpaceTlbTest, SiblingSeesFreshBytesAfterRemap) {
  auto as = make_space(mem::kProtRead | mem::kProtWrite);
  ASSERT_TRUE(as->write_u8(kAddr, 0x11).is_ok());

  cpu::DataTlb sibling;
  bool hit = false;
  EXPECT_EQ(tlb_read_u8(sibling, *as, kAddr, &hit), 0x11);

  ASSERT_TRUE(as->unmap(kAddr, mem::kPageSize).is_ok());
  ASSERT_TRUE(
      as->map(kAddr, mem::kPageSize, mem::kProtRead | mem::kProtWrite, true)
          .is_ok());
  ASSERT_TRUE(as->write_u8(kAddr, 0x99).is_ok());

  EXPECT_EQ(tlb_read_u8(sibling, *as, kAddr, &hit), 0x99);
  EXPECT_EQ(tlb_read_u8(sibling, *as, kAddr, &hit), 0x99);
}

// mprotect does NOT bump the layout generation (the Page object is stable);
// the TLB's contract is that protection is re-read through the live page on
// every access. A sibling's warm write entry must refuse to write after the
// other task revoked write permission.
TEST(SharedAddressSpaceTlbTest, SiblingCannotWriteAfterMprotectRevokesWrite) {
  auto as = make_space(mem::kProtRead | mem::kProtWrite);
  cpu::DataTlb sibling;
  const std::uint8_t byte = 0x7F;
  EXPECT_TRUE(sibling.write(*as, kAddr, &byte, 1));  // warm the write side

  ASSERT_TRUE(as->protect(kAddr, mem::kPageSize, mem::kProtRead).is_ok());
  EXPECT_FALSE(sibling.write(*as, kAddr, &byte, 1));

  // And back: restoring write re-enables the fast path through the same
  // (still live) page object.
  ASSERT_TRUE(
      as->protect(kAddr, mem::kPageSize, mem::kProtRead | mem::kProtWrite)
          .is_ok());
  EXPECT_TRUE(sibling.write(*as, kAddr, &byte, 1));
}

TEST(SharedAddressSpaceTlbTest, SiblingCannotReadAfterMprotectNone) {
  auto as = make_space(mem::kProtRead | mem::kProtWrite);
  cpu::DataTlb sibling;
  bool hit = false;
  (void)tlb_read_u8(sibling, *as, kAddr, &hit);

  ASSERT_TRUE(as->protect(kAddr, mem::kPageSize, mem::kProtNone).is_ok());
  std::uint8_t out = 0;
  EXPECT_FALSE(sibling.read(*as, kAddr, &out, 1));
}

// A sibling making the shared page executable must also disable the other
// task's *write* fast path: writes to exec pages have to go through
// AddressSpace::write so the code generation bumps (the SMC contract).
TEST(SharedAddressSpaceTlbTest, SiblingWriteRefusesPageMadeExecutable) {
  auto as = make_space(mem::kProtRead | mem::kProtWrite);
  cpu::DataTlb sibling;
  const std::uint8_t byte = 0x90;
  EXPECT_TRUE(sibling.write(*as, kAddr, &byte, 1));

  ASSERT_TRUE(as->protect(kAddr, mem::kPageSize,
                          mem::kProtRead | mem::kProtWrite | mem::kProtExec)
                  .is_ok());
  EXPECT_FALSE(sibling.write(*as, kAddr, &byte, 1));
  const std::uint64_t gen_before = as->code_gen();
  ASSERT_TRUE(as->write_u8(kAddr, byte).is_ok());
  EXPECT_GT(as->code_gen(), gen_before);
}

// --- superblock self-modification within one block ---------------------------
//
// The program makes its own text RWX, then — inside one straight-line
// superblock — stores a TRAP opcode (0xCC) over a nop a few instructions
// ahead. The per-instruction reference path refetches after the store and
// dies of SIGTRAP (exit 128+5). A block engine replaying the stale decode
// would sail through the nop and exit 0. The engine must match the
// reference path exactly.

isa::Program make_self_patching_program(std::uint64_t patch_addr) {
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  // mprotect(text_page, 4096, rwx)
  a.mov(isa::Gpr::rdi, 0x400000);
  a.mov(isa::Gpr::rsi, mem::kPageSize);
  a.mov(isa::Gpr::rdx, 0x7);
  a.mov(isa::Gpr::rax, kern::kSysMprotect);
  a.syscall_();  // ends the first block; the next decode starts fresh
  // One superblock: load the patch byte and address, store, then run across
  // the patched site.
  a.mov(isa::Gpr::rbx, patch_addr);
  a.mov(isa::Gpr::rcx, 0xCC);  // TRAP opcode
  a.store8(isa::Gpr::rbx, 0, isa::Gpr::rcx);
  const auto patch = a.new_label();
  a.bind(patch);
  a.nop();  // <- overwritten by the store two instructions earlier
  apps::emit_exit(a, 0);
  (void)patch;
  auto program = isa::make_program("self-patching", a, entry);
  EXPECT_TRUE(program.is_ok());
  return std::move(program).value();
}

// The patch target's offset is layout-stable (mov imm is fixed-length), so
// assemble once with a placeholder to learn it, then for real.
std::uint64_t find_patch_offset() {
  isa::Assembler a;
  a.mov(isa::Gpr::rdi, 0x400000);
  a.mov(isa::Gpr::rsi, mem::kPageSize);
  a.mov(isa::Gpr::rdx, 0x7);
  a.mov(isa::Gpr::rax, kern::kSysMprotect);
  a.syscall_();
  a.mov(isa::Gpr::rbx, 0);
  a.mov(isa::Gpr::rcx, 0xCC);
  a.store8(isa::Gpr::rbx, 0, isa::Gpr::rcx);
  const auto patch = a.new_label();
  a.bind(patch);
  auto offset = a.label_offset(patch);
  EXPECT_TRUE(offset.is_ok());
  return offset.is_ok() ? offset.value() : 0;
}

int run_self_patching(bool engine_on, std::uint64_t* steps,
                      std::uint64_t* insns) {
  const std::uint64_t patch_addr = 0x400000 + find_patch_offset();
  const isa::Program program = make_self_patching_program(patch_addr);
  kern::Machine machine;
  machine.block_exec_enabled = engine_on;
  auto tid = machine.load(program);
  EXPECT_TRUE(tid.is_ok());
  auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  *steps = machine.total_steps();
  *insns = machine.total_insns();
  return machine.find_task(tid.value())->exit_code;
}

TEST(SharedAddressSpaceTlbTest, MidBlockSelfPatchMatchesReferencePath) {
  std::uint64_t ref_steps = 0;
  std::uint64_t ref_insns = 0;
  const int ref = run_self_patching(/*engine_on=*/false, &ref_steps, &ref_insns);
  // The reference semantics: the store lands before the nop executes, so the
  // task dies of SIGTRAP.
  EXPECT_EQ(ref, 128 + kern::kSigtrap);

  std::uint64_t blk_steps = 0;
  std::uint64_t blk_insns = 0;
  const int blk = run_self_patching(/*engine_on=*/true, &blk_steps, &blk_insns);
  EXPECT_EQ(blk, ref);
  EXPECT_EQ(blk_steps, ref_steps);
  EXPECT_EQ(blk_insns, ref_insns);
}

}  // namespace
}  // namespace lzp
