// Superblock cache + block executor for the simulator hot loop.
//
// The reference interpreter (Machine::step_once) fetches, decodes and
// accounts for every instruction it retires. A DecodedBlock is a
// straight-line run of pre-decoded instructions that run_block() executes
// back to back, so Machine::run_slice can skip the fetch and decode on reuse
// and hoist dispatch and accounting to block boundaries (see machine.cpp).
// This is the simulator's only decode cache.
//
// Block construction stops at (the terminator is INCLUDED in the block):
//   * any control transfer (call/jmp/ret/conditional branches),
//   * SYSCALL / SYSENTER, HOSTCALL, HLT, TRAP — anything the kernel layer
//     must see,
//   * the page boundary (an instruction whose encoding would cross into the
//     next page is left for the per-instruction path, so every block's bytes
//     live on exactly ONE page),
//   * kMaxBlockInsns.
//
// Keeping a block within one page makes validation a single generation
// compare: a block is valid iff the asid matches, the start rip matches, and
// the backing page is still executable at the generation the block was
// decoded under. That is the SMC contract of memory/address_space.hpp: writes
// to exec pages, exec-bit mprotect flips and unmap bump the generation, and
// fork/execve change the asid, so zpoline's self-modifying rewrite idiom
// retires every block holding the old bytes. Engines/SmcContractTest in
// tests/block_exec_test.cpp pins each of these under both engines.
//
// Nop runs. A maximal run of at least kMinNopRun one-byte NOPs on one page
// (the zpoline/lazypoline sled at VA 0) is served from a one-entry memo
// instead of per-entry-point blocks: every rip inside the run gets the same
// instruction-free block covering [rip, end of run), and run_block() retires
// min(budget, remaining) nops in O(1). The memo is revalidated like a block
// (asid, layout generation via the page TLB, exec bit, page generation), so
// a write anywhere on the page drops it.
//
// run_block() executes through cpu::exec_decoded one instruction at a time,
// maintaining ctx.rip as it goes: a mid-block fault therefore leaves the
// context exactly as the per-instruction path would — rip at the faulting
// instruction, no partial writes, earlier instructions fully retired — and
// the returned retire/nop counts cover only what actually completed, so the
// kernel's batched accounting is bit-exact against per-step accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/context.hpp"
#include "cpu/data_tlb.hpp"
#include "cpu/execute.hpp"
#include "isa/insn.hpp"
#include "memory/address_space.hpp"

namespace lzp::cpu {

struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;         // includes invalidations and failed builds
  std::uint64_t invalidations = 0;  // entry matched rip but its gen was stale
  std::uint64_t flushes = 0;        // whole-cache flushes (execve / AS swap)
  std::uint64_t blocks_built = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Kept only for perfbench, which reads Machine::decode_cache_totals(). The
// per-step decode cache is gone: the block cache is the only decode cache,
// so both fields always read 0.
struct DecodeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// A decoded straight-line run. All encodings live on the page of `start`.
struct DecodedBlock {
  std::uint64_t start = 0;
  std::uint64_t page_gen = 0;  // generation the block was decoded under
  std::uint32_t nops = 0;      // how many of insns are kNop (cost precompute)
  std::vector<isa::Instruction> insns;

  // A nop run holds no decoded instructions: its `nops` one-byte NOPs start
  // at `start`.
  [[nodiscard]] bool is_nop_run() const noexcept { return insns.empty(); }
};

// True for every opcode that must end a block (control transfers plus the
// kernel-visible instructions).
[[nodiscard]] bool ends_block(isa::Op op) noexcept;

class BlockCache {
 public:
  static constexpr std::size_t kNumEntries = 1024;  // power of two
  static constexpr std::size_t kMaxBlockInsns = 32;

  BlockCache() : entries_(kNumEntries) {}

  // Returns a valid block starting at `rip`, building (and caching) one if
  // needed; inside a memoized nop run, the run's block from `rip` on (hits
  // and builds count it like any block). nullptr when no block can be
  // built: the first instruction
  // crosses a page boundary, fails to decode, or the page is not executable
  // — the caller falls back to the per-instruction path, which owns raising
  // the architectural fault. The pointer is valid until the next
  // lookup_or_build()/flush().
  [[nodiscard]] const DecodedBlock* lookup_or_build(const mem::AddressSpace& as,
                                                    std::uint64_t rip);

  void flush() noexcept;

  [[nodiscard]] const BlockCacheStats& stats() const noexcept { return stats_; }

  // Fires when an entry matched rip but went stale (page vanished, lost
  // exec, or its generation moved) — the SMC signature of a runtime rewrite
  // landing on cached code. Never fires on plain misses or flushes.
  void set_invalidation_listener(std::function<void(std::uint64_t rip)> fn) {
    invalidation_listener_ = std::move(fn);
  }

 private:
  static constexpr std::uint64_t kNoAddr = ~0ULL;
  // Shorter nop runs (alignment padding) stay inside ordinary blocks, so
  // they neither split straight-line code nor evict the sled's memo.
  static constexpr std::uint64_t kMinNopRun = 16;

  [[nodiscard]] static std::size_t index_of(std::uint64_t rip) noexcept {
    return static_cast<std::size_t>((rip ^ (rip >> 12)) & (kNumEntries - 1));
  }

  // One-entry page-translation TLB: skips the page-map walk while lookups
  // stay on one page and the layout generation holds.
  [[nodiscard]] const mem::Page* translate(const mem::AddressSpace& as,
                                           std::uint64_t page_base) noexcept;

  // Decodes a fresh block at `rip` into `block`. Returns false when not even
  // one instruction fits (see lookup_or_build).
  static bool build(std::uint64_t rip, const mem::Page& page,
                    DecodedBlock* block);

  // The nop-run block for `rip` inside the memoized run.
  [[nodiscard]] const DecodedBlock* serve_nop_run(std::uint64_t rip) noexcept;
  // Memoizes the maximal nop run around `rip` when it is at least
  // kMinNopRun long; false otherwise.
  bool memoize_nop_run(std::uint64_t rip, const mem::Page& page) noexcept;

  std::vector<DecodedBlock> entries_;  // start == kNoAddr marks empty
  std::uint64_t as_id_ = 0;

  // The one-entry nop-run memo: [nop_lo_, nop_hi_), all on one page, valid
  // while that page stays executable at nop_gen_. nop_lo_ == nop_hi_ marks
  // it empty.
  std::uint64_t nop_gen_ = 0;
  std::uint64_t nop_lo_ = 0;
  std::uint64_t nop_hi_ = 0;
  DecodedBlock nop_block_;  // what serve_nop_run hands out

  std::uint64_t tlb_base_ = kNoAddr;
  std::uint64_t tlb_layout_gen_ = 0;
  const mem::Page* tlb_page_ = nullptr;

  BlockCacheStats stats_;
  std::function<void(std::uint64_t rip)> invalidation_listener_;
};

// Outcome of one run_block() call.
struct BlockRun {
  // kContinue: ran to the end of the block (or out of budget) with every
  // executed instruction retired; ctx.rip points at the next instruction.
  // Any other kind reproduces exactly what step() would have returned for
  // the instruction at `insn_addr`.
  ExecKind kind = ExecKind::kContinue;
  std::uint32_t executed = 0;  // instructions attempted — machine steps used
  std::uint32_t retired = 0;   // instructions retired (kContinue/kSyscall)
  std::uint32_t nops = 0;      // of `retired`, how many were kNop
  mem::MemFault fault{};       // valid when kind == kMemFault
  std::uint64_t insn_addr = 0;             // address of the ending instruction
  const isa::Instruction* last = nullptr;  // the ending instruction itself
};

// Executes up to `budget` instructions of `block` (ctx.rip must equal
// block.start). The budget is in *executed* instructions — exactly the
// machine steps a per-instruction run would use, so slice boundaries land on
// identical points with the engine on or off. Stops early at the first
// non-kContinue outcome; the kSyscall terminator counts as retired (matching
// step_once's accounting), while kHostCall/kHlt/kTrap and faults execute
// without retiring. A nop run retires min(budget, block.nops) NOPs at
// once.
BlockRun run_block(CpuContext& ctx, mem::AddressSpace& mem,
                   const DecodedBlock& block, std::uint64_t budget,
                   DataTlb* tlb = nullptr);

}  // namespace lzp::cpu
