#include "cpu/block_cache.hpp"

#include <algorithm>
#include <span>

#include "isa/decode.hpp"

namespace lzp::cpu {

bool ends_block(isa::Op op) noexcept {
  switch (op) {
    case isa::Op::kSyscall:
    case isa::Op::kSysenter:
    case isa::Op::kCallRax:
    case isa::Op::kCallRel:
    case isa::Op::kJmpRel:
    case isa::Op::kJmpReg:
    case isa::Op::kRet:
    case isa::Op::kHlt:
    case isa::Op::kTrap:
    case isa::Op::kJz:
    case isa::Op::kJnz:
    case isa::Op::kJlt:
    case isa::Op::kJgt:
    case isa::Op::kHostCall:
      return true;
    default:
      return false;
  }
}

const mem::Page* BlockCache::translate(const mem::AddressSpace& as,
                                       std::uint64_t page_base) noexcept {
  if (tlb_base_ == page_base && tlb_layout_gen_ == as.layout_gen()) {
    return tlb_page_;
  }
  const mem::Page* page = as.page_at(page_base);
  if (page != nullptr) {
    tlb_base_ = page_base;
    tlb_layout_gen_ = as.layout_gen();
    tlb_page_ = page;
  }
  return page;
}

bool BlockCache::build(std::uint64_t rip, const mem::Page& page,
                       DecodedBlock* block) {
  const std::uint64_t page_base = mem::page_floor(rip);
  block->start = rip;
  block->page_gen = page.gen;
  block->nops = 0;
  block->insns.clear();

  std::uint64_t cursor = rip;
  while (block->insns.size() < kMaxBlockInsns) {
    const std::uint64_t offset = cursor - page_base;
    if (offset >= mem::kPageSize) break;
    // Decode from the page's own bytes, clamped to the page end. The decoder
    // is total over a span: an encoding that would cross into the next page
    // sees a truncated span and fails, which is exactly the "leave it for the
    // per-instruction path" stop condition.
    const std::span<const std::uint8_t> window{
        page.bytes.data() + offset,
        std::min<std::size_t>(isa::kMaxInsnLength, mem::kPageSize - offset)};
    auto decoded = isa::decode(window);
    if (!decoded.is_ok()) break;
    const isa::Instruction& insn = decoded.value();
    block->insns.push_back(insn);
    if (insn.op == isa::Op::kNop) ++block->nops;
    cursor += insn.length;
    if (ends_block(insn.op)) break;
  }
  return !block->insns.empty();
}

const DecodedBlock* BlockCache::serve_nop_run(std::uint64_t rip) noexcept {
  nop_block_.start = rip;
  nop_block_.page_gen = nop_gen_;
  nop_block_.nops = static_cast<std::uint32_t>(nop_hi_ - rip);
  return &nop_block_;
}

bool BlockCache::memoize_nop_run(std::uint64_t rip,
                                 const mem::Page& page) noexcept {
  const std::uint64_t page_base = mem::page_floor(rip);
  const std::uint8_t* bytes = page.bytes.data();
  std::uint64_t lo = rip - page_base;
  if (bytes[lo] != isa::kByteNop) return false;
  std::uint64_t hi = lo + 1;
  while (lo > 0 && bytes[lo - 1] == isa::kByteNop) --lo;
  while (hi < mem::kPageSize && bytes[hi] == isa::kByteNop) ++hi;
  if (hi - lo < kMinNopRun) return false;
  nop_gen_ = page.gen;
  nop_lo_ = page_base + lo;
  nop_hi_ = page_base + hi;
  return true;
}

const DecodedBlock* BlockCache::lookup_or_build(const mem::AddressSpace& as,
                                                std::uint64_t rip) {
  if (as_id_ != as.asid()) {
    if (as_id_ != 0) ++stats_.flushes;
    flush();
    as_id_ = as.asid();
  }

  const std::uint64_t page_base = mem::page_floor(rip);
  const mem::Page* page = translate(as, page_base);
  const bool fetchable =
      page != nullptr && (page->prot & mem::kProtExec) != 0;

  if (rip >= nop_lo_ && rip < nop_hi_) {
    if (fetchable && page->gen == nop_gen_) {
      ++stats_.hits;
      return serve_nop_run(rip);
    }
    // Same staleness rules as a block entry: the page vanished, lost exec,
    // or was written since the run was scanned.
    nop_lo_ = nop_hi_ = 0;
    ++stats_.invalidations;
    if (invalidation_listener_) invalidation_listener_(rip);
  }

  DecodedBlock& entry = entries_[index_of(rip)];
  if (entry.start == rip) {
    if (fetchable && page->gen == entry.page_gen) {
      ++stats_.hits;
      return &entry;
    }
    // The entry matched but its page vanished, lost exec, or was rewritten
    // since decode: the SMC path.
    entry.start = kNoAddr;
    ++stats_.invalidations;
    if (invalidation_listener_) invalidation_listener_(rip);
  }

  ++stats_.misses;
  if (!fetchable) {
    // Unfetchable first byte: the per-instruction path raises the fault.
    return nullptr;
  }
  if (memoize_nop_run(rip, *page)) {
    ++stats_.blocks_built;
    return serve_nop_run(rip);
  }
  if (!build(rip, *page, &entry)) {
    entry.start = kNoAddr;
    return nullptr;
  }
  ++stats_.blocks_built;
  return &entry;
}

void BlockCache::flush() noexcept {
  for (DecodedBlock& entry : entries_) {
    entry.start = kNoAddr;
    entry.insns.clear();
  }
  nop_lo_ = nop_hi_ = 0;
  tlb_base_ = kNoAddr;
  tlb_page_ = nullptr;
  as_id_ = 0;
}

BlockRun run_block(CpuContext& ctx, mem::AddressSpace& mem,
                   const DecodedBlock& block, std::uint64_t budget,
                   DataTlb* tlb) {
  BlockRun run;
  if (block.is_nop_run()) {
    // NOPs have no register, memory or fault effects: only rip and the
    // counts move, by however many of them the budget reaches.
    run.executed = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(budget, block.nops));
    run.retired = run.executed;
    run.nops = run.executed;
    ctx.rip += run.executed;
    return run;
  }
  // Snapshot the address space's code generation: a store inside this block
  // can rewrite a *later* instruction of the same block (WX self-modifying
  // code), and the per-instruction reference path would refetch and see the
  // new bytes. Ending the run at the first generation bump forces a relookup,
  // which invalidates and rebuilds from the freshly written page.
  const std::uint64_t code_gen_at_entry = mem.code_gen();
  for (std::size_t idx = 0; idx < block.insns.size(); ++idx) {
    const isa::Instruction& insn = block.insns[idx];
    if (run.executed >= budget) break;
    const std::uint64_t insn_addr = ctx.rip;
    const ExecResult result = exec_decoded(ctx, mem, insn, tlb);
    ++run.executed;
    run.insn_addr = insn_addr;
    run.last = &insn;
    run.kind = result.kind;
    switch (result.kind) {
      case ExecKind::kContinue:
      case ExecKind::kSyscall:
        ++run.retired;
        if (insn.op == isa::Op::kNop) ++run.nops;
        break;
      case ExecKind::kMemFault:
        run.fault = result.fault;
        break;
      default:
        break;
    }
    // Everything but a mid-block kContinue ends the run: by construction
    // only the last instruction of a block can be a terminator, and any
    // fault stops execution with rip still at the faulting instruction.
    if (result.kind != ExecKind::kContinue) return run;
    if (mem.code_gen() != code_gen_at_entry) {
      run.last = nullptr;
      return run;
    }
  }
  run.kind = ExecKind::kContinue;
  run.last = nullptr;
  return run;
}

}  // namespace lzp::cpu
