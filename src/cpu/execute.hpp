// The instruction executor: fetches, decodes, and retires one instruction
// against a CpuContext and AddressSpace. Pure user-mode semantics only —
// SYSCALL/SYSENTER, HLT, TRAP, and faults are reported as outcomes for the
// kernel layer to handle (it owns signal delivery and syscall dispatch).
#pragma once

#include <cstdint>
#include <optional>

#include "base/status.hpp"
#include "cpu/context.hpp"
#include "cpu/data_tlb.hpp"
#include "isa/decode.hpp"
#include "memory/address_space.hpp"

namespace lzp::cpu {

enum class ExecKind : std::uint8_t {
  kContinue,       // instruction retired, rip advanced
  kSyscall,        // SYSCALL/SYSENTER hit; rip already advanced past it
  kHlt,            // task asked to stop
  kTrap,           // INT3
  kMemFault,       // -> SIGSEGV
  kInvalidOpcode,  // -> SIGILL
  kHostCall,       // HOSTCALL hit; rip already advanced; index in insn->imm
  kDivideError,    // #DE: division by zero -> SIGFPE
};

struct ExecResult {
  ExecKind kind = ExecKind::kContinue;
  // Valid when kind == kMemFault.
  mem::MemFault fault{};
  // Address of the instruction that produced this result (pre-advance rip).
  std::uint64_t insn_addr = 0;
  // The decoded instruction, when decoding succeeded.
  std::optional<isa::Instruction> insn;
};

// Fetch + decode at ctx.rip without executing (used by tracers/pintool).
[[nodiscard]] Result<isa::Instruction> fetch_decode(const CpuContext& ctx,
                                                    const mem::AddressSpace& mem);

// Executes exactly one instruction. On kContinue the context is fully
// updated; on kSyscall the context holds the post-syscall-instruction rip
// (matching x86, where the kernel sees the advanced rip and SUD's rewriter
// subtracts the 2-byte encoding to find the site); on faults the context is
// unchanged except that no partial memory writes occur.
//
// Every call fetches and decodes afresh, so the reference interpreter can
// never run stale bytes after self-modifying code. `tlb` (optional) is the
// task's data-side TLB; loads/stores/push/pop that it cannot serve fall back
// to the checked AddressSpace accessors, so faults are identical with and
// without it.
ExecResult step(CpuContext& ctx, mem::AddressSpace& mem,
                DataTlb* tlb = nullptr);

// Executes one *already decoded* instruction whose first byte sits at
// ctx.rip. This is step() minus fetch/decode: the superblock engine
// (block_cache.hpp) runs a cached straight-line decode through it one
// instruction at a time, so mid-block faults land at the architecturally
// correct rip with the context exactly as a per-instruction run would leave
// it. The returned result has insn_addr filled in but NOT `insn` (the caller
// already holds the decoded instruction).
ExecResult exec_decoded(CpuContext& ctx, mem::AddressSpace& mem,
                        const isa::Instruction& insn, DataTlb* tlb = nullptr);

}  // namespace lzp::cpu
