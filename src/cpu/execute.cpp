#include "cpu/execute.hpp"

#include <cstring>

namespace lzp::cpu {
namespace {

using isa::Gpr;
using isa::Instruction;
using isa::Op;

// Fetches up to kMaxInsnLength executable bytes at `addr` via one (or, at a
// page boundary, two) span-based page copies. Returns the number of bytes
// fetched (0 means the first byte itself is not executable).
std::size_t fetch_window(const mem::AddressSpace& mem, std::uint64_t addr,
                         std::uint8_t* out, mem::MemFault* first_fault) {
  return mem.fetch_window(addr, {out, isa::kMaxInsnLength}, first_fault);
}

// Fetch + decode at `rip`. Writes the decoded instruction to *insn and
// returns true; on failure returns false with *fetch_faulted / *fault
// describing a fetch fault (else: invalid opcode).
bool fetch_and_decode(const mem::AddressSpace& mem, std::uint64_t rip,
                      Instruction* insn, bool* fetch_faulted,
                      mem::MemFault* fault) {
  *fetch_faulted = false;
  std::uint8_t window[isa::kMaxInsnLength];
  const std::size_t got = fetch_window(mem, rip, window, fault);
  if (got == 0) {
    *fetch_faulted = true;
    return false;
  }
  auto decoded = isa::decode({window, got});
  if (!decoded) return false;
  *insn = decoded.value();
  return true;
}

double bits_to_double(std::uint64_t bits) noexcept {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::uint64_t double_to_bits(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Data access through the D-TLB with fallback to the checked accessors.
// The TLB only ever answers accesses the slow path would have satisfied
// (single page, prot allows, non-exec for writes), so fault behavior and
// fault accounting are identical with and without it.
std::optional<mem::MemFault> data_read(mem::AddressSpace& mem, DataTlb* tlb,
                                       std::uint64_t addr,
                                       std::span<std::uint8_t> out) noexcept {
  if (tlb != nullptr && tlb->read(mem, addr, out.data(), out.size())) {
    return std::nullopt;
  }
  return mem.read(addr, out);
}

std::optional<mem::MemFault> data_write(
    mem::AddressSpace& mem, DataTlb* tlb, std::uint64_t addr,
    std::span<const std::uint8_t> data) noexcept {
  if (tlb != nullptr && tlb->write(mem, addr, data.data(), data.size())) {
    return std::nullopt;
  }
  return mem.write(addr, data);
}

// Stack helpers, hoisted out of the per-step path (they used to be lambdas
// constructed on every step()).
std::optional<mem::MemFault> push64(CpuContext& ctx, mem::AddressSpace& mem,
                                    DataTlb* tlb, std::uint64_t value) noexcept {
  const std::uint64_t rsp = ctx.rsp() - 8;
  std::uint8_t bytes[8];
  std::memcpy(bytes, &value, 8);
  if (auto fault = data_write(mem, tlb, rsp, bytes)) return fault;
  ctx.set_rsp(rsp);
  return std::nullopt;
}

std::optional<mem::MemFault> pop64(CpuContext& ctx, mem::AddressSpace& mem,
                                   DataTlb* tlb, std::uint64_t& value) noexcept {
  std::uint8_t bytes[8];
  if (auto fault = data_read(mem, tlb, ctx.rsp(), bytes)) return fault;
  std::memcpy(&value, bytes, 8);
  ctx.set_rsp(ctx.rsp() + 8);
  return std::nullopt;
}

}  // namespace

Result<isa::Instruction> fetch_decode(const CpuContext& ctx,
                                      const mem::AddressSpace& mem) {
  Instruction insn;
  bool fetch_faulted = false;
  mem::MemFault fault;
  if (!fetch_and_decode(mem, ctx.rip, &insn, &fetch_faulted, &fault)) {
    if (fetch_faulted) {
      return make_error(StatusCode::kOutOfRange, fault.to_string());
    }
    return make_error(StatusCode::kInvalidArgument, "invalid opcode");
  }
  return insn;
}

ExecResult step(CpuContext& ctx, mem::AddressSpace& mem, DataTlb* tlb) {
  Instruction insn;
  bool fetch_faulted = false;
  mem::MemFault fetch_fault;
  if (!fetch_and_decode(mem, ctx.rip, &insn, &fetch_faulted, &fetch_fault)) {
    ExecResult result;
    result.insn_addr = ctx.rip;
    if (fetch_faulted) {
      result.kind = ExecKind::kMemFault;
      result.fault = fetch_fault;
      return result;
    }
    // Either an unknown opcode or an instruction running off the end of the
    // mapped/executable region; both raise SIGILL-style outcomes (the latter
    // is a fetch fault in real hardware, but the distinction is immaterial
    // to every consumer in this project).
    result.kind = ExecKind::kInvalidOpcode;
    return result;
  }
  ExecResult result = exec_decoded(ctx, mem, insn, tlb);
  result.insn = insn;
  return result;
}

// Dispatch strategy for exec_decoded. On GNU-compatible compilers (GCC and
// Clang both build this repo) the interpreter uses computed goto: the opcode
// indexes a static table of handler-label addresses and `goto*` jumps
// straight to the handler, skipping the switch's bounds check and its
// default-path bookkeeping. LZP_OP/LZP_BREAK keep a single set of handler
// bodies serving both modes; any other compiler gets the plain switch.
#if defined(__GNUC__)
#define LZP_THREADED_DISPATCH 1
#endif

#ifdef LZP_THREADED_DISPATCH
#define LZP_OP(name) op_##name:
#else
#define LZP_OP(name) case Op::name:
#endif
// Handlers that fall through to the common rip-advance tail exit through
// this in both modes (a bare `break` has no meaning under a goto* dispatch).
#define LZP_BREAK goto dispatch_done

ExecResult exec_decoded(CpuContext& ctx, mem::AddressSpace& mem,
                        const Instruction& insn, DataTlb* tlb) {
  ExecResult result;
  result.insn_addr = ctx.rip;
  const std::uint64_t next_rip = ctx.rip + insn.length;

  auto mem_fault = [&](const mem::MemFault& fault) {
    result.kind = ExecKind::kMemFault;
    result.fault = fault;
    return result;
  };

#ifdef LZP_THREADED_DISPATCH
  // Label addresses in exact Op declaration order (isa/insn.hpp); the
  // static_assert ties the table length to the enum so a newly added Op
  // cannot be silently dispatched off the end of the table.
  static const void* const kDispatch[] = {
      &&op_kNop,      &&op_kSyscall,  &&op_kSysenter, &&op_kCallRax,
      &&op_kCallRel,  &&op_kJmpRel,   &&op_kJmpReg,   &&op_kRet,
      &&op_kHlt,      &&op_kTrap,     &&op_kMovRI,    &&op_kMovRR,
      &&op_kLoad,     &&op_kStore,    &&op_kLoad8,    &&op_kStore8,
      &&op_kLoadGs,   &&op_kStoreGs,  &&op_kLoadGs8,  &&op_kStoreGs8,
      &&op_kPush,     &&op_kPop,      &&op_kAddRR,    &&op_kSubRR,
      &&op_kMulRR,    &&op_kDivRR,    &&op_kModRR,    &&op_kAddRI,
      &&op_kSubRI,    &&op_kCmpRI,    &&op_kCmpRR,    &&op_kJz,
      &&op_kJnz,      &&op_kJlt,      &&op_kJgt,      &&op_kXmovXI,
      &&op_kXmovXR,   &&op_kXmovRX,   &&op_kXstore,   &&op_kXload,
      &&op_kXzero,    &&op_kYmovHiYR, &&op_kYmovRYHi, &&op_kFldI,
      &&op_kFstpR,    &&op_kFaddP,    &&op_kRdGs,     &&op_kWrGs,
      &&op_kXorRR,    &&op_kMovRI32,  &&op_kHostCall,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == isa::kNumOps);
  goto* kDispatch[static_cast<std::size_t>(insn.op)];
#else
  switch (insn.op) {
#endif
    LZP_OP(kNop)
      LZP_BREAK;
    LZP_OP(kSyscall)
    LZP_OP(kSysenter)
      ctx.rip = next_rip;  // kernel sees the advanced rip, like x86
      result.kind = ExecKind::kSyscall;
      return result;
    LZP_OP(kCallRax) {
      if (auto fault = push64(ctx, mem, tlb, next_rip)) return mem_fault(*fault);
      ctx.rip = ctx.reg(Gpr::rax);
      return result;
    }
    LZP_OP(kCallRel) {
      if (auto fault = push64(ctx, mem, tlb, next_rip)) return mem_fault(*fault);
      ctx.rip = next_rip + static_cast<std::uint64_t>(insn.imm);
      return result;
    }
    LZP_OP(kJmpRel)
      ctx.rip = next_rip + static_cast<std::uint64_t>(insn.imm);
      return result;
    LZP_OP(kJmpReg)
      ctx.rip = ctx.reg(insn.r1);
      return result;
    LZP_OP(kRet) {
      std::uint64_t target = 0;
      if (auto fault = pop64(ctx, mem, tlb, target)) return mem_fault(*fault);
      ctx.rip = target;
      return result;
    }
    LZP_OP(kHlt)
      ctx.rip = next_rip;
      result.kind = ExecKind::kHlt;
      return result;
    LZP_OP(kTrap)
      ctx.rip = next_rip;
      result.kind = ExecKind::kTrap;
      return result;
    LZP_OP(kMovRI)
      ctx.set_reg(insn.r1, static_cast<std::uint64_t>(insn.imm));
      LZP_BREAK;
    LZP_OP(kMovRR)
      ctx.set_reg(insn.r1, ctx.reg(insn.r2));
      LZP_BREAK;
    LZP_OP(kLoad) {
      const std::uint64_t addr = ctx.reg(insn.r2) + static_cast<std::uint64_t>(insn.imm);
      std::uint8_t bytes[8];
      if (auto fault = data_read(mem, tlb, addr, bytes)) return mem_fault(*fault);
      std::uint64_t value = 0;
      std::memcpy(&value, bytes, 8);
      ctx.set_reg(insn.r1, value);
      LZP_BREAK;
    }
    LZP_OP(kStore) {
      const std::uint64_t addr = ctx.reg(insn.r2) + static_cast<std::uint64_t>(insn.imm);
      const std::uint64_t value = ctx.reg(insn.r1);
      std::uint8_t bytes[8];
      std::memcpy(bytes, &value, 8);
      if (auto fault = data_write(mem, tlb, addr, bytes)) return mem_fault(*fault);
      LZP_BREAK;
    }
    LZP_OP(kLoad8) {
      const std::uint64_t addr = ctx.reg(insn.r2) + static_cast<std::uint64_t>(insn.imm);
      std::uint8_t byte = 0;
      if (auto fault = data_read(mem, tlb, addr, {&byte, 1})) return mem_fault(*fault);
      ctx.set_reg(insn.r1, byte);
      LZP_BREAK;
    }
    LZP_OP(kStore8) {
      const std::uint64_t addr = ctx.reg(insn.r2) + static_cast<std::uint64_t>(insn.imm);
      const std::uint8_t byte = static_cast<std::uint8_t>(ctx.reg(insn.r1));
      if (auto fault = data_write(mem, tlb, addr, {&byte, 1})) return mem_fault(*fault);
      LZP_BREAK;
    }
    LZP_OP(kLoadGs) {
      const std::uint64_t addr = ctx.gs_base + static_cast<std::uint64_t>(insn.imm);
      std::uint8_t bytes[8];
      if (auto fault = data_read(mem, tlb, addr, bytes)) return mem_fault(*fault);
      std::uint64_t value = 0;
      std::memcpy(&value, bytes, 8);
      ctx.set_reg(insn.r1, value);
      LZP_BREAK;
    }
    LZP_OP(kStoreGs) {
      const std::uint64_t addr = ctx.gs_base + static_cast<std::uint64_t>(insn.imm);
      const std::uint64_t value = ctx.reg(insn.r1);
      std::uint8_t bytes[8];
      std::memcpy(bytes, &value, 8);
      if (auto fault = data_write(mem, tlb, addr, bytes)) return mem_fault(*fault);
      LZP_BREAK;
    }
    LZP_OP(kLoadGs8) {
      const std::uint64_t addr = ctx.gs_base + static_cast<std::uint64_t>(insn.imm);
      std::uint8_t byte = 0;
      if (auto fault = data_read(mem, tlb, addr, {&byte, 1})) return mem_fault(*fault);
      ctx.set_reg(insn.r1, byte);
      LZP_BREAK;
    }
    LZP_OP(kStoreGs8) {
      const std::uint64_t addr = ctx.gs_base + static_cast<std::uint64_t>(insn.imm);
      const std::uint8_t byte = static_cast<std::uint8_t>(ctx.reg(insn.r1));
      if (auto fault = data_write(mem, tlb, addr, {&byte, 1})) return mem_fault(*fault);
      LZP_BREAK;
    }
    LZP_OP(kPush)
      if (auto fault = push64(ctx, mem, tlb, ctx.reg(insn.r1))) return mem_fault(*fault);
      LZP_BREAK;
    LZP_OP(kPop) {
      std::uint64_t value = 0;
      if (auto fault = pop64(ctx, mem, tlb, value)) return mem_fault(*fault);
      ctx.set_reg(insn.r1, value);
      LZP_BREAK;
    }
    LZP_OP(kAddRR)
      ctx.set_reg(insn.r1, ctx.reg(insn.r1) + ctx.reg(insn.r2));
      LZP_BREAK;
    LZP_OP(kSubRR)
      ctx.set_reg(insn.r1, ctx.reg(insn.r1) - ctx.reg(insn.r2));
      LZP_BREAK;
    LZP_OP(kMulRR)
      ctx.set_reg(insn.r1, ctx.reg(insn.r1) * ctx.reg(insn.r2));
      LZP_BREAK;
    LZP_OP(kDivRR)
    LZP_OP(kModRR) {
      const auto lhs = static_cast<std::int64_t>(ctx.reg(insn.r1));
      const auto rhs = static_cast<std::int64_t>(ctx.reg(insn.r2));
      if (rhs == 0) {
        // #DE: rip stays at the faulting instruction, like a real divide
        // error trap.
        result.kind = ExecKind::kDivideError;
        return result;
      }
      const std::int64_t value = insn.op == Op::kDivRR ? lhs / rhs : lhs % rhs;
      ctx.set_reg(insn.r1, static_cast<std::uint64_t>(value));
      LZP_BREAK;
    }
    LZP_OP(kAddRI)
      ctx.set_reg(insn.r1, ctx.reg(insn.r1) + static_cast<std::uint64_t>(insn.imm));
      LZP_BREAK;
    LZP_OP(kSubRI)
      ctx.set_reg(insn.r1, ctx.reg(insn.r1) - static_cast<std::uint64_t>(insn.imm));
      LZP_BREAK;
    LZP_OP(kCmpRI) {
      const auto lhs = static_cast<std::int64_t>(ctx.reg(insn.r1));
      const auto rhs = static_cast<std::int64_t>(insn.imm);
      ctx.flags = {lhs == rhs, lhs < rhs, lhs > rhs};
      LZP_BREAK;
    }
    LZP_OP(kCmpRR) {
      const auto lhs = static_cast<std::int64_t>(ctx.reg(insn.r1));
      const auto rhs = static_cast<std::int64_t>(ctx.reg(insn.r2));
      ctx.flags = {lhs == rhs, lhs < rhs, lhs > rhs};
      LZP_BREAK;
    }
    LZP_OP(kJz)
      ctx.rip = ctx.flags.zf ? next_rip + static_cast<std::uint64_t>(insn.imm)
                             : next_rip;
      return result;
    LZP_OP(kJnz)
      ctx.rip = !ctx.flags.zf ? next_rip + static_cast<std::uint64_t>(insn.imm)
                              : next_rip;
      return result;
    LZP_OP(kJlt)
      ctx.rip = ctx.flags.lt ? next_rip + static_cast<std::uint64_t>(insn.imm)
                             : next_rip;
      return result;
    LZP_OP(kJgt)
      ctx.rip = ctx.flags.gt ? next_rip + static_cast<std::uint64_t>(insn.imm)
                             : next_rip;
      return result;
    LZP_OP(kXmovXI)
      ctx.xstate.xmm[insn.xr1] = {static_cast<std::uint64_t>(insn.imm),
                                  static_cast<std::uint64_t>(insn.imm)};
      LZP_BREAK;
    LZP_OP(kXmovXR) {
      const std::uint64_t value = ctx.reg(insn.r1);
      ctx.xstate.xmm[insn.xr1] = {value, value};
      LZP_BREAK;
    }
    LZP_OP(kXmovRX)
      ctx.set_reg(insn.r1, ctx.xstate.xmm[insn.xr1][0]);
      LZP_BREAK;
    LZP_OP(kXstore) {
      const std::uint64_t addr = ctx.reg(insn.r1) + static_cast<std::uint64_t>(insn.imm);
      std::uint8_t bytes[16];
      std::memcpy(bytes, ctx.xstate.xmm[insn.xr1].data(), 16);
      if (auto fault = data_write(mem, tlb, addr, bytes)) return mem_fault(*fault);
      LZP_BREAK;
    }
    LZP_OP(kXload) {
      const std::uint64_t addr = ctx.reg(insn.r1) + static_cast<std::uint64_t>(insn.imm);
      std::uint8_t bytes[16];
      if (auto fault = data_read(mem, tlb, addr, bytes)) return mem_fault(*fault);
      std::memcpy(ctx.xstate.xmm[insn.xr1].data(), bytes, 16);
      LZP_BREAK;
    }
    LZP_OP(kXzero)
      ctx.xstate.xmm[insn.xr1] = {0, 0};
      LZP_BREAK;
    LZP_OP(kYmovHiYR) {
      const std::uint64_t value = ctx.reg(insn.r1);
      ctx.xstate.ymm_hi[insn.xr1] = {value, value};
      LZP_BREAK;
    }
    LZP_OP(kYmovRYHi)
      ctx.set_reg(insn.r1, ctx.xstate.ymm_hi[insn.xr1][0]);
      LZP_BREAK;
    LZP_OP(kFldI)
      ctx.xstate.x87_push(static_cast<std::uint64_t>(insn.imm));
      LZP_BREAK;
    LZP_OP(kFstpR)
      ctx.set_reg(insn.r1, ctx.xstate.x87_pop());
      LZP_BREAK;
    LZP_OP(kFaddP) {
      const double st0 = bits_to_double(ctx.xstate.x87_pop());
      const double st1 = bits_to_double(ctx.xstate.x87_pop());
      ctx.xstate.x87_push(double_to_bits(st0 + st1));
      LZP_BREAK;
    }
    LZP_OP(kHostCall)
      ctx.rip = next_rip;
      result.kind = ExecKind::kHostCall;
      return result;
    LZP_OP(kRdGs)
      ctx.set_reg(insn.r1, ctx.gs_base);
      LZP_BREAK;
    LZP_OP(kWrGs)
      ctx.gs_base = ctx.reg(insn.r1);
      LZP_BREAK;
    LZP_OP(kXorRR)
      ctx.set_reg(insn.r1, ctx.reg(insn.r1) ^ ctx.reg(insn.r2));
      LZP_BREAK;
    LZP_OP(kMovRI32)
      // Zero-extend: decode already stores the unsigned 32-bit value.
      ctx.set_reg(insn.r1, static_cast<std::uint64_t>(insn.imm));
      LZP_BREAK;
#ifndef LZP_THREADED_DISPATCH
  }
#endif

dispatch_done:
  ctx.rip = next_rip;
  return result;
}

#undef LZP_BREAK
#undef LZP_OP
#ifdef LZP_THREADED_DISPATCH
#undef LZP_THREADED_DISPATCH
#endif

}  // namespace lzp::cpu
