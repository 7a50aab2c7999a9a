#include "apps/minilibc.hpp"

#include "kernel/syscalls.hpp"

namespace lzp::apps {

using isa::Gpr;

void emit_syscall(isa::Assembler& a, std::uint64_t nr) {
  a.mov(Gpr::rax, nr);
  a.syscall_();
}

void emit_syscall1(isa::Assembler& a, std::uint64_t nr, std::uint64_t arg0) {
  a.mov(Gpr::rdi, arg0);
  emit_syscall(a, nr);
}

void emit_syscall2(isa::Assembler& a, std::uint64_t nr, std::uint64_t arg0,
                   std::uint64_t arg1) {
  a.mov(Gpr::rdi, arg0);
  a.mov(Gpr::rsi, arg1);
  emit_syscall(a, nr);
}

void emit_syscall3(isa::Assembler& a, std::uint64_t nr, std::uint64_t arg0,
                   std::uint64_t arg1, std::uint64_t arg2) {
  a.mov(Gpr::rdi, arg0);
  a.mov(Gpr::rsi, arg1);
  a.mov(Gpr::rdx, arg2);
  emit_syscall(a, nr);
}

void emit_pthread_init_glibc231(isa::Assembler& a) {
  // Listing 1 (paper §IV-B), adapted to the sim ISA:
  //   mov xmm0, r12          ; r12 = &__stack_user, loaded into both
  //   punpcklqdq xmm0, xmm0  ; halves of xmm0
  //   syscall                ; set_tid_address
  //   syscall                ; set_robust_list
  //   movups [r12], xmm0     ; write '&__stack_user' to 'prev' + 'next'
  a.mov(Gpr::r12, kStackUserAddr);
  a.xmov_from_gpr(/*xmm=*/0, Gpr::r12);               // both lanes = r12
  emit_syscall1(a, kern::kSysSetTidAddress, kDataBase + 0x20);
  emit_syscall1(a, kern::kSysSetRobustList, kDataBase + 0x28);
  a.xstore(Gpr::r12, 0, /*xmm=*/0);                   // movups [r12], xmm0
}

void emit_ptmalloc_init_glibc239(isa::Assembler& a) {
  // Clear Linux glibc 2.39: the compiler prepopulates xmm1 with the arena
  // initialization pattern, then malloc's per-thread cache seeding performs
  // getrandom before the arena fields are stored.
  a.mov(Gpr::r13, kMainArenaAddr);
  a.xmov(/*xmm=*/1, 0x0001000200030004ULL);
  emit_syscall3(a, kern::kSysGetrandom, kDataBase + 0x30, 16, 0);
  a.xstore(Gpr::r13, 0, /*xmm=*/1);
  a.xstore(Gpr::r13, 16, /*xmm=*/1);
}

void emit_plain_startup(isa::Assembler& a) {
  // Startup syscalls with no extended-state liveness across them.
  emit_syscall1(a, kern::kSysSetTidAddress, kDataBase + 0x20);
  emit_syscall1(a, kern::kSysSetRobustList, kDataBase + 0x28);
  emit_syscall3(a, kern::kSysMprotect, kDataBase, 4096, 3);
}

void emit_libc_init(isa::Assembler& a, LibcProfile profile, bool uses_pthread) {
  switch (profile) {
    case LibcProfile::kUbuntu2004:
      if (uses_pthread) {
        emit_pthread_init_glibc231(a);
      } else {
        emit_plain_startup(a);
      }
      break;
    case LibcProfile::kClearLinux:
      // ptmalloc_init runs in every program's startup path (paper: "in
      // Clear Linux, all programs are affected by a singular issue").
      emit_ptmalloc_init_glibc239(a);
      break;
  }
}

std::uint64_t embed_string(isa::Assembler& a, std::string_view text) {
  auto after = a.new_label();
  a.jmp(after);
  const std::uint64_t offset = a.offset();
  std::vector<std::uint8_t> bytes(text.begin(), text.end());
  bytes.push_back(0);
  a.db(bytes);
  a.bind(after);
  return 0x40'0000 + offset;
}

void emit_print(isa::Assembler& a, std::string_view text) {
  // Embed the text right here in the code stream and jump over it — the
  // data-in-code idiom (string literals in .text islands) that desyncs
  // linear-sweep disassembly.
  auto after = a.new_label();
  a.jmp(after);
  const std::uint64_t data_offset = a.offset();
  a.db(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  a.bind(after);
  // write(1, base + data_offset, len) — base is the conventional load base.
  a.mov(Gpr::rdi, 1);
  a.mov(Gpr::rsi, 0x40'0000 + data_offset);
  a.mov(Gpr::rdx, text.size());
  emit_syscall(a, kern::kSysWrite);
}

void emit_exit(isa::Assembler& a, int code) {
  emit_syscall1(a, kern::kSysExitGroup, static_cast<std::uint64_t>(code));
}

}  // namespace lzp::apps
