// Simulated virtual address space.
//
// Models the pieces of Linux virtual memory that syscall interposition by
// binary rewriting depends on:
//   * page-granular mappings with R/W/X permissions (lazypoline flips a code
//     page to RW to rewrite a syscall instruction, then restores X),
//   * mapping *at virtual address 0* (the zpoline trampoline), gated by an
//     mmap_min_addr policy just like the real kernel,
//   * fork-style deep copies and CLONE_VM-style sharing.
//
// All accesses are bounds- and permission-checked; a failed check returns a
// MemFault that the kernel turns into the appropriate signal (SIGSEGV).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/status.hpp"

namespace lzp::mem {

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr std::uint64_t kPageMask = kPageSize - 1;

[[nodiscard]] constexpr std::uint64_t page_floor(std::uint64_t addr) noexcept {
  return addr & ~kPageMask;
}
[[nodiscard]] constexpr std::uint64_t page_ceil(std::uint64_t addr) noexcept {
  return (addr + kPageMask) & ~kPageMask;
}

// Page protection bits, mirroring PROT_READ/WRITE/EXEC.
enum Prot : std::uint8_t {
  kProtNone = 0,
  kProtRead = 1 << 0,
  kProtWrite = 1 << 1,
  kProtExec = 1 << 2,
};

[[nodiscard]] std::string prot_to_string(std::uint8_t prot);

// The kind of access being attempted, for fault reporting.
enum class AccessKind : std::uint8_t { kRead, kWrite, kFetch };

[[nodiscard]] constexpr std::string_view to_string(AccessKind kind) noexcept {
  switch (kind) {
    case AccessKind::kRead: return "read";
    case AccessKind::kWrite: return "write";
    case AccessKind::kFetch: return "fetch";
  }
  return "?";
}

struct MemFault {
  std::uint64_t address = 0;
  AccessKind kind = AccessKind::kRead;
  bool unmapped = false;  // true: no mapping at all; false: permission denied
  [[nodiscard]] std::string to_string() const;
};

// A single mapped page: 4 KiB of backing bytes plus its protection.
//
// `gen` is the page's code generation: it changes whenever the page's
// contents or executability may have changed in a way that invalidates a
// cached decode of its bytes (writes while executable, and any mprotect
// touching the exec bit in either direction — the latter covers the
// rewrite idiom of flipping a page RW, patching it, and flipping it back).
// Generations are allocated from the address space's global code-generation
// counter, so they are monotone across unmap/remap of the same address and
// an old cached generation can never collide with a fresh page.
struct Page {
  std::uint8_t prot = kProtNone;
  std::uint64_t gen = 0;
  std::vector<std::uint8_t> bytes;  // always kPageSize once allocated
};

// Statistics the tests and benches can assert on (e.g. lazypoline's rewrite
// path must flip a page to RW exactly once per discovered syscall site).
// `faults` counts *architectural* faults only — accesses that returned a
// MemFault to the caller. Speculative shortfall while completing a fetch
// window across a page boundary is not a fault and is not counted.
struct AddressSpaceStats {
  std::uint64_t mmap_calls = 0;
  std::uint64_t munmap_calls = 0;
  std::uint64_t mprotect_calls = 0;
  std::uint64_t faults = 0;
  std::uint64_t fetches = 0;            // fetch() + fetch_window() calls
  std::uint64_t exec_invalidations = 0; // per-page code-generation bumps
};

class AddressSpace {
 public:
  AddressSpace() = default;

  // Deep copy (fork). Sharing (CLONE_VM) is expressed by sharing the
  // std::shared_ptr<AddressSpace> itself at the task layer.
  [[nodiscard]] std::shared_ptr<AddressSpace> clone() const;

  // --- mapping management -------------------------------------------------
  //
  // map(): reserve [addr, addr+length) (page-rounded). If `fixed` is false
  // and the range is occupied, a free range at or above `addr` is chosen.
  // Returns the chosen base address. Fails for fixed mappings that overlap
  // existing ones (the simulator is stricter than MAP_FIXED to catch bugs).
  Result<std::uint64_t> map(std::uint64_t addr, std::uint64_t length,
                            std::uint8_t prot, bool fixed);
  Status unmap(std::uint64_t addr, std::uint64_t length);
  Status protect(std::uint64_t addr, std::uint64_t length, std::uint8_t prot);

  [[nodiscard]] bool is_mapped(std::uint64_t addr) const noexcept;
  [[nodiscard]] std::optional<std::uint8_t> prot_at(std::uint64_t addr) const noexcept;

  // --- checked access -----------------------------------------------------
  std::optional<MemFault> read(std::uint64_t addr,
                               std::span<std::uint8_t> out) const noexcept;
  std::optional<MemFault> write(std::uint64_t addr,
                                std::span<const std::uint8_t> data) noexcept;
  // Instruction fetch: requires kProtExec.
  std::optional<MemFault> fetch(std::uint64_t addr,
                                std::span<std::uint8_t> out) const noexcept;

  // Fetches up to out.size() executable bytes at `addr` with one page-span
  // copy per page touched (at most two for an instruction window), stopping
  // early at the first unmapped or non-executable byte. Returns the number
  // of bytes fetched. A zero return is an architectural fetch fault
  // (recorded in stats().faults, reported via *fault when non-null); a
  // short-but-nonzero return is the normal shape of a window ending at an
  // executability boundary and does NOT count as a fault.
  std::size_t fetch_window(std::uint64_t addr, std::span<std::uint8_t> out,
                           MemFault* fault = nullptr) const noexcept;

  // Convenience typed accessors (little-endian, like x86-64).
  Result<std::uint64_t> read_u64(std::uint64_t addr) const;
  Result<std::uint8_t> read_u8(std::uint64_t addr) const;
  Status write_u64(std::uint64_t addr, std::uint64_t value);
  Status write_u8(std::uint64_t addr, std::uint8_t value);

  // --- privileged access (kernel / host runtime) --------------------------
  // The kernel and host-side interposer runtime bypass protections, exactly
  // like kernel copy_to_user after access_ok, or a debugger via ptrace.
  Status read_force(std::uint64_t addr, std::span<std::uint8_t> out) const;
  Status write_force(std::uint64_t addr, std::span<const std::uint8_t> data);

  [[nodiscard]] const AddressSpaceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t mapped_page_count() const noexcept { return pages_.size(); }

  // --- block-cache / D-TLB support -----------------------------------------
  //
  // Raw page view for the CPU's block cache, fetch TLB, and data TLB: the
  // page at `page_base` (which must be page-aligned), or nullptr if unmapped.
  // The returned pointer stays valid until layout_gen() changes; callers must
  // re-check prot and gen through it on every use.
  [[nodiscard]] const Page* page_at(std::uint64_t page_base) const noexcept;
  // Mutable variant for the data-side TLB's write path. The same validity
  // rules apply; writers that can touch executable bytes must NOT use this
  // (they would bypass the code-generation bump) — the D-TLB refuses to
  // fast-path writes to pages with the exec bit set for exactly that reason.
  [[nodiscard]] Page* page_at_mut(std::uint64_t page_base) noexcept;

  // Monotone counter bumped whenever any mutation may invalidate a cached
  // decode of executable bytes anywhere in this address space. Per-page
  // `Page::gen` values are allocated from it. Atomic so a CLONE_VM sibling
  // on another simulated CPU observes the bump and can shoot down its own
  // block-cache and data-TLB state; relaxed ordering suffices because readers
  // re-validate through the live Page before trusting any cached bytes.
  [[nodiscard]] std::uint64_t code_gen() const noexcept {
    return code_gen_.load(std::memory_order_relaxed);
  }
  // Monotone counter bumped by map()/unmap(): raw Page pointers obtained
  // while it was stable remain valid while it stays unchanged.
  [[nodiscard]] std::uint64_t layout_gen() const noexcept {
    return layout_gen_.load(std::memory_order_relaxed);
  }
  // Process-global unique id of this address space instance. clone() and a
  // fresh construction both produce a new id, so a block cache keyed by it
  // can never leak entries across fork or execve.
  [[nodiscard]] std::uint64_t asid() const noexcept { return asid_; }

  // Lowest address considered for non-fixed placement.
  static constexpr std::uint64_t kDefaultMapBase = 0x0000'7000'0000'0000ULL;

 private:
  // Bumps the code generation of every mapped executable page intersecting
  // [addr, addr+size) — called before contents change under that range.
  void touch_exec_range(std::uint64_t addr, std::size_t size) noexcept;
  void touch_page_gen(Page& page) noexcept;

  static std::uint64_t next_asid() noexcept;

  [[nodiscard]] std::uint64_t bump_code_gen() noexcept {
    return code_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void bump_layout_gen() noexcept {
    layout_gen_.fetch_add(1, std::memory_order_relaxed);
  }

  // Keyed by page base address.
  std::map<std::uint64_t, Page> pages_;
  std::atomic<std::uint64_t> code_gen_{0};
  std::atomic<std::uint64_t> layout_gen_{0};
  std::uint64_t asid_ = next_asid();
  mutable AddressSpaceStats stats_;
};

}  // namespace lzp::mem
