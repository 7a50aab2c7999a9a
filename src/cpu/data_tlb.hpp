// Data-side TLB: direct-mapped page-translation arrays for loads and stores.
//
// The block cache has a one-entry fetch-side TLB (block_cache.hpp); without
// this one every kLoad/kStore/kPush/kPop would walk the std::map page table.
// This TLB caches
// page-base -> mem::Page* translations separately for reads and writes, so
// the data hot path is one index + three compares + a memcpy.
//
// Validity is entirely generation-based, reusing the existing machinery:
//   * an entry is usable only while layout_gen() is unchanged (map/unmap
//     bumps it, and raw Page pointers are only stable under a fixed layout),
//   * the whole TLB belongs to one asid; a different address space (execve,
//     fork's deep copy) flushes it wholesale,
//   * protection is deliberately NOT cached: it is re-read through the live
//     Page on every access, because mprotect does not bump layout_gen (the
//     page object is stable; only its prot byte changes).
//
// Exactness rules (anything outside them falls back to AddressSpace::read/
// write, which owns fault construction and fault counting):
//   * only single-page accesses take the fast path — crossing accesses have
//     partial-write semantics the slow path implements,
//   * writes require kProtWrite and *no* kProtExec: a write to an executable
//     page must go through AddressSpace::write so touch_exec_range bumps the
//     page's code generation and cached blocks invalidate (the SMC
//     contract the block cache rests on).
#pragma once

#include <cstdint>
#include <cstring>

#include "memory/address_space.hpp"

namespace lzp::cpu {

struct DataTlbStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_fallbacks = 0;  // miss/refill, crossing, prot, fault
  std::uint64_t write_hits = 0;
  std::uint64_t write_fallbacks = 0;
};

class DataTlb {
 public:
  static constexpr std::size_t kNumEntries = 64;  // power of two, per side

  // Fast-path read of `n` bytes at `addr`. Returns true when the bytes were
  // copied; false means "use AddressSpace::read" (which may still succeed —
  // false only promises nothing was copied and no state was clobbered).
  bool read(const mem::AddressSpace& as, std::uint64_t addr, std::uint8_t* out,
            std::size_t n) noexcept {
    const std::uint64_t base = mem::page_floor(addr);
    const std::uint64_t off = addr - base;
    if (off + n > mem::kPageSize) {
      ++stats_.read_fallbacks;
      return false;
    }
    const mem::Page* page = translate_read(as, base);
    if (page == nullptr || (page->prot & mem::kProtRead) == 0) {
      ++stats_.read_fallbacks;
      return false;
    }
    std::memcpy(out, page->bytes.data() + off, n);
    ++stats_.read_hits;
    return true;
  }

  // Fast-path write; same contract as read(). Never touches pages with the
  // exec bit set (see header comment).
  bool write(mem::AddressSpace& as, std::uint64_t addr, const std::uint8_t* in,
             std::size_t n) noexcept {
    const std::uint64_t base = mem::page_floor(addr);
    const std::uint64_t off = addr - base;
    if (off + n > mem::kPageSize) {
      ++stats_.write_fallbacks;
      return false;
    }
    mem::Page* page = translate_write(as, base);
    if (page == nullptr || (page->prot & mem::kProtWrite) == 0 ||
        (page->prot & mem::kProtExec) != 0) {
      ++stats_.write_fallbacks;
      return false;
    }
    std::memcpy(page->bytes.data() + off, in, n);
    ++stats_.write_hits;
    return true;
  }

  void flush() noexcept {
    for (auto& e : read_) e.base = kNoAddr;
    for (auto& e : write_) e.base = kNoAddr;
  }

  [[nodiscard]] const DataTlbStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint64_t kNoAddr = ~0ULL;

  template <typename PagePtr>
  struct Entry {
    std::uint64_t base = kNoAddr;
    std::uint64_t layout_gen = 0;
    PagePtr page = nullptr;
  };

  [[nodiscard]] static std::size_t index_of(std::uint64_t base) noexcept {
    return static_cast<std::size_t>((base >> 12) & (kNumEntries - 1));
  }

  // Syncs the TLB to `as` (flushing on an asid change) and returns true if
  // the TLB may serve entries for it.
  bool sync_asid(const mem::AddressSpace& as) noexcept {
    if (asid_ != as.asid()) {
      flush();
      asid_ = as.asid();
    }
    return true;
  }

  const mem::Page* translate_read(const mem::AddressSpace& as,
                                  std::uint64_t base) noexcept {
    sync_asid(as);
    Entry<const mem::Page*>& e = read_[index_of(base)];
    if (e.base == base && e.layout_gen == as.layout_gen()) return e.page;
    const mem::Page* page = as.page_at(base);
    if (page == nullptr) return nullptr;
    e.base = base;
    e.layout_gen = as.layout_gen();
    e.page = page;
    return page;
  }

  mem::Page* translate_write(mem::AddressSpace& as, std::uint64_t base) noexcept {
    sync_asid(as);
    Entry<mem::Page*>& e = write_[index_of(base)];
    if (e.base == base && e.layout_gen == as.layout_gen()) return e.page;
    mem::Page* page = as.page_at_mut(base);
    if (page == nullptr) return nullptr;
    e.base = base;
    e.layout_gen = as.layout_gen();
    e.page = page;
    return page;
  }

  Entry<const mem::Page*> read_[kNumEntries];
  Entry<mem::Page*> write_[kNumEntries];
  std::uint64_t asid_ = 0;
  DataTlbStats stats_;
};

}  // namespace lzp::cpu
