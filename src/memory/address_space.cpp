#include "memory/address_space.hpp"

#include <algorithm>
#include <cstring>

#include "base/strings.hpp"

namespace lzp::mem {

std::string prot_to_string(std::uint8_t prot) {
  std::string out = "---";
  if (prot & kProtRead) out[0] = 'r';
  if (prot & kProtWrite) out[1] = 'w';
  if (prot & kProtExec) out[2] = 'x';
  return out;
}

std::string MemFault::to_string() const {
  std::string out{lzp::mem::to_string(kind)};
  out += " fault at ";
  out += hex_u64(address);
  out += unmapped ? " (unmapped)" : " (permission)";
  return out;
}

std::uint64_t AddressSpace::next_asid() noexcept {
  // Atomic: address spaces are constructed from concurrent clone() handlers
  // when CLONE_VM siblings run on different simulated CPUs.
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::shared_ptr<AddressSpace> AddressSpace::clone() const {
  auto copy = std::make_shared<AddressSpace>();
  copy->pages_ = pages_;  // deep copy: Page holds its bytes by value
  // The copy keeps the generation counters (so per-page gens stay monotone
  // within the lineage) but gets its own asid from the default constructor:
  // decode caches keyed by asid treat the child as a brand-new code space.
  copy->code_gen_.store(code_gen(), std::memory_order_relaxed);
  copy->layout_gen_.store(layout_gen(), std::memory_order_relaxed);
  return copy;
}

const Page* AddressSpace::page_at(std::uint64_t page_base) const noexcept {
  auto it = pages_.find(page_base);
  return it == pages_.end() ? nullptr : &it->second;
}

Page* AddressSpace::page_at_mut(std::uint64_t page_base) noexcept {
  auto it = pages_.find(page_base);
  return it == pages_.end() ? nullptr : &it->second;
}

void AddressSpace::touch_page_gen(Page& page) noexcept {
  page.gen = bump_code_gen();
  ++stats_.exec_invalidations;
}

void AddressSpace::touch_exec_range(std::uint64_t addr, std::size_t size) noexcept {
  if (size == 0) return;
  const std::uint64_t last = page_floor(addr + size - 1);
  for (std::uint64_t base = page_floor(addr);; base += kPageSize) {
    auto it = pages_.find(base);
    if (it != pages_.end() && (it->second.prot & kProtExec) != 0) {
      touch_page_gen(it->second);
    }
    if (base == last) break;
  }
}

Result<std::uint64_t> AddressSpace::map(std::uint64_t addr, std::uint64_t length,
                                        std::uint8_t prot, bool fixed) {
  ++stats_.mmap_calls;
  if (length == 0) {
    return make_error(StatusCode::kInvalidArgument, "mmap: zero length");
  }
  std::uint64_t base = page_floor(addr);
  const std::uint64_t num_pages = page_ceil(length) / kPageSize;

  // One lookup: the first mapped page at or above the candidate must lie
  // past the requested range.
  auto range_free = [&](std::uint64_t candidate) {
    auto it = pages_.lower_bound(candidate);
    return it == pages_.end() ||
           it->first - candidate >= num_pages * kPageSize;
  };

  if (fixed) {
    if (!range_free(base)) {
      return make_error(StatusCode::kAlreadyExists,
                        "mmap fixed: range overlaps existing mapping at " +
                            hex_u64(base));
    }
  } else {
    if (base == 0) base = kDefaultMapBase;
    // First-fit scan from the hint upward. The page map is sparse, so skip
    // over occupied runs instead of probing page by page.
    while (!range_free(base)) {
      auto it = pages_.lower_bound(base);
      base = it->first + kPageSize;
    }
  }

  bump_layout_gen();
  for (std::uint64_t i = 0; i < num_pages; ++i) {
    Page page;
    page.prot = prot;
    // Fresh pages start at the current global code generation: any cached
    // decode of a previously unmapped-then-remapped page at this address
    // recorded a strictly older generation (unmap bumps the counter).
    page.gen = code_gen();
    page.bytes.assign(kPageSize, 0);
    pages_.emplace(base + i * kPageSize, std::move(page));
  }
  return base;
}

Status AddressSpace::unmap(std::uint64_t addr, std::uint64_t length) {
  ++stats_.munmap_calls;
  if ((addr & kPageMask) != 0) {
    return make_error(StatusCode::kInvalidArgument, "munmap: unaligned address");
  }
  const std::uint64_t end = page_ceil(addr + length);
  bump_layout_gen();
  // Only mapped pages are visited: munmap on unmapped pages succeeds, like
  // Linux, and costs nothing however large the range.
  for (auto it = pages_.lower_bound(addr);
       it != pages_.end() && it->first < end;) {
    if ((it->second.prot & kProtExec) != 0) {
      // Retire the exec page's generation so a later mapping at the same
      // address can never satisfy a stale cached decode.
      (void)bump_code_gen();
      ++stats_.exec_invalidations;
    }
    it = pages_.erase(it);
  }
  return Status::ok();
}

Status AddressSpace::protect(std::uint64_t addr, std::uint64_t length,
                             std::uint8_t prot) {
  ++stats_.mprotect_calls;
  if ((addr & kPageMask) != 0) {
    return make_error(StatusCode::kInvalidArgument, "mprotect: unaligned address");
  }
  const std::uint64_t end = page_ceil(addr + length);
  if (end < addr) {
    return make_error(StatusCode::kInvalidArgument, "mprotect: range wraps");
  }
  // Linux fails mprotect if any page in the range is unmapped; check first,
  // walking only the mapped pages.
  const auto first = pages_.lower_bound(addr);
  const auto last = pages_.lower_bound(end);
  std::uint64_t page = addr;
  for (auto it = first; it != last && it->first == page; ++it) {
    page += kPageSize;
  }
  if (page != end) {
    return make_error(StatusCode::kNotFound,
                      "mprotect: unmapped page " + hex_u64(page));
  }
  for (auto it = first; it != last; ++it) {
    Page& entry = it->second;
    // Any protection change that involves executability — in either
    // direction — retires the page's code generation. This is what makes
    // the rewrite idiom safe for decode caches: flip RX->RW (bump), patch
    // the bytes while the page is not executable, flip RW->RX (bump again).
    if (((entry.prot | prot) & kProtExec) != 0 && entry.prot != prot) {
      touch_page_gen(entry);
    }
    entry.prot = prot;
  }
  return Status::ok();
}

bool AddressSpace::is_mapped(std::uint64_t addr) const noexcept {
  return pages_.count(page_floor(addr)) != 0;
}

std::optional<std::uint8_t> AddressSpace::prot_at(std::uint64_t addr) const noexcept {
  auto it = pages_.find(page_floor(addr));
  if (it == pages_.end()) return std::nullopt;
  return it->second.prot;
}

namespace {

// Copies `size` bytes starting at `addr`, page by page, requiring `need` in
// each page's protection. Exactly one of `out` / `in` is non-null.
template <typename PageMap>
std::optional<MemFault> copy_checked(PageMap& pages, std::uint64_t addr,
                                     std::uint8_t* out, const std::uint8_t* in,
                                     std::size_t size, std::uint8_t need,
                                     AccessKind kind,
                                     bool enforce_prot) noexcept {
  std::size_t done = 0;
  while (done < size) {
    const std::uint64_t current = addr + done;
    const std::uint64_t page_base = page_floor(current);
    auto it = pages.find(page_base);
    if (it == pages.end()) {
      return MemFault{current, kind, /*unmapped=*/true};
    }
    if (enforce_prot && (it->second.prot & need) != need) {
      return MemFault{current, kind, /*unmapped=*/false};
    }
    const std::size_t offset = current - page_base;
    const std::size_t chunk = std::min<std::size_t>(size - done, kPageSize - offset);
    if (out != nullptr) {
      std::memcpy(out + done, it->second.bytes.data() + offset, chunk);
    } else {
      std::memcpy(const_cast<std::uint8_t*>(it->second.bytes.data()) + offset,
                  in + done, chunk);
    }
    done += chunk;
  }
  return std::nullopt;
}

}  // namespace

std::optional<MemFault> AddressSpace::read(std::uint64_t addr,
                                           std::span<std::uint8_t> out) const noexcept {
  auto fault = copy_checked(pages_, addr, out.data(), nullptr, out.size(),
                            kProtRead, AccessKind::kRead, /*enforce_prot=*/true);
  if (fault) ++stats_.faults;
  return fault;
}

std::optional<MemFault> AddressSpace::write(std::uint64_t addr,
                                            std::span<const std::uint8_t> data) noexcept {
  touch_exec_range(addr, data.size());
  auto fault = copy_checked(pages_, addr, nullptr, data.data(), data.size(),
                            kProtWrite, AccessKind::kWrite, /*enforce_prot=*/true);
  if (fault) ++stats_.faults;
  return fault;
}

std::optional<MemFault> AddressSpace::fetch(std::uint64_t addr,
                                            std::span<std::uint8_t> out) const noexcept {
  ++stats_.fetches;
  auto fault = copy_checked(pages_, addr, out.data(), nullptr, out.size(),
                            kProtExec, AccessKind::kFetch, /*enforce_prot=*/true);
  if (fault) ++stats_.faults;
  return fault;
}

std::size_t AddressSpace::fetch_window(std::uint64_t addr,
                                       std::span<std::uint8_t> out,
                                       MemFault* fault) const noexcept {
  ++stats_.fetches;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t current = addr + done;
    const std::uint64_t page_base = page_floor(current);
    const Page* page = page_at(page_base);
    if (page == nullptr || (page->prot & kProtExec) == 0) {
      if (done == 0) {
        // The first byte itself is unfetchable: an architectural fault.
        ++stats_.faults;
        if (fault != nullptr) {
          *fault = MemFault{current, AccessKind::kFetch,
                            /*unmapped=*/page == nullptr};
        }
      }
      // A short window at an executability boundary is benign: the decoder
      // sees exactly the bytes that exist, and raises SIGILL itself if an
      // instruction is truncated by the boundary.
      return done;
    }
    const std::size_t offset = current - page_base;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, kPageSize - offset);
    std::memcpy(out.data() + done, page->bytes.data() + offset, chunk);
    done += chunk;
  }
  return done;
}

Result<std::uint64_t> AddressSpace::read_u64(std::uint64_t addr) const {
  std::uint8_t buffer[8];
  if (auto fault = read(addr, buffer)) {
    return make_error(StatusCode::kOutOfRange, fault->to_string());
  }
  std::uint64_t value = 0;
  std::memcpy(&value, buffer, sizeof(value));
  return value;
}

Result<std::uint8_t> AddressSpace::read_u8(std::uint64_t addr) const {
  std::uint8_t value = 0;
  if (auto fault = read(addr, {&value, 1})) {
    return make_error(StatusCode::kOutOfRange, fault->to_string());
  }
  return value;
}

Status AddressSpace::write_u64(std::uint64_t addr, std::uint64_t value) {
  std::uint8_t buffer[8];
  std::memcpy(buffer, &value, sizeof(value));
  if (auto fault = write(addr, buffer)) {
    return make_error(StatusCode::kOutOfRange, fault->to_string());
  }
  return Status::ok();
}

Status AddressSpace::write_u8(std::uint64_t addr, std::uint8_t value) {
  if (auto fault = write(addr, {&value, 1})) {
    return make_error(StatusCode::kOutOfRange, fault->to_string());
  }
  return Status::ok();
}

Status AddressSpace::read_force(std::uint64_t addr,
                                std::span<std::uint8_t> out) const {
  auto fault = copy_checked(pages_, addr, out.data(), nullptr, out.size(),
                            kProtNone, AccessKind::kRead, /*enforce_prot=*/false);
  if (fault) {
    return make_error(StatusCode::kOutOfRange, fault->to_string());
  }
  return Status::ok();
}

Status AddressSpace::write_force(std::uint64_t addr,
                                 std::span<const std::uint8_t> data) {
  touch_exec_range(addr, data.size());
  auto fault = copy_checked(pages_, addr, nullptr, data.data(), data.size(),
                            kProtNone, AccessKind::kWrite, /*enforce_prot=*/false);
  if (fault) {
    return make_error(StatusCode::kOutOfRange, fault->to_string());
  }
  return Status::ok();
}

}  // namespace lzp::mem
