#include "profile/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "kernel/syscalls.hpp"
#include "metrics/report.hpp"

namespace lzp::profile {

namespace {

std::string hex_addr(std::uint64_t addr) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%llx",
                static_cast<unsigned long long>(addr));
  return buffer;
}

}  // namespace

// ---------------------------------------------------------------------------
// Attach / configure
// ---------------------------------------------------------------------------

void Profiler::attach(kern::Machine& machine) {
  machine_ = &machine;
  machine.set_profile_sink(this);
}

void Profiler::detach() {
  if (machine_ != nullptr) machine_->set_profile_sink(nullptr);
  machine_ = nullptr;
}

void Profiler::register_symbol(std::uint64_t start, std::uint64_t size,
                               std::string name) {
  symbols_[start] = {size, std::move(name)};
}

void Profiler::clear() {
  sync();  // drain machine-side pending so it can't resurface post-clear
  auto lock = maybe_lock();
  class_cycles_ = {};
  guest_sites_.clear();
  detail_sites_.clear();
  folded_.clear();
  task_state_.clear();
  cached_state_ = nullptr;
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

Profiler::SiteStats* Profiler::guest_site(TaskState& state,
                                          std::uint64_t addr) {
  auto& bucket =
      state.site_hash[(addr * 0x9E3779B97F4A7C15ULL) >>
                      (64 - TaskState::kSiteHashBits)];
  if (bucket.site != nullptr && bucket.addr == addr) return bucket.site;
  SiteStats* site = &guest_sites_[addr];
  bucket = {addr, site};
  return site;
}

void Profiler::on_guest_block(const kern::Task& task, std::uint64_t block_start,
                              std::uint32_t retired, std::uint64_t cycles) {
  auto lock = maybe_lock();
  TaskState& state = state_for(task.tid);
  state.leaf = block_start;
  state.leaf_valid = true;
  // The block engine's probe is already per-superblock, so always count.
  SiteStats* site = guest_site(state, block_start);
  site->cycles += cycles;
  site->events += retired;
}

void Profiler::on_guest_insn(const kern::Task& task, std::uint64_t rip,
                             std::uint64_t cycles) {
  auto lock = maybe_lock();
  TaskState& state = state_for(task.tid);
  state.leaf = rip;
  state.leaf_valid = true;
  // The machine already samples and batches (step_sample_period): `cycles`
  // covers everything charged for guest instructions since the last probe,
  // attributed to the sampled rip. Period 1 makes this exactly per
  // instruction; larger periods coarsen only the site map — class totals
  // always flow through on_cycles.
  SiteStats* site = guest_site(state, rip);
  site->cycles += cycles;
  site->events += config_.step_sample_period;
}

void Profiler::on_cycles(const kern::Task& task, kern::CycleClass cls,
                         std::uint64_t detail, std::uint64_t cycles) {
  // Zero-cost charges (e.g. the zpoline nop sled, whose traversal is charged
  // as one lump at the trampoline entry) would only litter the maps with
  // zero-cycle rows; class totals are unchanged by skipping them.
  if (cycles == 0) return;
  auto lock = maybe_lock();
  class_cycles_[static_cast<std::size_t>(cls)] += cycles;

  // Guest-class host calls (app harnesses bound with CycleClass::kGuest —
  // modeled application compute) carry the binding address as their detail;
  // attribute them as named guest sites, not under the retire-probe leaf.
  const bool guest_hostcall =
      cls == kern::CycleClass::kGuest &&
      detail >= kern::Machine::kHostRegionBase;
  const bool plain_guest = cls == kern::CycleClass::kGuest && !guest_hostcall;
  if (plain_guest) detail = 0;

  // Resolve the charge's accumulation targets through the per-task slot memo.
  // Guest charges fold at symbol-range granularity, so the hot path —
  // consecutive charges whose leaf stays inside one function, same frame,
  // same class — is a range check plus pointer bumps; class transitions
  // (guest -> kernel -> interposer around every syscall) hit the memo's
  // direct-mapped hash instead of rebuilding the fold key string.
  TaskState& state = state_for(task.tid);
  // Frame-walk context: a plain-guest run flushes at the next attribution
  // scope's first charge, before anything has moved the registers, so live
  // ctx is the charge-time context. A non-guest run flushes at the first
  // *guest* charge after its scope — possibly an instruction that already
  // tore the frame down — so it folds under the run-start snapshot
  // (Task::pending_rbp) instead.
  const std::uint64_t rbp =
      plain_guest ? task.ctx.reg(isa::Gpr::rbp) : task.pending_rbp;
  std::uint64_t site = 0;
  if (plain_guest) {
    if (!state.leaf_valid) {
      site = ~0ULL;  // pre-first-probe charges: "guest:other"
    } else {
      if (state.leaf < state.range_lo || state.leaf >= state.range_hi) {
        refresh_range(state, state.leaf);
      }
      site = state.range_lo;
    }
  }
  const SlotKey key{cls, detail, site, rbp};
  TaskState::Slot slot{};
  if (state.last_slot.fold != nullptr && state.last_key == key) {
    slot = state.last_slot;
  } else {
    auto& bucket = state.slot_hash[slot_hash_index(key)];
    if (bucket.slot.fold != nullptr && bucket.key == key) {
      slot = bucket.slot;
    } else if (auto it = state.slots.find(key); it != state.slots.end()) {
      slot = it->second;
      bucket = {key, slot};
    } else {
      std::string leaf_label;
      if (plain_guest) {
        leaf_label = state.leaf_valid ? state.range_label : "guest:other";
      } else {
        leaf_label = detail_label(DetailKey{cls, detail});
      }
      slot.fold = &folded_[fold_key(task, rbp, leaf_label)];
      if (!plain_guest) slot.site = &detail_sites_[DetailKey{cls, detail}];
      // Backstop for pathological frame churn; the memo is only a cache (the
      // hash entries stay valid — they point into node-stable maps).
      if (state.slots.size() >= 4096) state.slots.clear();
      state.slots.emplace(key, slot);
      bucket = {key, slot};
    }
    state.last_key = key;
    state.last_slot = slot;
  }
  *slot.fold += cycles;
  if (slot.site != nullptr) {
    slot.site->cycles += cycles;
    ++slot.site->events;
  }
}

std::size_t Profiler::slot_hash_index(const SlotKey& key) noexcept {
  std::uint64_t h = static_cast<std::uint64_t>(key.cls) * 0x9E3779B97F4A7C15ULL;
  h ^= key.detail * 0xBF58476D1CE4E5B9ULL;
  h ^= key.site * 0x94D049BB133111EBULL;
  h ^= key.rbp * 0x2545F4914F6CDD1DULL;
  h ^= h >> 29;
  return h & (TaskState::kSlotHashSize - 1);
}

// ---------------------------------------------------------------------------
// Stack walking & symbolization
// ---------------------------------------------------------------------------

const std::vector<std::uint64_t>& Profiler::walk_stack(const kern::Task& task,
                                                       std::uint64_t rbp) {
  TaskState& state = state_for(task.tid);
  if (state.cached_rbp == rbp) return state.cached_frames;

  state.cached_frames.clear();
  std::uint64_t frame = rbp;
  for (std::size_t depth = 0;
       depth < config_.max_stack_depth && frame != 0 &&
       frame < kern::Machine::kHostRegionBase;
       ++depth) {
    // Frame-pointer ABI: [rbp+8] = return address, [rbp] = caller's rbp.
    auto ret = task.mem->read_u64(frame + 8);
    auto next = task.mem->read_u64(frame);
    if (!ret || !next) break;
    const std::uint64_t ret_addr = ret.value();
    // A return address must land in guest code; anything else means rbp is
    // being used as a general-purpose register and the chain is garbage.
    if (ret_addr == 0 || ret_addr >= kern::Machine::kHostRegionBase) break;
    state.cached_frames.push_back(ret_addr);
    // The caller's frame lives at a strictly higher address (stack grows
    // down); anything else would loop.
    if (next.value() <= frame) break;
    frame = next.value();
  }
  state.cached_rbp = rbp;
  return state.cached_frames;
}

void Profiler::refresh_range(TaskState& state, std::uint64_t leaf) const {
  auto it = symbols_.upper_bound(leaf);
  // Clip to the next symbol's start so a later-starting nested range can
  // never be masked by a cached enclosing one.
  std::uint64_t hi =
      it == symbols_.end() ? kern::Machine::kHostRegionBase : it->first;
  std::uint64_t lo = 0;
  bool found = false;
  while (it != symbols_.begin()) {
    --it;
    const auto& [size, name] = it->second;
    if (leaf - it->first < size) {
      // Tightest containing range (latest start wins, as in symbolize()).
      lo = std::max(lo, it->first);
      hi = std::min(hi, it->first + size);
      state.range_label = name;
      found = true;
      break;
    }
    // A range starting at or below the leaf that does not contain it ends at
    // or below it: it bounds the unsymbolized gap from below.
    lo = std::max(lo, it->first + size);
  }
  if (!found) state.range_label = "guest:code";
  state.range_lo = lo;
  state.range_hi = hi;
}

std::string Profiler::symbolize(std::uint64_t addr) const {
  // Tightest registered range containing addr wins.
  auto it = symbols_.upper_bound(addr);
  while (it != symbols_.begin()) {
    --it;
    const auto& [size, name] = it->second;
    if (addr - it->first < size) return name;
    // Earlier ranges start even lower; only nested (enclosing) ranges can
    // still match, so keep scanning backwards.
  }
  return hex_addr(addr);
}

std::string Profiler::detail_label(const DetailKey& key) const {
  switch (key.cls) {
    case kern::CycleClass::kKernel:
      return "kernel:" + std::string(kern::syscall_name(key.detail));
    case kern::CycleClass::kInterposer:
      if (key.detail >= kern::Machine::kHostRegionBase) {
        return "interposer:" + (machine_ != nullptr
                                    ? machine_->host_name(key.detail)
                                    : hex_addr(key.detail));
      }
      if (key.detail == kern::kDetailPtraceStop) {
        return "interposer:ptrace-tracer";
      }
      if (key.detail == kern::kDetailUserNotif) {
        return "interposer:seccomp-supervisor";
      }
      return "interposer:runtime";
    case kern::CycleClass::kDecorator:
      return key.detail == kern::kDetailRecorder ? "decorator:record"
                                                 : "decorator:other";
    case kern::CycleClass::kGuest:
      // Only reached for guest-class host calls (modeled app compute).
      if (key.detail >= kern::Machine::kHostRegionBase) {
        return "guest:" + (machine_ != nullptr ? machine_->host_name(key.detail)
                                               : hex_addr(key.detail));
      }
      break;
  }
  return "guest";
}

std::string Profiler::fold_key(const kern::Task& task, std::uint64_t rbp,
                               const std::string& leaf) {
  const std::vector<std::uint64_t>& frames = walk_stack(task, rbp);
  std::string key = task.process != nullptr ? task.process->program_name
                                            : "<no-process>";
  // frames is leaf-first; flamegraph format wants root-first.
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    key += ';';
    key += symbolize(*it);
  }
  key += ';';
  key += leaf;
  return key;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

std::array<std::uint64_t, kern::kNumCycleClasses> Profiler::class_cycles()
    const {
  sync();
  return class_cycles_;
}

std::uint64_t Profiler::total_cycles() const {
  sync();
  std::uint64_t sum = 0;
  for (std::uint64_t c : class_cycles_) sum += c;
  return sum;
}

std::string Profiler::folded_stacks() const {
  sync();
  std::string out;
  for (const auto& [key, cycles] : folded_) {
    out += key;
    out += ' ';
    out += std::to_string(cycles);
    out += '\n';
  }
  return out;
}

std::vector<HotSite> Profiler::hot_sites(std::size_t top_n) const {
  sync();
  // Merge by (class, label): distinct addresses sharing a registered symbol
  // (or distinct host bindings sharing a name — one runtime per task) are one
  // site to the reader.
  std::map<std::pair<kern::CycleClass, std::string>, SiteStats> merged;
  for (const auto& [addr, stats] : guest_sites_) {
    if (stats.cycles == 0) continue;  // e.g. the free-to-step zpoline nop sled
    SiteStats& slot = merged[{kern::CycleClass::kGuest, symbolize(addr)}];
    slot.cycles += stats.cycles;
    slot.events += stats.events;
  }
  for (const auto& [key, stats] : detail_sites_) {
    SiteStats& slot = merged[{key.cls, detail_label(key)}];
    slot.cycles += stats.cycles;
    slot.events += stats.events;
  }
  std::vector<HotSite> sites;
  sites.reserve(merged.size());
  for (const auto& [key, stats] : merged) {
    sites.push_back(HotSite{key.first, key.second, stats.cycles, stats.events});
  }
  std::sort(sites.begin(), sites.end(), [](const HotSite& a, const HotSite& b) {
    if (a.cycles != b.cycles) return a.cycles > b.cycles;
    return a.label < b.label;
  });
  if (sites.size() > top_n) sites.resize(top_n);
  return sites;
}

std::string Profiler::render_hot_sites(std::size_t top_n) const {
  const std::uint64_t total = std::max<std::uint64_t>(total_cycles(), 1);
  metrics::Table table({"class", "site", "cycles", "share", "events"});
  for (const HotSite& site : hot_sites(top_n)) {
    table.add_row({std::string(kern::to_string(site.cls)), site.label,
                   std::to_string(site.cycles),
                   metrics::percent(100.0 * static_cast<double>(site.cycles) /
                                    static_cast<double>(total)),
                   std::to_string(site.events)});
  }
  std::ostringstream out;
  out << table.render() << '\n';
  metrics::Table classes({"class", "cycles", "share"});
  for (std::size_t i = 0; i < kern::kNumCycleClasses; ++i) {
    classes.add_row(
        {std::string(kern::to_string(static_cast<kern::CycleClass>(i))),
         std::to_string(class_cycles_[i]),
         metrics::percent(100.0 * static_cast<double>(class_cycles_[i]) /
                          static_cast<double>(total))});
  }
  out << classes.render();
  return out.str();
}

}  // namespace lzp::profile
