// The full-fat ProfileSink: cycle-exact guest profiler with call-stack
// folding and per-class attribution.
//
// A Profiler attaches to a Machine as its profile sink and accumulates, per
// attribution class (kernel/profile_sink.hpp), every simulated cycle the
// machine charges. Class totals come from the on_cycles mirror of
// Machine::charge(), so they sum to Machine::total_cycles() *exactly* — with
// the superblock engine on or off — which is the invariant examples/profile
// and bench/overhead gate on.
//
// Site attribution rides on the engine probes: on_guest_block gives exact
// per-block sites (the batched engine's native granularity), on_guest_insn is
// the step_once fallback, optionally sampled (every Nth retirement event per
// task, deterministic) when full counting is too hot. Sampling only coarsens
// the *site* map; class totals stay exact either way.
//
// Call stacks are recovered by walking the guest's %rbp frame chain
// ([rbp+8] = return address, [rbp] = caller's rbp — the frame-pointer ABI the
// assembler's push rbp / mov rbp,rsp prologue produces). Reads go through
// AddressSpace::read_u64 (fault-returning, never perturbing), the walk is
// bounded, and results are cached per task keyed on the live rbp value.
// Non-guest cycles fold under the task's current guest stack with a synthetic
// leaf frame ("kernel:write", "interposer:lazypoline.entry", ...), so a
// flamegraph shows interposition cost hanging off the call site that paid it.
//
// Determinism: all containers are ordered maps and output is emitted in key
// order, so same-seed runs produce byte-identical folded stacks and tables
// (tests/profile_test.cpp asserts this). Under run_smp, flip
// set_concurrent(true) — probes then serialize through a mutex, same pattern
// as trace::Tracer.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kernel/machine.hpp"
#include "kernel/profile_sink.hpp"

namespace lzp::profile {

struct ProfilerConfig {
  // Attribute sites on every Nth guest retirement event per task under the
  // step engine (1 = count everything, exactly per instruction). Exported to
  // the machine via ProfileSink::step_sample_period(): the machine batches
  // the skipped instructions' cycles onto the next probe, so site sums stay
  // exact while the per-instruction probe cost amortizes by N. The block
  // engine always counts every block — its probe already amortizes to one
  // call per superblock. Set BEFORE attach(); the machine reads it once.
  std::uint64_t step_sample_period = 1;
  // Frame-pointer walk depth bound (leaf excluded).
  std::size_t max_stack_depth = 16;
};

// One row of the hot-site table.
struct HotSite {
  kern::CycleClass cls = kern::CycleClass::kGuest;
  std::string label;          // symbolized site / synthetic frame name
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;   // blocks/insns (guest) or charges (other)
};

class Profiler final : public kern::ProfileSink {
 public:
  explicit Profiler(ProfilerConfig config = {}) : config_(config) {}

  // Installs this profiler as the machine's profile sink. Attach before
  // creating tasks / installing mechanisms to capture install-time charges;
  // class sums then match total_cycles() from a fresh machine exactly.
  void attach(kern::Machine& machine);
  void detach();

  // SMP mode: probes fire from several host threads at once; serialize them.
  // Flip only while no run is in progress.
  void set_concurrent(bool on) noexcept { concurrent_ = on; }

  // Names a guest code range for symbolization; unnamed addresses render as
  // hex. Ranges may nest — the tightest (latest-starting) match wins.
  void register_symbol(std::uint64_t start, std::uint64_t size,
                       std::string name);

  void clear();

  // --- results --------------------------------------------------------------
  // Cycles per attribution class (index by static_cast<size_t>(CycleClass)).
  [[nodiscard]] std::array<std::uint64_t, kern::kNumCycleClasses>
  class_cycles() const;
  // Sum over class_cycles() — equals Machine::total_cycles() when attached
  // for the machine's whole life.
  [[nodiscard]] std::uint64_t total_cycles() const;

  // Folded call stacks, flamegraph.pl input format: one
  // "frame;frame;leaf <cycles>" line per unique stack, sorted by stack key.
  [[nodiscard]] std::string folded_stacks() const;

  // Top-N sites by cycles (ties broken by label), across all classes.
  [[nodiscard]] std::vector<HotSite> hot_sites(std::size_t top_n) const;
  // The same as an aligned ASCII table (class | site | cycles | share | events),
  // followed by the per-class totals and their exact-sum check line.
  [[nodiscard]] std::string render_hot_sites(std::size_t top_n) const;

  // --- ProfileSink probes ---------------------------------------------------
  void on_cycles(const kern::Task& task, kern::CycleClass cls,
                 std::uint64_t detail, std::uint64_t cycles) override;
  void on_guest_block(const kern::Task& task, std::uint64_t block_start,
                      std::uint32_t retired, std::uint64_t cycles) override;
  void on_guest_insn(const kern::Task& task, std::uint64_t rip,
                     std::uint64_t cycles) override;
  [[nodiscard]] std::uint64_t step_sample_period() const noexcept override {
    return config_.step_sample_period;
  }

 private:
  struct SiteStats {
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
  };
  // Non-guest sites are keyed by (class, detail): detail is the syscall nr
  // (kKernel), host binding address or kDetail* sentinel (kInterposer), or
  // decorator id (kDecorator).
  struct DetailKey {
    kern::CycleClass cls;
    std::uint64_t detail;
    auto operator<=>(const DetailKey&) const = default;
  };
  // Fold-slot identity: guest charges fold at symbol-range granularity (the
  // `site` field is the range's start), non-guest charges at their detail.
  struct SlotKey {
    kern::CycleClass cls;
    std::uint64_t detail;
    std::uint64_t site;
    std::uint64_t rbp;
    auto operator<=>(const SlotKey&) const = default;
  };
  struct TaskState {
    // Cached frame-pointer walk: valid while the task's rbp is unchanged.
    std::uint64_t cached_rbp = ~0ULL;
    std::vector<std::uint64_t> cached_frames;  // return addrs, leaf-first
    std::uint64_t leaf = 0;        // current guest site (block start / rip)
    bool leaf_valid = false;
    // Symbol range containing `leaf` (empty range = not yet resolved): while
    // the leaf stays inside it the fold label cannot change, so per-insn leaf
    // movement within one function never leaves the fast path.
    std::uint64_t range_lo = 1;
    std::uint64_t range_hi = 0;
    std::string range_label;
    // Fold-slot memo: SlotKey -> the charge's two accumulation targets (the
    // folded_ entry, plus the detail_sites_ entry for non-guest charges —
    // both maps are node-stable, so the pointers survive later insertions).
    // A one-entry front cache catches runs of identical charges; a
    // direct-mapped hash catches the short repeating key cycle a syscall's
    // class transitions produce (guest -> kernel -> interposer -> guest)
    // without a tree walk. The fast path is then pure pointer bumps: no map
    // lookup, no string building.
    struct Slot {
      std::uint64_t* fold = nullptr;
      SiteStats* site = nullptr;  // null for plain guest charges
    };
    struct HashBucket {
      SlotKey key{kern::CycleClass::kGuest, 0, 0, 0};
      Slot slot{};
    };
    std::map<SlotKey, Slot> slots;
    SlotKey last_key{kern::CycleClass::kGuest, 0, 0, ~0ULL};
    Slot last_slot{};
    static constexpr std::size_t kSlotHashSize = 64;
    std::array<HashBucket, kSlotHashSize> slot_hash{};
    // Same trick for the per-probe guest site map: a direct-mapped hash over
    // guest_sites_ entries (node-stable), so the step engine's per-insn site
    // bump is a multiply and a compare, not a tree walk. Sampling every Nth
    // retirement spreads the probes over every rip of a loop body, so the
    // hash is sized for a few hundred live sites: at 64 buckets, the 74
    // sampled rips of bench/overhead's profiled loop collided and sent a
    // large share of the probes down the tree.
    struct SiteBucket {
      std::uint64_t addr = ~0ULL;
      SiteStats* site = nullptr;
    };
    static constexpr unsigned kSiteHashBits = 10;
    std::array<SiteBucket, std::size_t{1} << kSiteHashBits> site_hash{};
  };

  // Conditional lock guard: a plain branch when single-threaded (the hot
  // probes run once per block/instruction — a std::unique_lock's bookkeeping
  // is measurable there), a real mutex hold under run_smp.
  class [[nodiscard]] MaybeLock {
   public:
    explicit MaybeLock(Profiler& p) noexcept
        : mu_(p.concurrent_ ? &p.mu_ : nullptr) {
      if (mu_ != nullptr) mu_->lock();
    }
    ~MaybeLock() {
      if (mu_ != nullptr) mu_->unlock();
    }
    MaybeLock(const MaybeLock&) = delete;
    MaybeLock& operator=(const MaybeLock&) = delete;

   private:
    std::mutex* mu_;
  };
  [[nodiscard]] MaybeLock maybe_lock() { return MaybeLock(*this); }
  // Per-task state with a one-entry cache (std::map nodes are stable, so the
  // cached pointer survives insertions; probes hit the same task in runs).
  [[nodiscard]] TaskState& state_for(kern::Tid tid) {
    if (cached_state_ != nullptr && cached_tid_ == tid) return *cached_state_;
    cached_state_ = &task_state_[tid];
    cached_tid_ = tid;
    return *cached_state_;
  }
  [[nodiscard]] static std::size_t slot_hash_index(const SlotKey& key) noexcept;
  // The machine coalesces mirror calls (Machine::charge); pull any pending
  // charges over before reading results so totals are exact at any point.
  void sync() const {
    if (machine_ != nullptr) machine_->flush_profile_mirror();
  }
  [[nodiscard]] SiteStats* guest_site(TaskState& state, std::uint64_t addr);
  // Walks the frame chain from `rbp` (the charge-time context — see
  // on_cycles) and returns the return addresses leaf-first, refreshing the
  // per-task cache.
  [[nodiscard]] const std::vector<std::uint64_t>& walk_stack(
      const kern::Task& task, std::uint64_t rbp);
  [[nodiscard]] std::string symbolize(std::uint64_t addr) const;
  // Refreshes state.range_{lo,hi,label} to the widest interval around `leaf`
  // on which the fold label is constant (the tightest containing symbol,
  // clipped by neighbors; "guest:code" for unsymbolized gaps).
  void refresh_range(TaskState& state, std::uint64_t leaf) const;
  [[nodiscard]] std::string detail_label(const DetailKey& key) const;
  [[nodiscard]] std::string fold_key(const kern::Task& task, std::uint64_t rbp,
                                     const std::string& leaf);

  ProfilerConfig config_;
  kern::Machine* machine_ = nullptr;
  bool concurrent_ = false;
  std::mutex mu_;

  std::array<std::uint64_t, kern::kNumCycleClasses> class_cycles_{};
  std::map<std::uint64_t, SiteStats> guest_sites_;   // site addr -> stats
  std::map<DetailKey, SiteStats> detail_sites_;      // non-guest "sites"
  std::map<std::string, std::uint64_t> folded_;      // stack key -> cycles
  std::map<kern::Tid, TaskState> task_state_;
  kern::Tid cached_tid_ = 0;
  TaskState* cached_state_ = nullptr;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::string>> symbols_;
};

}  // namespace lzp::profile
