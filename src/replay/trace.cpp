#include "replay/trace.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "kernel/syscalls.hpp"

namespace lzp::replay {
namespace {

// --- little-endian stream helpers -------------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const std::vector<std::uint8_t>& v) {
    out_.insert(out_.end(), v.begin(), v.end());
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  // Patches a previously written u32 at `pos` (frame-length backfill).
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& in) : in_(in) {}

  bool u8(std::uint8_t* v) {
    if (pos_ + 1 > in_.size()) return false;
    *v = in_[pos_++];
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (pos_ + 4 > in_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(in_[pos_++]) << (8 * i);
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (pos_ + 8 > in_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<std::uint64_t>(in_[pos_++]) << (8 * i);
    return true;
  }
  bool bytes(std::size_t n, std::vector<std::uint8_t>* v) {
    if (pos_ + n > in_.size()) return false;
    v->assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
              in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }
  bool str(std::string* s) {
    std::uint32_t n = 0;
    if (!u32(&n) || pos_ + n > in_.size()) return false;
    s->assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
              in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }
  bool skip(std::size_t n) {
    if (pos_ + n > in_.size()) return false;
    pos_ += n;
    return true;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ >= in_.size(); }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

void write_event(Writer& w, const Event& event) {
  w.u8(static_cast<std::uint8_t>(event_kind(event)));
  const std::size_t len_pos = w.size();
  w.u32(0);  // frame length, backfilled below
  const std::size_t payload_start = w.size();

  if (const auto* sc = std::get_if<SyscallEvent>(&event)) {
    w.u32(static_cast<std::uint32_t>(sc->tid));
    w.u64(sc->nr);
    for (const auto arg : sc->args) w.u64(arg);
    w.u64(sc->result);
    w.u64(sc->insns_retired);
    w.u64(sc->reg_hash);
    w.u32(static_cast<std::uint32_t>(sc->patches.size()));
    for (const auto& patch : sc->patches) {
      w.u64(patch.addr);
      w.u32(static_cast<std::uint32_t>(patch.bytes.size()));
      w.bytes(patch.bytes);
    }
  } else if (const auto* sd = std::get_if<ScheduleEvent>(&event)) {
    w.u32(static_cast<std::uint32_t>(sd->tid));
    w.u64(sd->steps);
  } else if (const auto* sg = std::get_if<SignalEvent>(&event)) {
    w.u32(static_cast<std::uint32_t>(sg->tid));
    w.u32(static_cast<std::uint32_t>(sg->signo));
    w.u32(static_cast<std::uint32_t>(sg->code));
    w.u64(sg->syscall_nr);
    for (const auto arg : sg->syscall_args) w.u64(arg);
    w.u64(sg->ip_after_syscall);
    w.u64(sg->fault_addr);
    w.u8(sg->external ? 1 : 0);
    w.u64(sg->insns_retired);
    w.u64(sg->machine_insns);
  } else if (const auto* nd = std::get_if<NondetEvent>(&event)) {
    w.u32(static_cast<std::uint32_t>(nd->tid));
    w.u64(nd->nr);
    w.u8(nd->source);
  }

  w.patch_u32(len_pos, static_cast<std::uint32_t>(w.size() - payload_start));
}

bool read_event(Reader& r, EventKind kind, Event* out) {
  switch (kind) {
    case EventKind::kSyscall: {
      SyscallEvent sc;
      std::uint32_t tid = 0;
      std::uint32_t n_patches = 0;
      if (!r.u32(&tid) || !r.u64(&sc.nr)) return false;
      for (auto& arg : sc.args) {
        if (!r.u64(&arg)) return false;
      }
      if (!r.u64(&sc.result) || !r.u64(&sc.insns_retired) ||
          !r.u64(&sc.reg_hash) || !r.u32(&n_patches)) {
        return false;
      }
      sc.tid = static_cast<kern::Tid>(tid);
      // An untrusted count: each patch takes at least its address and
      // length (12 bytes), so a count the rest cannot hold is corrupt.
      constexpr std::size_t kMinPatchBytes = 8 + 4;
      if (n_patches > r.remaining() / kMinPatchBytes) return false;
      sc.patches.reserve(n_patches);
      for (std::uint32_t i = 0; i < n_patches; ++i) {
        MemPatch patch;
        std::uint32_t len = 0;
        if (!r.u64(&patch.addr) || !r.u32(&len) || !r.bytes(len, &patch.bytes)) {
          return false;
        }
        sc.patches.push_back(std::move(patch));
      }
      *out = std::move(sc);
      return true;
    }
    case EventKind::kSchedule: {
      ScheduleEvent sd;
      std::uint32_t tid = 0;
      if (!r.u32(&tid) || !r.u64(&sd.steps)) return false;
      sd.tid = static_cast<kern::Tid>(tid);
      *out = sd;
      return true;
    }
    case EventKind::kSignal: {
      SignalEvent sg;
      std::uint32_t tid = 0;
      std::uint32_t signo = 0;
      std::uint32_t code = 0;
      std::uint8_t external = 0;
      if (!r.u32(&tid) || !r.u32(&signo) || !r.u32(&code) ||
          !r.u64(&sg.syscall_nr)) {
        return false;
      }
      for (auto& arg : sg.syscall_args) {
        if (!r.u64(&arg)) return false;
      }
      if (!r.u64(&sg.ip_after_syscall) || !r.u64(&sg.fault_addr) ||
          !r.u8(&external) || !r.u64(&sg.insns_retired) ||
          !r.u64(&sg.machine_insns)) {
        return false;
      }
      sg.tid = static_cast<kern::Tid>(tid);
      sg.signo = static_cast<std::int32_t>(signo);
      sg.code = static_cast<std::int32_t>(code);
      sg.external = external != 0;
      *out = sg;
      return true;
    }
    case EventKind::kNondet: {
      NondetEvent nd;
      std::uint32_t tid = 0;
      if (!r.u32(&tid) || !r.u64(&nd.nr) || !r.u8(&nd.source)) return false;
      nd.tid = static_cast<kern::Tid>(tid);
      *out = nd;
      return true;
    }
  }
  return false;
}

}  // namespace

EventKind event_kind(const Event& event) noexcept {
  if (std::holds_alternative<SyscallEvent>(event)) return EventKind::kSyscall;
  if (std::holds_alternative<ScheduleEvent>(event)) return EventKind::kSchedule;
  if (std::holds_alternative<SignalEvent>(event)) return EventKind::kSignal;
  return EventKind::kNondet;
}

std::string_view event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSyscall: return "syscall";
    case EventKind::kSchedule: return "sched";
    case EventKind::kSignal: return "signal";
    case EventKind::kNondet: return "nondet";
  }
  return "?";
}

std::size_t Trace::count(EventKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& event : events) {
    if (event_kind(event) == kind) ++n;
  }
  return n;
}

std::vector<std::uint8_t> Trace::serialize() const {
  Writer w;
  w.u32(kTraceMagic);
  w.u32(header.version);
  w.u64(header.rng_seed);
  w.str(header.mechanism);
  w.str(header.workload);
  w.u64(events.size());
  for (const auto& event : events) write_event(w, event);
  return w.take();
}

Result<Trace> Trace::deserialize(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  std::uint32_t magic = 0;
  Trace trace;
  if (!r.u32(&magic) || magic != kTraceMagic) {
    return Status{StatusCode::kInvalidArgument, "trace: bad magic"};
  }
  if (!r.u32(&trace.header.version) || trace.header.version != kTraceVersion) {
    return Status{StatusCode::kInvalidArgument, "trace: unsupported version"};
  }
  std::uint64_t count = 0;
  if (!r.u64(&trace.header.rng_seed) || !r.str(&trace.header.mechanism) ||
      !r.str(&trace.header.workload) || !r.u64(&count)) {
    return Status{StatusCode::kInvalidArgument, "trace: truncated header"};
  }
  // An untrusted count: each event frame takes at least its kind and length
  // (5 bytes), so a count the rest of the file cannot hold is corrupt.
  constexpr std::size_t kMinFrameBytes = 1 + 4;
  if (count > r.remaining() / kMinFrameBytes) {
    return Status{StatusCode::kInvalidArgument,
                  "trace: event count " + std::to_string(count) +
                      " exceeds the file"};
  }
  trace.events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint8_t kind = 0;
    std::uint32_t len = 0;
    if (!r.u8(&kind) || !r.u32(&len)) {
      return Status{StatusCode::kInvalidArgument, "trace: truncated frame"};
    }
    if (kind == 0 || kind > static_cast<std::uint8_t>(EventKind::kNondet)) {
      // Unknown event kind from a newer writer: skip the frame.
      if (!r.skip(len)) {
        return Status{StatusCode::kInvalidArgument, "trace: truncated frame"};
      }
      continue;
    }
    Event event;
    if (!read_event(r, static_cast<EventKind>(kind), &event)) {
      return Status{StatusCode::kInvalidArgument,
                    "trace: malformed event " + std::to_string(i)};
    }
    trace.events.push_back(std::move(event));
  }
  return trace;
}

Status Trace::save(const std::string& path) const {
  const auto bytes = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status{StatusCode::kPermissionDenied, "trace: cannot open " + path};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status{StatusCode::kInternal, "trace: short write to " + path};
  return Status::ok();
}

Result<Trace> Trace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status{StatusCode::kNotFound, "trace: cannot open " + path};
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status{StatusCode::kInternal, "trace: short read from " + path};
  }
  return deserialize(bytes);
}

std::string event_to_string(const Event& event) {
  std::ostringstream out;
  if (const auto* sc = std::get_if<SyscallEvent>(&event)) {
    out << "[tid " << sc->tid << " @" << sc->insns_retired << "] "
        << kern::syscall_name(sc->nr) << "(";
    for (std::size_t i = 0; i < 6; ++i) {
      if (i > 0) out << ", ";
      out << "0x" << std::hex << sc->args[i] << std::dec;
    }
    out << ") = ";
    if (kern::is_error_result(sc->result)) {
      out << "-" << (~sc->result + 1);
    } else {
      out << sc->result;
    }
    if (!sc->patches.empty()) {
      std::size_t total = 0;
      for (const auto& patch : sc->patches) total += patch.bytes.size();
      out << "  <" << sc->patches.size() << " patch(es), " << total << " bytes>";
    }
  } else if (const auto* sd = std::get_if<ScheduleEvent>(&event)) {
    out << "[sched] tid " << sd->tid << " ran " << sd->steps << " steps";
  } else if (const auto* sg = std::get_if<SignalEvent>(&event)) {
    out << "[tid " << sg->tid << " @" << sg->insns_retired << "] --- "
        << kern::signal_name(sg->signo)
        << (sg->external ? " (external)" : "")
        << " machine_insns=" << sg->machine_insns << " ---";
  } else if (const auto* nd = std::get_if<NondetEvent>(&event)) {
    out << "[tid " << nd->tid << "] ~~~ nondet source " << int{nd->source}
        << " via " << kern::syscall_name(nd->nr) << " ~~~";
  }
  return out.str();
}

}  // namespace lzp::replay
