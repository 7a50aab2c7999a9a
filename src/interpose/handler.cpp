#include "interpose/handler.hpp"

#include "base/strings.hpp"
#include "kernel/syscalls.hpp"

namespace lzp::interpose {

Result<std::string> InterposeContext::read_cstring(std::uint64_t addr,
                                                   std::size_t max) const {
  std::string out;
  for (std::size_t i = 0; i < max; ++i) {
    std::uint8_t byte = 0;
    if (auto fault = task_.mem->read(addr + i, {&byte, 1})) {
      return make_error(StatusCode::kOutOfRange, fault->to_string());
    }
    if (byte == 0) return out;
    out.push_back(static_cast<char>(byte));
  }
  return make_error(StatusCode::kOutOfRange, "unterminated string");
}

Result<std::vector<std::uint8_t>> InterposeContext::read_bytes(
    std::uint64_t addr, std::size_t length) const {
  std::vector<std::uint8_t> out(length);
  if (auto fault = task_.mem->read(addr, out)) {
    return make_error(StatusCode::kOutOfRange, fault->to_string());
  }
  return out;
}

Status InterposeContext::write_bytes(std::uint64_t addr,
                                     std::span<const std::uint8_t> data) {
  if (auto fault = task_.mem->write(addr, data)) {
    return make_error(StatusCode::kOutOfRange, fault->to_string());
  }
  return Status::ok();
}

std::string TraceRecord::to_string() const {
  std::string out{kern::syscall_name(nr)};
  out += "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ", ";
    out += hex_u64(args[i]);
  }
  out += ") = ";
  out += hex_u64(result);
  if (!detail.empty()) {
    out += "   ";
    out += detail;
  }
  return out;
}

std::uint64_t TracingHandler::handle(InterposeContext& ctx) {
  TraceRecord record;
  record.nr = ctx.request().nr;
  record.args = ctx.request().args;
  record.tid = ctx.task().tid;

  // strace-style deep decoding of pointer arguments — possible precisely
  // because this handler is fully expressive (Table I).
  auto path_detail = [&](std::uint64_t addr) {
    auto path = ctx.read_cstring(addr);
    if (path.is_ok()) record.detail = "path=\"" + path.value() + "\"";
  };
  switch (record.nr) {
    case kern::kSysOpen:
    case kern::kSysStat:
    case kern::kSysUnlink:
    case kern::kSysChmod:
    case kern::kSysMkdir:
    case kern::kSysExecve:
      path_detail(record.args[0]);
      break;
    case kern::kSysOpenat:
      path_detail(record.args[1]);
      break;
    default:
      break;
  }

  record.result = ctx.pass_through();
  std::lock_guard<std::mutex> lock(mu_);
  trace_.push_back(record);
  return record.result;
}

std::vector<std::uint64_t> TracingHandler::traced_numbers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> numbers;
  numbers.reserve(trace_.size());
  for (const TraceRecord& record : trace_) numbers.push_back(record.nr);
  return numbers;
}

std::uint64_t PathPolicyHandler::handle(InterposeContext& ctx) {
  const auto& req = ctx.request();
  if (req.nr == kern::kSysOpen || req.nr == kern::kSysOpenat) {
    const std::uint64_t path_ptr =
        req.nr == kern::kSysOpen ? req.args[0] : req.args[1];
    auto path = ctx.read_cstring(path_ptr);
    if (path) {
      for (const std::string& prefix : denied_prefixes_) {
        if (starts_with(path.value(), prefix)) {
          ++denials_;
          return kern::errno_result(kern::kEACCES);
        }
      }
    }
  }
  return ctx.pass_through();
}

std::uint64_t XstateClobberingHandler::handle(InterposeContext& ctx) {
  // Scribble over every extended state component, as optimized native
  // handler code may: vectorized copies use xmm/ymm, long double math x87.
  auto& xstate = ctx.task().ctx.xstate;
  for (std::size_t i = 0; i < isa::kNumXmm; ++i) {
    xstate.xmm[i] = {0xDEADBEEFDEADBEEFULL, 0xDEADBEEFDEADBEEFULL};
    xstate.ymm_hi[i] = {0xCAFEBABECAFEBABEULL, 0xCAFEBABECAFEBABEULL};
  }
  xstate.x87_push(0x4141414141414141ULL);
  return inner_->handle(ctx);
}

std::uint64_t FaultInjectionHandler::handle(InterposeContext& ctx) {
  if (ctx.request().nr == config_.target_nr) {
    ++observed_;
    const std::uint64_t period = config_.every_nth == 0 ? 1 : config_.every_nth;
    if (observed_ % period == 0) {
      ++injected_;
      return kern::errno_result(config_.error);
    }
  }
  return ctx.pass_through();
}

std::uint64_t PidCachingHandler::handle(InterposeContext& ctx) {
  if (ctx.request().nr == kern::kSysGetpid) {
    if (cached_pid_ == 0) {
      cached_pid_ = ctx.pass_through();
    } else {
      ++hits_;
    }
    return cached_pid_;
  }
  return ctx.pass_through();
}

}  // namespace lzp::interpose
