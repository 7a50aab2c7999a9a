// Syscall handler implementations (the dispatch table).
#include <algorithm>
#include <set>
#include <cstring>

#include "bpf/seccomp_filter.hpp"
#include "kernel/machine.hpp"

namespace lzp::kern {
namespace {

constexpr std::uint64_t kMapFixed = 0x10;
constexpr std::uint64_t kOCreat = 0x40;

// Bounded user-memory C-string read (kernel strncpy_from_user).
Result<std::string> read_cstring(Task& task, std::uint64_t addr) {
  std::string out;
  for (std::size_t i = 0; i < 4096; ++i) {
    std::uint8_t byte = 0;
    if (auto fault = task.mem->read(addr + i, {&byte, 1})) {
      return make_error(StatusCode::kOutOfRange, fault->to_string());
    }
    if (byte == 0) return out;
    out.push_back(static_cast<char>(byte));
  }
  return make_error(StatusCode::kOutOfRange, "cstring too long");
}

bool write_user_u64(Task& task, std::uint64_t addr, std::uint64_t value) {
  std::uint8_t bytes[8];
  std::memcpy(bytes, &value, 8);
  return !task.mem->write(addr, bytes).has_value();
}

bool read_user_u64(Task& task, std::uint64_t addr, std::uint64_t* value) {
  std::uint8_t bytes[8];
  if (task.mem->read(addr, bytes).has_value()) return false;
  std::memcpy(value, bytes, 8);
  return true;
}

// [addr, addr + length) lies below the user VA top (Linux's TASK_SIZE).
bool user_range_ok(std::uint64_t addr, std::uint64_t length) {
  return length <= Machine::kStackTop && addr <= Machine::kStackTop - length;
}

// Resolves a path argument against the VFS (flat namespace; dirfd ignored).
Result<std::string> path_arg(Task& task, std::uint64_t addr) {
  return read_cstring(task, addr);
}

}  // namespace

std::uint64_t Machine::sys_dispatch_table(Task& task, std::uint64_t nr,
                                          const std::array<std::uint64_t, 6>& args) {
  Process& process = *task.process;
  auto fd_entry = [&](int fd) -> FdEntry* {
    auto it = process.fds.find(fd);
    return it == process.fds.end() ? nullptr : &it->second;
  };

  switch (nr) {
    // --- identity ------------------------------------------------------------
    case kSysGetpid:
      charge(task, costs_.dispatch_base);
      return process.pid;
    case kSysGettid:
      charge(task, costs_.dispatch_base);
      return task.tid;

    // --- exit ----------------------------------------------------------------
    case kSysExit:
      charge(task, costs_.dispatch_base);
      exit_task(task, static_cast<int>(args[0]));
      return 0;
    case kSysExitGroup:
      charge(task, costs_.dispatch_base);
      exit_process(task, static_cast<int>(args[0]));
      return 0;

    // --- memory ----------------------------------------------------------------
    case kSysMmap: {
      const std::uint64_t addr = args[0];
      const std::uint64_t length = args[1];
      const auto prot = static_cast<std::uint8_t>(args[2] & 0x7);
      const std::uint64_t flags = args[3];
      const bool fixed = (flags & kMapFixed) != 0;
      if (length == 0) return errno_result(kEINVAL);
      // Beyond the user VA top, as Linux's TASK_SIZE check: no per-page work,
      // and page_ceil cannot wrap a huge length to zero pages.
      if (!user_range_ok(fixed ? addr : 0, length)) {
        return errno_result(kENOMEM);
      }
      if (addr < mmap_min_addr) {
        // vm.mmap_min_addr: low mappings need privilege. Fixed low requests
        // fail (this is what breaks zpoline on default-configured systems);
        // hints are silently raised.
        if (fixed) return errno_result(kEPERM);
      }
      const std::uint64_t hint = fixed ? addr : std::max(addr, mmap_min_addr);
      auto mapped = task.mem->map(hint, length, prot, fixed);
      if (!mapped) return errno_result(fixed ? kEEXIST : kENOMEM);
      const std::uint64_t pages = mem::page_ceil(length) / mem::kPageSize;
      charge(task, costs_.dispatch_base + pages * costs_.mmap_page);
      return mapped.value();
    }
    case kSysMprotect: {
      if (!user_range_ok(args[0], args[1])) return errno_result(kENOMEM);
      const std::uint64_t pages = mem::page_ceil(args[1]) / mem::kPageSize;
      charge(task, costs_.dispatch_base + pages * costs_.mmap_page);
      auto status = task.mem->protect(args[0], args[1],
                                      static_cast<std::uint8_t>(args[2] & 0x7));
      return status.is_ok() ? 0 : errno_result(kENOMEM);
    }
    case kSysMunmap: {
      if (!user_range_ok(args[0], args[1])) return errno_result(kEINVAL);
      const std::uint64_t pages = mem::page_ceil(args[1]) / mem::kPageSize;
      charge(task, costs_.dispatch_base + pages * costs_.mmap_page);
      auto status = task.mem->unmap(args[0], args[1]);
      return status.is_ok() ? 0 : errno_result(kEINVAL);
    }
    case kSysBrk:
      charge(task, costs_.dispatch_base);
      return 0;  // modeled as a no-op; programs use mmap

    // --- files -----------------------------------------------------------------
    case kSysOpen:
    case kSysOpenat: {
      charge(task, costs_.dispatch_base);
      const std::uint64_t path_ptr = nr == kSysOpen ? args[0] : args[1];
      const std::uint64_t flags = nr == kSysOpen ? args[1] : args[2];
      auto path = path_arg(task, path_ptr);
      if (!path) return errno_result(kEFAULT);
      if (!vfs_.exists(path.value())) {
        if ((flags & kOCreat) == 0) return errno_result(kENOENT);
        (void)vfs_.put_file(path.value(), {});
      }
      FdEntry entry;
      entry.kind = FdEntry::Kind::kFile;
      entry.path = path.value();
      return static_cast<std::uint64_t>(process.install_fd(std::move(entry)));
    }
    case kSysClose: {
      charge(task, costs_.dispatch_base);
      FdEntry* entry = fd_entry(static_cast<int>(args[0]));
      if (entry == nullptr) return errno_result(kEBADF);
      if (entry->kind == FdEntry::Kind::kConn) {
        (void)net_.close_conn(entry->net_id);
        process.net_to_fd.erase(entry->net_id);
      }
      process.fds.erase(static_cast<int>(args[0]));
      return 0;
    }
    case kSysRead: {
      FdEntry* entry = fd_entry(static_cast<int>(args[0]));
      if (entry == nullptr) return errno_result(kEBADF);
      if (entry->kind == FdEntry::Kind::kConn) {
        return sys_dispatch_table(task, kSysRecvfrom, args);
      }
      if (entry->kind != FdEntry::Kind::kFile) return errno_result(kEINVAL);
      std::vector<std::uint8_t> data;
      auto n = vfs_.read(entry->path, entry->offset, args[2], &data);
      if (!n) return errno_result(kENOENT);
      charge(task, costs_.dispatch_base + costs_.copy_cost(n.value()));
      if (n.value() > 0 && task.mem->write(args[1], data).has_value()) {
        return errno_result(kEFAULT);
      }
      entry->offset += n.value();
      return n.value();
    }
    case kSysWrite: {
      const int fd = static_cast<int>(args[0]);
      const std::uint64_t len = args[2];
      if (fd == 1 || fd == 2) {
        std::vector<std::uint8_t> data(len);
        if (len > 0 && task.mem->read(args[1], data).has_value()) {
          return errno_result(kEFAULT);
        }
        charge(task, costs_.dispatch_base + costs_.copy_cost(len));
        process.console.append(data.begin(), data.end());
        return len;
      }
      FdEntry* entry = fd_entry(fd);
      if (entry == nullptr) return errno_result(kEBADF);
      if (entry->kind == FdEntry::Kind::kConn) {
        charge(task, costs_.dispatch_base + costs_.copy_cost(len) +
                         costs_.net_per_request / 4);
        auto sent = net_.send(entry->net_id, len);
        return sent ? sent.value() : errno_result(kEINVAL);
      }
      if (entry->kind != FdEntry::Kind::kFile) return errno_result(kEINVAL);
      std::vector<std::uint8_t> data(len);
      if (len > 0 && task.mem->read(args[1], data).has_value()) {
        return errno_result(kEFAULT);
      }
      charge(task, costs_.dispatch_base + costs_.copy_cost(len));
      auto n = vfs_.write(entry->path, entry->offset, data);
      if (!n) return errno_result(kEACCES);
      entry->offset += n.value();
      return n.value();
    }
    case kSysLseek: {
      charge(task, costs_.dispatch_base);
      FdEntry* entry = fd_entry(static_cast<int>(args[0]));
      if (entry == nullptr || entry->kind != FdEntry::Kind::kFile) {
        return errno_result(kEBADF);
      }
      auto meta = vfs_.stat(entry->path);
      if (!meta) return errno_result(kENOENT);
      const auto offset = static_cast<std::int64_t>(args[1]);
      switch (args[2]) {
        case 0: entry->offset = args[1]; break;                      // SEEK_SET
        case 1: entry->offset += static_cast<std::uint64_t>(offset); break;
        case 2: entry->offset = meta.value().size + static_cast<std::uint64_t>(offset); break;
        default: return errno_result(kEINVAL);
      }
      return entry->offset;
    }
    case kSysStat:
    case kSysFstat: {
      charge(task, costs_.dispatch_base);
      FileStat meta;
      if (nr == kSysStat) {
        auto path = path_arg(task, args[0]);
        if (!path) return errno_result(kEFAULT);
        auto st = vfs_.stat(path.value());
        if (!st) return errno_result(kENOENT);
        meta = st.value();
      } else {
        FdEntry* entry = fd_entry(static_cast<int>(args[0]));
        if (entry == nullptr) return errno_result(kEBADF);
        if (entry->kind == FdEntry::Kind::kFile) {
          auto st = vfs_.stat(entry->path);
          if (!st) return errno_result(kENOENT);
          meta = st.value();
        }
      }
      // Layout: size u64, mode u32, is_dir u32.
      if (!write_user_u64(task, args[1], meta.size)) return errno_result(kEFAULT);
      const std::uint64_t word =
          meta.mode | (static_cast<std::uint64_t>(meta.is_dir) << 32);
      if (!write_user_u64(task, args[1] + 8, word)) return errno_result(kEFAULT);
      return 0;
    }
    case kSysGetdents64: {
      FdEntry* entry = fd_entry(static_cast<int>(args[0]));
      if (entry == nullptr) return errno_result(kEBADF);
      const auto names = vfs_.list(entry->path);
      std::vector<std::uint8_t> blob;
      for (const auto& name : names) {
        blob.insert(blob.end(), name.begin(), name.end());
        blob.push_back(0);
      }
      if (blob.size() > args[2]) blob.resize(args[2]);
      charge(task, costs_.dispatch_base + costs_.copy_cost(blob.size()));
      if (!blob.empty() && task.mem->write(args[1], blob).has_value()) {
        return errno_result(kEFAULT);
      }
      return blob.size();
    }
    case kSysMkdir: {
      charge(task, costs_.dispatch_base);
      auto path = path_arg(task, args[0]);
      if (!path) return errno_result(kEFAULT);
      return vfs_.mkdir(path.value()).is_ok() ? 0 : errno_result(kEEXIST);
    }
    case kSysUnlink: {
      charge(task, costs_.dispatch_base);
      auto path = path_arg(task, args[0]);
      if (!path) return errno_result(kEFAULT);
      return vfs_.unlink(path.value()).is_ok() ? 0 : errno_result(kENOENT);
    }
    case kSysRename: {
      charge(task, costs_.dispatch_base);
      auto from = path_arg(task, args[0]);
      auto to = path_arg(task, args[1]);
      if (!from || !to) return errno_result(kEFAULT);
      return vfs_.rename(from.value(), to.value()).is_ok() ? 0
                                                            : errno_result(kENOENT);
    }
    case kSysChmod: {
      charge(task, costs_.dispatch_base);
      auto path = path_arg(task, args[0]);
      if (!path) return errno_result(kEFAULT);
      return vfs_.chmod(path.value(), static_cast<std::uint32_t>(args[1])).is_ok()
                 ? 0
                 : errno_result(kENOENT);
    }
    case kSysUtimensat:
      charge(task, costs_.dispatch_base);
      return 0;
    case kSysGetcwd: {
      charge(task, costs_.dispatch_base);
      static constexpr char kCwd[] = "/";
      if (args[1] < sizeof(kCwd)) return errno_result(kEINVAL);
      std::uint8_t bytes[sizeof(kCwd)];
      std::memcpy(bytes, kCwd, sizeof(kCwd));
      if (task.mem->write(args[0], bytes).has_value()) return errno_result(kEFAULT);
      return sizeof(kCwd);
    }
    case kSysDup: {
      charge(task, costs_.dispatch_base);
      FdEntry* entry = fd_entry(static_cast<int>(args[0]));
      if (entry == nullptr) return errno_result(kEBADF);
      return static_cast<std::uint64_t>(process.install_fd(*entry));
    }
    case kSysFcntl:
    case kSysIoctl:
      charge(task, costs_.dispatch_base);
      return 0;

    // --- networking ---------------------------------------------------------
    case kSysSocket: {
      charge(task, costs_.dispatch_base);
      FdEntry entry;
      entry.kind = FdEntry::Kind::kSpecial;
      return static_cast<std::uint64_t>(process.install_fd(std::move(entry)));
    }
    case kSysBind:
    case kSysListen:
    case kSysSetsockopt:
    case kSysShutdown:
      charge(task, costs_.dispatch_base);
      return 0;
    case kSysEpollCreate:
    case kSysEpollCreate1: {
      charge(task, costs_.dispatch_base);
      FdEntry entry;
      entry.kind = FdEntry::Kind::kEpoll;
      return static_cast<std::uint64_t>(process.install_fd(std::move(entry)));
    }
    case kSysEpollCtl: {
      charge(task, costs_.dispatch_base);
      FdEntry* epoll = fd_entry(static_cast<int>(args[0]));
      FdEntry* watched = fd_entry(static_cast<int>(args[2]));
      if (epoll == nullptr || epoll->kind != FdEntry::Kind::kEpoll ||
          watched == nullptr) {
        return errno_result(kEBADF);
      }
      if (watched->kind == FdEntry::Kind::kListener) {
        epoll->epoll_watch = watched->net_id;
      }
      return 0;
    }
    case kSysEpollWait: {
      charge(task, costs_.dispatch_base);
      notify_nondet(task, kSysEpollWait, NondetSource::kNet);
      FdEntry* epoll = fd_entry(static_cast<int>(args[0]));
      if (epoll == nullptr || epoll->kind != FdEntry::Kind::kEpoll) {
        return errno_result(kEBADF);
      }
      // Simplified contract (documented in DESIGN.md): returns ready fd + 1,
      // 1 when nothing is actionable for THIS process right now (other
      // workers own the live connections — retry), or 0 once the attached
      // client workload has fully completed.
      std::set<int> owned;
      for (const auto& [net_id, fd] : process.net_to_fd) owned.insert(net_id);
      const Net::Event event = net_.poll_for(epoll->epoll_watch, owned);
      switch (event.kind) {
        case Net::EventKind::kReadable: {
          auto it = process.net_to_fd.find(event.conn_id);
          if (it == process.net_to_fd.end()) return 1;
          return static_cast<std::uint64_t>(it->second) + 1;
        }
        case Net::EventKind::kAcceptable: {
          // Report the listener fd.
          for (const auto& [fd, entry] : process.fds) {
            if (entry.kind == FdEntry::Kind::kListener &&
                entry.net_id == epoll->epoll_watch) {
              return static_cast<std::uint64_t>(fd) + 1;
            }
          }
          return 1;
        }
        case Net::EventKind::kNone:
          return 1;  // live connections elsewhere: poll again
        case Net::EventKind::kFinished:
          return 0;
      }
      return 0;
    }
    case kSysAccept:
    case kSysAccept4: {
      charge(task, costs_.dispatch_base);
      notify_nondet(task, nr, NondetSource::kNet);
      FdEntry* listener = fd_entry(static_cast<int>(args[0]));
      if (listener == nullptr || listener->kind != FdEntry::Kind::kListener) {
        return errno_result(kEBADF);
      }
      auto conn = net_.accept(listener->net_id);
      if (!conn) return errno_result(kEAGAIN);
      FdEntry entry;
      entry.kind = FdEntry::Kind::kConn;
      entry.net_id = conn.value();
      const int fd = process.install_fd(std::move(entry));
      process.net_to_fd[conn.value()] = fd;
      return static_cast<std::uint64_t>(fd);
    }
    case kSysRecvfrom: {
      notify_nondet(task, kSysRecvfrom, NondetSource::kNet);
      FdEntry* entry = fd_entry(static_cast<int>(args[0]));
      if (entry == nullptr || entry->kind != FdEntry::Kind::kConn) {
        return errno_result(kEBADF);
      }
      auto n = net_.recv(entry->net_id, args[2]);
      if (!n) return errno_result(kEAGAIN);
      charge(task, costs_.dispatch_base + costs_.copy_cost(n.value()) +
                       (n.value() > 0 ? costs_.net_per_request : 0));
      if (n.value() > 0) {
        std::vector<std::uint8_t> data(n.value(), 'G');
        if (task.mem->write(args[1], data).has_value()) {
          return errno_result(kEFAULT);
        }
      }
      return n.value();
    }
    case kSysSendfile: {
      FdEntry* out = fd_entry(static_cast<int>(args[0]));
      FdEntry* in = fd_entry(static_cast<int>(args[1]));
      if (out == nullptr || in == nullptr ||
          out->kind != FdEntry::Kind::kConn ||
          in->kind != FdEntry::Kind::kFile) {
        return errno_result(kEBADF);
      }
      auto meta = vfs_.stat(in->path);
      if (!meta) return errno_result(kENOENT);
      const std::uint64_t remaining =
          in->offset >= meta.value().size ? 0 : meta.value().size - in->offset;
      const std::uint64_t n = std::min(args[3], remaining);
      charge(task, costs_.dispatch_base + costs_.copy_cost(n));
      (void)net_.send(out->net_id, n);
      in->offset += n;
      return n;
    }
    case kSysWritev: {
      FdEntry* entry = fd_entry(static_cast<int>(args[0]));
      const std::uint64_t iov_ptr = args[1];
      const std::uint64_t iovcnt = args[2];
      std::uint64_t total = 0;
      std::string gathered;
      for (std::uint64_t i = 0; i < iovcnt && i < 64; ++i) {
        std::uint64_t base = 0;
        std::uint64_t len = 0;
        if (!read_user_u64(task, iov_ptr + i * 16, &base) ||
            !read_user_u64(task, iov_ptr + i * 16 + 8, &len)) {
          return errno_result(kEFAULT);
        }
        total += len;
        if (entry == nullptr && len > 0 && len <= 4096) {
          std::vector<std::uint8_t> data(len);
          if (!task.mem->read(base, data).has_value()) {
            gathered.append(data.begin(), data.end());
          }
        }
      }
      charge(task, costs_.dispatch_base + costs_.copy_cost(total));
      const int fd = static_cast<int>(args[0]);
      if (fd == 1 || fd == 2) {
        process.console += gathered;
        return total;
      }
      if (entry != nullptr && entry->kind == FdEntry::Kind::kConn) {
        auto sent = net_.send(entry->net_id, total);
        return sent ? sent.value() : errno_result(kEINVAL);
      }
      return total;
    }
    case kSysPipe2: {
      charge(task, costs_.dispatch_base);
      FdEntry reader;
      reader.kind = FdEntry::Kind::kSpecial;
      FdEntry writer;
      writer.kind = FdEntry::Kind::kSpecial;
      const int rfd = process.install_fd(std::move(reader));
      const int wfd = process.install_fd(std::move(writer));
      if (!write_user_u64(task, args[0],
                          static_cast<std::uint64_t>(rfd) |
                              (static_cast<std::uint64_t>(wfd) << 32))) {
        return errno_result(kEFAULT);
      }
      return 0;
    }

    // --- signals -----------------------------------------------------------
    case kSysRtSigaction: {
      charge(task, costs_.sigaction);
      const int sig = static_cast<int>(args[0]);
      if (sig <= 0 || sig >= kNumSignals || sig == kSigkill) {
        return errno_result(kEINVAL);
      }
      // struct: handler u64, flags u64, mask u64.
      if (args[2] != 0) {  // oldact
        const SigAction& old = process.sigactions[sig];
        if (!write_user_u64(task, args[2], old.handler) ||
            !write_user_u64(task, args[2] + 8, old.flags) ||
            !write_user_u64(task, args[2] + 16, old.mask)) {
          return errno_result(kEFAULT);
        }
      }
      if (args[1] != 0) {  // act
        SigAction action;
        if (!read_user_u64(task, args[1], &action.handler) ||
            !read_user_u64(task, args[1] + 8, &action.flags) ||
            !read_user_u64(task, args[1] + 16, &action.mask)) {
          return errno_result(kEFAULT);
        }
        process.sigactions[sig] = action;
      }
      return 0;
    }
    case kSysRtSigprocmask: {
      charge(task, costs_.dispatch_base);
      if (args[2] != 0 && !write_user_u64(task, args[2], task.sigmask)) {
        return errno_result(kEFAULT);
      }
      if (args[1] != 0) {
        std::uint64_t set = 0;
        if (!read_user_u64(task, args[1], &set)) return errno_result(kEFAULT);
        switch (args[0]) {
          case 0: task.sigmask |= set; break;   // SIG_BLOCK
          case 1: task.sigmask &= ~set; break;  // SIG_UNBLOCK
          case 2: task.sigmask = set; break;    // SIG_SETMASK
          default: return errno_result(kEINVAL);
        }
      }
      return 0;
    }
    case kSysSigaltstack: {
      charge(task, costs_.dispatch_base);
      if (args[1] != 0) {
        if (!write_user_u64(task, args[1], task.altstack.base) ||
            !write_user_u64(task, args[1] + 8, task.altstack.size)) {
          return errno_result(kEFAULT);
        }
      }
      if (args[0] != 0) {
        AltStack stack;
        if (!read_user_u64(task, args[0], &stack.base) ||
            !read_user_u64(task, args[0] + 8, &stack.size)) {
          return errno_result(kEFAULT);
        }
        task.altstack = stack;
      }
      return 0;
    }
    case kSysRtSigreturn:
      return do_rt_sigreturn(task);
    case kSysKill:
    case kSysTgkill: {
      charge(task, costs_.dispatch_base);
      const std::uint64_t target_id = nr == kSysKill ? args[0] : args[1];
      const int sig = static_cast<int>(nr == kSysKill ? args[1] : args[2]);
      for (auto& [tid, other] : tasks_) {
        const bool match = nr == kSysKill ? other->process->pid == target_id
                                          : other->tid == target_id;
        if (match && other->runnable()) {
          SigInfo info;
          info.signo = sig;
          if (smp_active_ && other->cpu != task.cpu) {
            // Cross-CPU send: a deterministic IPI through the barrier mailbox
            // rather than a racy push into a task another lane is executing.
            smp_post_remote_signal(task, other->tid, info);
          } else {
            other->pending_signals.push_back(info);
          }
          return 0;
        }
      }
      return errno_result(kENOENT);
    }

    // --- process creation -----------------------------------------------------
    case kSysFork:
    case kSysVfork:
      return do_clone(task, 0, 0);
    case kSysClone:
      return do_clone(task, args[0], args[1]);
    case kSysExecve:
      return do_execve(task, args[0]);

    // --- interception control ---------------------------------------------------
    case kSysPrctl: {
      charge(task, costs_.dispatch_base);
      if (args[0] == kPrSetSyscallUserDispatch) {
        if (args[1] == kPrSysDispatchOff) {
          task.sud = SudState{};
          return 0;
        }
        if (args[1] == kPrSysDispatchOn) {
          std::uint8_t probe = 0;
          if (!task.mem->read_force(args[4], {&probe, 1}).is_ok()) {
            return errno_result(kEFAULT);
          }
          task.sud.enabled = true;
          task.sud.allow_start = args[2];
          task.sud.allow_len = args[3];
          task.sud.selector_addr = args[4];
          return 0;
        }
        return errno_result(kEINVAL);
      }
      return errno_result(kEINVAL);
    }
    case kSysArchPrctl: {
      charge(task, costs_.dispatch_base);
      if (args[0] == kArchSetGs) {
        task.ctx.gs_base = args[1];
        return 0;
      }
      if (args[0] == kArchGetGs) {
        return write_user_u64(task, args[1], task.ctx.gs_base)
                   ? 0
                   : errno_result(kEFAULT);
      }
      return errno_result(kEINVAL);
    }
    case kSysSeccomp: {
      charge(task, costs_.dispatch_base);
      if (args[0] != kSeccompSetModeFilter) return errno_result(kEINVAL);
      // struct sock_fprog (sim layout): len u64, insn pointer u64.
      std::uint64_t len = 0;
      std::uint64_t insns_ptr = 0;
      if (!read_user_u64(task, args[2], &len) ||
          !read_user_u64(task, args[2] + 8, &insns_ptr)) {
        return errno_result(kEFAULT);
      }
      if (len == 0 || len > bpf::kMaxProgramLength) return errno_result(kEINVAL);
      std::vector<bpf::Insn> program(len);
      for (std::uint64_t i = 0; i < len; ++i) {
        std::uint64_t word = 0;
        if (!read_user_u64(task, insns_ptr + i * 8, &word)) {
          return errno_result(kEFAULT);
        }
        program[i].code = static_cast<std::uint16_t>(word & 0xFFFF);
        program[i].jt = static_cast<std::uint8_t>((word >> 16) & 0xFF);
        program[i].jf = static_cast<std::uint8_t>((word >> 24) & 0xFF);
        program[i].k = static_cast<std::uint32_t>(word >> 32);
      }
      if (!bpf::validate(program, bpf::SeccompData::kSize).is_ok()) {
        return errno_result(kEINVAL);
      }
      task.seccomp.push_back(
          std::make_shared<const std::vector<bpf::Insn>>(std::move(program)));
      return 0;
    }
    case kSysPtrace:
      charge(task, costs_.dispatch_base);
      return errno_result(kENOSYS);  // tracers are modeled host-side

    // --- misc ---------------------------------------------------------------
    case kSysGetrandom: {
      const std::uint64_t len = std::min<std::uint64_t>(args[1], 4096);
      charge(task, costs_.dispatch_base + costs_.copy_cost(len));
      notify_nondet(task, kSysGetrandom, NondetSource::kRng);
      std::vector<std::uint8_t> data(len);
      for (std::size_t i = 0; i < data.size(); i += 8) {
        // SMP lanes draw from per-task streams: the machine-global stream
        // would both race and make results depend on cross-CPU interleaving.
        const std::uint64_t word =
            smp_active_ ? task.smp_rng.next() : rng_.next();
        for (std::size_t j = 0; j < 8 && i + j < data.size(); ++j) {
          data[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
        }
      }
      if (len > 0 && task.mem->write(args[0], data).has_value()) {
        return errno_result(kEFAULT);
      }
      return len;
    }
    case kSysSetTidAddress:
      charge(task, costs_.dispatch_base);
      task.clear_child_tid = args[0];
      return task.tid;
    case kSysSetRobustList:
      charge(task, costs_.dispatch_base);
      task.robust_list_head = args[0];
      return 0;
    case kSysClockGettime: {
      charge(task, costs_.dispatch_base);
      notify_nondet(task, kSysClockGettime, NondetSource::kTime);
      const std::uint64_t ns = task.cycles;  // 1 cycle == 1 ns at "1 GHz"
      if (!write_user_u64(task, args[1], ns / 1'000'000'000ULL) ||
          !write_user_u64(task, args[1] + 8, ns % 1'000'000'000ULL)) {
        return errno_result(kEFAULT);
      }
      return 0;
    }
    case kSysNanosleep:
      charge(task, costs_.dispatch_base + 1000);
      return 0;
    case kSysSchedYield:
    case kSysFutex:
      charge(task, costs_.dispatch_base);
      return 0;

    default:
      charge(task, costs_.dispatch_nosys);
      return errno_result(kENOSYS);
  }
}

std::uint64_t Machine::do_clone(Task& parent, std::uint64_t flags,
                                std::uint64_t stack) {
  charge(parent, costs_.fork_base);

  auto child = std::make_unique<Task>();
  child->tid = allocate_tid(parent.cpu);
  child->ctx = parent.ctx;  // rip already past the syscall instruction
  child->ctx.set_syscall_result(0);
  // SMP: children are born on the parent's CPU (the barrier may rebalance
  // them later) with their own tid-derived entropy stream.
  child->cpu = parent.cpu;
  child->smp_rng = Xoshiro256{smp_seed_ ^ (0x9E3779B97F4A7C15ULL *
                                           static_cast<std::uint64_t>(child->tid))};

  if ((flags & kCloneVm) != 0) {
    child->mem = parent.mem;
  } else {
    child->mem = parent.mem->clone();
    charge(parent, parent.mem->mapped_page_count() * costs_.mmap_page / 4);
  }
  if ((flags & kCloneThread) != 0) {
    child->process = parent.process;
  } else {
    child->process = parent.process->fork_copy(allocate_pid(parent.cpu));
  }
  if (stack != 0) child->ctx.set_rsp(stack);

  // SUD is per-task and NOT inherited (paper §IV-B): the child starts with
  // dispatch off, and an exhaustive interposer must re-enable it.
  child->sud = SudState{};
  // seccomp filters are inherited (and can never be removed).
  child->seccomp = parent.seccomp;
  // Signal mask is inherited; pending signals and frames are not.
  child->sigmask = parent.sigmask;
  child->altstack = parent.altstack;

  const Tid child_tid = child->tid;
  adopt_task(std::move(child));
  if (auto* sink = trace_sink()) {
    sink->on_task_event(parent, TraceSink::TaskEvent::kClone, child_tid);
  }
  return child_tid;
}

std::uint64_t Machine::do_execve(Task& task, std::uint64_t path_ptr) {
  auto name = read_cstring(task, path_ptr);
  if (!name) return errno_result(kEFAULT);
  const isa::Program* program = find_program(name.value());
  if (program == nullptr) return errno_result(kENOENT);
  charge(task, costs_.execve_base);

  // Fresh image: new address space, reset registers and xstate. The decode
  // cache is flushed explicitly; its asid check would catch the swap anyway,
  // but an eager flush keeps no stale entries alive across the exec.
  task.dcache.flush();
  task.mem = std::make_shared<mem::AddressSpace>();
  (void)task.mem->map(program->base, program->image.size(),
                      mem::kProtRead | mem::kProtExec, /*fixed=*/true);
  (void)task.mem->write_force(program->base, program->image);
  (void)task.mem->map(kDataRegionBase, kDataRegionSize,
                      mem::kProtRead | mem::kProtWrite, /*fixed=*/true);
  const std::uint64_t stack_size = std::max<std::uint64_t>(program->stack_size, 4096);
  (void)task.mem->map(kStackTop - stack_size, stack_size,
                      mem::kProtRead | mem::kProtWrite, /*fixed=*/true);

  task.ctx = cpu::CpuContext{};
  task.ctx.rip = program->entry;
  task.ctx.set_rsp(kStackTop - 64);

  // Handlers revert to default; SUD is cleared (paper §IV-B); seccomp
  // filters deliberately survive (paper §IV-A on seccomp's inflexibility).
  task.process->sigactions.fill(SigAction{});
  task.process->program_name = program->name;
  task.signal_frames.clear();
  task.pending_signals.clear();
  task.sigmask = 0;
  task.altstack = AltStack{};
  task.sud = SudState{};

  if (auto* sink = trace_sink()) {
    sink->on_task_event(task, TraceSink::TaskEvent::kExecve, 0);
  }
  if (preload_) preload_(*this, task, *program);
  return 0;
}

}  // namespace lzp::kern
