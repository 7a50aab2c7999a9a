// A small persistent host-thread pool for the SMP substrate.
//
// The simulated machine's parallelism need is narrow: run N independent
// per-CPU execution lanes between deterministic barriers, many times per
// run. A pool of persistent workers amortizes thread creation across the
// thousands of barrier rounds a run performs; the caller participates as
// one of the lanes so a pool of size N uses N-1 spawned threads and an
// N-CPU machine on an N-core host leaves no core idle.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lzp {

class ThreadPool {
 public:
  // `lanes` is the parallelism run_indexed provides (>= 1). The pool spawns
  // lanes-1 workers; a pool of one lane spawns nothing and run_indexed
  // degenerates to a plain loop on the caller's thread.
  explicit ThreadPool(unsigned lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned lanes() const noexcept { return lanes_; }

  // Invokes fn(0), fn(1), ..., fn(n-1), distributing the indices over the
  // workers plus the calling thread, and returns once every call finished.
  // Successive run_indexed calls are sequentially consistent with each
  // other: everything a lane wrote is visible to the caller at return and
  // to every lane of the next run (the barrier the SMP scheduler needs).
  // A call that throws ends run_indexed with that exception once no other
  // call is running; indices not yet started may be skipped. Not
  // reentrant: one run_indexed at a time.
  void run_indexed(unsigned n, const std::function<void(unsigned)>& fn);

  // Number of host hardware threads (>= 1).
  [[nodiscard]] static unsigned host_cores() noexcept;

 private:
  void worker_loop();
  // Pulls indices from the current job until none remain. Returns true if
  // this call completed the job's last index.
  bool drain_current_job();

  const unsigned lanes_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  const std::function<void(unsigned)>* job_ = nullptr;  // null: no job posted
  unsigned job_size_ = 0;
  unsigned next_index_ = 0;
  unsigned pending_ = 0;       // indices handed out but not yet finished
  std::uint64_t job_seq_ = 0;  // bumped per job so workers never re-run one
  std::exception_ptr error_;   // the job's first exception
  bool shutdown_ = false;
};

}  // namespace lzp
