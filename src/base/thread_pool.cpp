#include "base/thread_pool.hpp"

#include <utility>

namespace lzp {

ThreadPool::ThreadPool(unsigned lanes) : lanes_(lanes == 0 ? 1 : lanes) {
  workers_.reserve(lanes_ - 1);
  for (unsigned i = 0; i + 1 < lanes_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

unsigned ThreadPool::host_cores() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::run_indexed(unsigned n, const std::function<void(unsigned)>& fn) {
  if (n == 0) return;
  if (lanes_ == 1 || n == 1) {
    for (unsigned i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_size_ = n;
    next_index_ = 0;
    pending_ = 0;
    ++job_seq_;
  }
  work_ready_.notify_all();
  // The caller is a lane too: drain indices alongside the workers, then wait
  // for the stragglers.
  drain_current_job();
  std::unique_lock<std::mutex> lock(mu_);
  job_done_.wait(lock, [this] { return job_ == nullptr && pending_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

bool ThreadPool::drain_current_job() {
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    unsigned index = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job_ == nullptr || next_index_ >= job_size_) return false;
      job = job_;
      index = next_index_++;
      ++pending_;
    }
    std::exception_ptr error;
    try {
      (*job)(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      if (error) {
        if (!error_) error_ = std::move(error);
        next_index_ = job_size_;  // skip the indices not yet started
      }
      if (next_index_ >= job_size_ && pending_ == 0) {
        job_ = nullptr;
        job_done_.notify_all();
        return true;
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_seq = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this, seen_seq] {
        return shutdown_ || (job_ != nullptr && job_seq_ != seen_seq);
      });
      if (shutdown_) return;
      seen_seq = job_seq_;
    }
    drain_current_job();
  }
}

}  // namespace lzp
