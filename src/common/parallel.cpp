#include "common/parallel.hpp"

#include <algorithm>

#include "common/timer.hpp"

namespace udb {

ThreadPool::ThreadPool(unsigned num_threads)
    : nthreads_(std::max(1u, num_threads)), accum_(nthreads_) {
  workers_.reserve(nthreads_ - 1);
  try {
    for (unsigned tid = 1; tid < nthreads_; ++tid)
      workers_.emplace_back([this, tid] { worker_loop(tid); });
  } catch (...) {
    // Partially-spawned pool: joinable threads in workers_ would terminate
    // the process on vector destruction; shut them down, then propagate.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned tid) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr err;
    WallTimer busy;
    try {
      (*job)(tid);
    } catch (...) {
      err = std::current_exception();
    }
    accum_[tid].busy_seconds += busy.seconds();
    ++accum_[tid].jobs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run(const std::function<void(unsigned)>& fn) {
  if (nthreads_ == 1) {
    WallTimer busy;
    try {
      fn(0);
    } catch (...) {
      accum_[0].busy_seconds += busy.seconds();
      ++accum_[0].jobs;
      throw;
    }
    accum_[0].busy_seconds += busy.seconds();
    ++accum_[0].jobs;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    pending_ = nthreads_ - 1;
    first_error_ = nullptr;
    ++generation_;
  }
  job_cv_.notify_all();

  std::exception_ptr caller_err;
  WallTimer busy;
  try {
    fn(0);
  } catch (...) {
    caller_err = std::current_exception();
  }
  accum_[0].busy_seconds += busy.seconds();
  ++accum_[0].jobs;

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  std::exception_ptr err = caller_err ? caller_err : first_error_;
  first_error_ = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out(nthreads_);
  for (unsigned tid = 0; tid < nthreads_; ++tid)
    out[tid] = {accum_[tid].busy_seconds, accum_[tid].jobs};
  return out;
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t,
                                           unsigned)>& body,
                  RunGuard* guard) {
  if (n == 0) return;
  const unsigned nt = pool ? pool->num_threads() : 1;
  if (nt == 1) {
    if (guard) guard->check_throw("parallel_for");
    body(0, n, 0);
    return;
  }
  // Ceil-divided blocks; trailing tids may get an empty range.
  const std::size_t block = (n + nt - 1) / nt;
  pool->run([&](unsigned tid) {
    const std::size_t begin = std::min(n, tid * block);
    const std::size_t end = std::min(n, begin + block);
    if (begin < end) {
      if (guard) guard->check_throw("parallel_for");
      body(begin, end, tid);
    }
  });
}

void parallel_for_chunked(ThreadPool* pool, std::size_t n, std::size_t chunk,
                          const std::function<void(std::size_t, std::size_t,
                                                   unsigned)>& body,
                          RunGuard* guard) {
  if (n == 0) return;
  const unsigned nt = pool ? pool->num_threads() : 1;
  chunk = std::max<std::size_t>(1, chunk);
  if (nt == 1) {
    if (!guard) {
      body(0, n, 0);
      return;
    }
    // Guarded inline path keeps the chunk loop so the one-chunk cancellation
    // latency bound holds without a pool too.
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      guard->check_throw("parallel_for_chunked");
      body(begin, std::min(n, begin + chunk), 0);
    }
    return;
  }
  std::atomic<std::size_t> cursor{0};
  pool->run([&](unsigned tid) {
    while (true) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      if (guard) guard->check_throw("parallel_for_chunked");
      body(begin, std::min(n, begin + chunk), tid);
    }
  });
}

}  // namespace udb
