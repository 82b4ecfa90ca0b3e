#include "util/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace ssjoin {

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ChunkRange ChunkOf(size_t total, size_t chunks, size_t index) {
  SSJOIN_CHECK(chunks > 0 && index < chunks,
               "ChunkOf: index {} out of {} chunks", index, chunks);
  size_t base = total / chunks;
  size_t extra = total % chunks;
  size_t begin = index * base + std::min(index, extra);
  size_t size = base + (index < extra ? 1 : 0);
  return {begin, begin + size};
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::RecordException(std::exception_ptr err) {
  util::MutexLock lock(mutex_);
  if (!first_error_) first_error_ = std::move(err);
}

void ThreadPool::BindMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    forkjoins_ = nullptr;
    return;
  }
  // Dispatch counts depend on the pool size (a 1-thread pool runs
  // everything inline), so this is runtime-stability data by definition.
  forkjoins_ =
      &metrics->counter("threadpool.forkjoins", obs::Stability::kRuntime);
  metrics->gauge("threadpool.size", obs::Stability::kRuntime)
      .Set(static_cast<double>(size()));
}

void ThreadPool::RunOnAll(const std::function<void(size_t)>& job) {
  if (threads_.empty()) {
    job(0);
    return;
  }
  if (forkjoins_ != nullptr) forkjoins_->Add(1);
  {
    util::MutexLock lock(mutex_);
    SSJOIN_CHECK(job_ == nullptr, "ThreadPool::RunOnAll is not reentrant");
    first_error_ = nullptr;
    job_ = &job;
    remaining_ = threads_.size();
    ++generation_;
  }
  work_ready_.NotifyAll();
  try {
    job(threads_.size());  // The caller is the last worker.
  } catch (...) {
    RecordException(std::current_exception());
  }
  std::exception_ptr err;
  {
    util::MutexLock lock(mutex_);
    while (remaining_ != 0) work_done_.Wait(lock);
    job_ = nullptr;
    err = std::move(first_error_);
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::WorkerLoop(size_t index) {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(size_t)>* job;
    {
      util::MutexLock lock(mutex_);
      while (!shutdown_ && generation_ == seen) work_ready_.Wait(lock);
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    // An exception must not escape on a worker thread (std::terminate);
    // park it for the calling thread to rethrow after the join.
    try {
      (*job)(index);
    } catch (...) {
      RecordException(std::current_exception());
    }
    {
      util::MutexLock lock(mutex_);
      if (--remaining_ == 0) work_done_.NotifyAll();
    }
  }
}

void ParallelFor(ThreadPool& pool, size_t total,
                 const std::function<void(size_t, size_t, size_t)>& fn) {
  size_t chunks = pool.size();
  pool.RunOnAll([&](size_t chunk) {
    ChunkRange range = ChunkOf(total, chunks, chunk);
    fn(range.begin, range.end, chunk);
  });
}

void ParallelFor(ThreadPool& pool, size_t total,
                 const std::function<void(size_t, size_t, size_t)>& fn,
                 const std::function<bool()>& should_stop, size_t block) {
  if (!should_stop) {
    ParallelFor(pool, total, fn);
    return;
  }
  SSJOIN_CHECK(block > 0, "ParallelFor: sub-block size must be positive");
  size_t chunks = pool.size();
  auto run_chunk = [&](size_t chunk) {
    ChunkRange range = ChunkOf(total, chunks, chunk);
    for (size_t begin = range.begin; begin < range.end; begin += block) {
      if (should_stop()) return;
      fn(begin, std::min(begin + block, range.end), chunk);
    }
  };
  pool.RunOnAll(run_chunk);
}

}  // namespace ssjoin
