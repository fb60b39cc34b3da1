#include "base/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace pdx {

namespace {

// Pool health metrics. Steal counts depend on scheduling, so they are
// deliberately *not* part of the thread-invariance contract the chase
// metrics carry — they exist to explain load imbalance, not results.
struct PoolMetrics {
  obs::Counter jobs, tasks, steals;
  obs::Gauge inflight;
  static PoolMetrics& Get() {
    static PoolMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* metrics = new PoolMetrics();
      metrics->jobs = reg.GetCounter("pdx_pool_jobs_total");
      metrics->tasks = reg.GetCounter("pdx_pool_tasks_total");
      metrics->steals = reg.GetCounter("pdx_pool_steals_total");
      metrics->inflight = reg.GetGauge("pdx_pool_inflight_jobs");
      return metrics;
    }();
    return *m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  int workers = std::max(0, threads - 1);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

int ThreadPool::HardwareConcurrency() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

void ThreadPool::RunShards(Job* job, size_t start_shard) {
  size_t count = job->shard_count;
  const std::function<void(size_t)>& fn = *job->fn;
  // Own shard first, then sweep the others (work-stealing): claiming via
  // fetch_add makes overshoot past `end` harmless — the claim is simply
  // discarded. The index space is fixed up front, so one sweep suffices.
  int64_t steals = 0;
  for (size_t off = 0; off < count; ++off) {
    Shard& shard = job->shards[(start_shard + off) % count];
    while (true) {
      size_t i = shard.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shard.end) break;
      if (off != 0) ++steals;
      fn(i);
    }
  }
  if (steals != 0) PoolMetrics::Get().steals.Inc(steals);
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || job_seq_ != seen || !tasks_.empty();
    });
    // Tasks first: a job posted while every worker sits in a long task
    // would otherwise never see a task-draining worker again (jobs are
    // also drained by their posting caller, tasks only by workers).
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      ++tasks_active_;
      lock.unlock();
      task();
      task = nullptr;  // release captures before touching pool state
      lock.lock();
      --tasks_active_;
      if (draining_ && tasks_.empty() && tasks_active_ == 0) {
        drain_cv_.notify_all();
      }
      continue;
    }
    if (job_seq_ != seen) {
      seen = job_seq_;
      Job* job = job_;
      lock.unlock();
      RunShards(job, (1 + worker_index) % job->shard_count);
      lock.lock();
      --workers_active_;
      done_cv_.notify_one();
      continue;
    }
    if (stop_) return;
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stop_) return false;
    if (!workers_.empty()) {
      tasks_.push_back(std::move(task));
      PoolMetrics::Get().tasks.Inc();
      work_cv_.notify_one();
      return true;
    }
  }
  // No workers: the calling thread is the pool's only participant.
  PoolMetrics::Get().tasks.Inc();
  task();
  return true;
}

void ThreadPool::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!draining_) {
    draining_ = true;
    drain_cv_.wait(lock, [&] { return tasks_.empty() && tasks_active_ == 0; });
    stop_ = true;
    work_cv_.notify_all();
  }
  if (workers_.empty()) return;  // idempotent second call, or no workers
  std::vector<std::thread> workers = std::move(workers_);
  workers_.clear();
  lock.unlock();
  for (std::thread& t : workers) t.join();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  PoolMetrics& metrics = PoolMetrics::Get();
  metrics.jobs.Inc();
  metrics.tasks.Inc(static_cast<int64_t>(n));
  size_t participants =
      std::min<size_t>(static_cast<size_t>(size()), n);
  if (participants <= 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  metrics.inflight.Add(1);
  Job job;
  job.fn = &fn;
  job.shard_count = participants;
  job.shards = std::make_unique<Shard[]>(participants);
  for (size_t s = 0; s < participants; ++s) {
    job.shards[s].next.store(s * n / participants,
                             std::memory_order_relaxed);
    job.shards[s].end = (s + 1) * n / participants;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++job_seq_;
    // Every worker participates in every job (latecomers steal or find
    // the shards drained); the join below waits for each to check out.
    workers_active_ = workers_.size();
  }
  work_cv_.notify_all();
  RunShards(&job, 0);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_active_ == 0; });
    job_ = nullptr;
  }
  metrics.inflight.Add(-1);
}

}  // namespace pdx
