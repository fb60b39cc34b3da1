#ifndef PDX_BASE_THREAD_POOL_H_
#define PDX_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pdx {

// A small work-stealing thread pool for data-parallel fan-out (the chase's
// per-dependency × delta-partition trigger enumeration). The pool owns
// `threads - 1` worker threads; the thread calling ParallelFor is the
// remaining participant, so a pool of size 1 spawns nothing and runs
// everything inline.
//
// ParallelFor splits the index space [0, n) into one contiguous shard per
// participant; each participant drains its own shard front-to-back through
// an atomic cursor and, once empty, steals indexes from the shard with the
// most work left. Claiming is a fetch_add on the shard cursor, so an index
// is executed exactly once no matter who claims it.
//
// Synchronization contract: every effect of fn(i) happens-before
// ParallelFor returns (workers check out under the pool mutex), so callers
// may read per-index result buffers without further locking. One job runs
// at a time; ParallelFor must not be re-entered from inside fn.
class ThreadPool {
 public:
  // Spawns max(0, threads - 1) workers.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism: worker threads plus the calling thread.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(i) for every i in [0, n), fanned across the participants, and
  // returns when all invocations have finished. fn must not throw and must
  // not call back into this pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // --- One-off task queue (the pdxd server's worker pool) --------------
  //
  // Submit enqueues `task` for execution on some worker thread and returns
  // immediately; distinct tasks run concurrently (one per idle worker).
  // Returns false — without running or retaining the task — once Shutdown
  // has begun. On a pool with no workers (threads <= 1) the task runs
  // inline in Submit. A pool serving long-running tasks should not be
  // given ParallelFor jobs at the same time: workers busy in a task join
  // a posted job only after their task returns.
  bool Submit(std::function<void()> task);

  // Graceful drain: stops accepting new tasks, waits until every queued
  // and in-flight task has finished, then joins the worker threads.
  // Idempotent; the destructor calls it. Must not be invoked from inside
  // a task (a task waiting for its own pool to drain deadlocks) or while
  // a ParallelFor is in flight.
  void Shutdown();

  // std::thread::hardware_concurrency with a floor of 1.
  static int HardwareConcurrency();

 private:
  struct Shard {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    std::unique_ptr<Shard[]> shards;
    size_t shard_count = 0;
  };

  void WorkerLoop(size_t worker_index);
  static void RunShards(Job* job, size_t start_shard);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a job or a task
  std::condition_variable done_cv_;  // caller waits for workers_active_ == 0
  std::condition_variable drain_cv_; // Shutdown waits for tasks to finish
  Job* job_ = nullptr;               // guarded by mu_
  uint64_t job_seq_ = 0;             // guarded by mu_
  size_t workers_active_ = 0;        // guarded by mu_
  bool stop_ = false;                // guarded by mu_
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  size_t tasks_active_ = 0;          // guarded by mu_
  bool draining_ = false;            // guarded by mu_: Shutdown has begun
  std::vector<std::thread> workers_;
};

}  // namespace pdx

#endif  // PDX_BASE_THREAD_POOL_H_
