// Work-stealing thread pool for independent simulation replicas.
//
// Granularity model: tasks are *whole replicas* — seconds of simulated
// protocol time each — so the pool optimizes for correctness and clean
// shutdown, not nanosecond dispatch. Each worker owns a deque seeded
// round-robin at Run() time; a worker pops its own deque from the front
// and, when empty, steals from the back of a victim's deque (classic
// work-stealing shape, with a per-deque mutex instead of a lock-free
// Chase-Lev deque — at replica granularity the lock is immeasurable and
// the implementation is trivially ThreadSanitizer-clean).
//
// Determinism: the pool never reorders *results* — tasks get their index
// and write into caller-owned per-index slots; the ordered reduction
// lives in sweep.h. A pool with thread_count() == 1 executes Run()
// inline on the calling thread in index order with no worker threads at
// all: the exact legacy serial path (--jobs 1).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cbt::exec {

class Pool {
 public:
  /// `threads` = worker count; 0 picks HardwareConcurrency(). A pool of
  /// 1 spawns no threads and runs tasks inline on the caller.
  explicit Pool(int threads = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int thread_count() const { return thread_count_; }

  /// Runs task(i) for every i in [0, task_count) and blocks until all
  /// complete. Tasks must be independent (they run concurrently on a
  /// pool of > 1 thread). If any task throws, the first exception (in
  /// completion order) is rethrown here after every task has finished.
  /// Not reentrant: one Run() at a time per pool.
  void Run(std::size_t task_count, const std::function<void(std::size_t)>& task);

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareConcurrency();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::size_t> tasks;
  };

  void WorkerMain(std::size_t self);
  /// Pops own queue front, else steals a victim's back. False when every
  /// queue is empty.
  bool NextTask(std::size_t self, std::size_t& index);
  void RunTask(const std::function<void(std::size_t)>& task,
               std::size_t index);

  const int thread_count_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Epoch coordination: Run() loads the queues, bumps epoch_, and waits
  // for every worker to report back idle with the queues drained.
  std::mutex coord_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  int busy_workers_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::exception_ptr first_error_;
};

}  // namespace cbt::exec
