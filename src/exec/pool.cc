#include "exec/pool.h"

#if defined(__linux__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace cbt::exec {

int Pool::HardwareConcurrency() {
  // std::thread::hardware_concurrency may report 0 (unknown) or, in a
  // container, the cgroup/affinity clamp of the current thread — a bench
  // forced to --jobs 1 then records hardware_concurrency=1 on a 64-core
  // host, making its speedup trajectories unreadable. Cross-check the
  // online-CPU count the OS reports and take the larger.
  unsigned n = std::thread::hardware_concurrency();
#if defined(_SC_NPROCESSORS_ONLN)
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (online > 0 && static_cast<unsigned>(online) > n) {
    n = static_cast<unsigned>(online);
  }
#endif
  return n == 0 ? 1 : static_cast<int>(n);
}

Pool::Pool(int threads)
    : thread_count_(threads <= 0 ? HardwareConcurrency() : threads) {
  if (thread_count_ == 1) return;  // inline pool: no threads, no queues
  queues_.reserve(static_cast<std::size_t>(thread_count_));
  for (int i = 0; i < thread_count_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(thread_count_));
  for (int i = 0; i < thread_count_; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerMain(static_cast<std::size_t>(i)); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Pool::Run(std::size_t task_count,
               const std::function<void(std::size_t)>& task) {
  if (thread_count_ == 1 || task_count <= 1) {
    // The exact legacy serial path: caller's thread, index order, no
    // cross-thread synchronization anywhere.
    for (std::size_t i = 0; i < task_count; ++i) task(i);
    return;
  }

  // Seed the worker deques round-robin. Workers are guaranteed idle here
  // (Run waits for busy_workers_ == 0 before returning), and the
  // coord_mu_ release below publishes the deque contents to them.
  for (std::size_t i = 0; i < task_count; ++i) {
    queues_[i % queues_.size()]->tasks.push_back(i);
  }

  std::unique_lock<std::mutex> lock(coord_mu_);
  task_ = &task;
  first_error_ = nullptr;
  busy_workers_ = static_cast<int>(workers_.size());
  ++epoch_;
  wake_cv_.notify_all();
  done_cv_.wait(lock, [this] { return busy_workers_ == 0; });
  task_ = nullptr;
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void Pool::WorkerMain(std::size_t self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(coord_mu_);
      wake_cv_.wait(lock,
                    [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      task = task_;
    }
    std::size_t index;
    while (NextTask(self, index)) RunTask(*task, index);
    {
      std::lock_guard<std::mutex> lock(coord_mu_);
      if (--busy_workers_ == 0) done_cv_.notify_all();
    }
  }
}

bool Pool::NextTask(std::size_t self, std::size_t& index) {
  WorkerQueue& own = *queues_[self];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      index = own.tasks.front();
      own.tasks.pop_front();
      return true;
    }
  }
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      index = victim.tasks.back();  // steal from the cold end
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void Pool::RunTask(const std::function<void(std::size_t)>& task,
                   std::size_t index) {
  try {
    task(index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(coord_mu_);
    if (first_error_ == nullptr) first_error_ = std::current_exception();
  }
}

}  // namespace cbt::exec
