#include "util/work_stealing_pool.hpp"

#include <stdexcept>

namespace dqn::util {

work_stealing_pool::work_stealing_pool(std::size_t workers) {
  if (workers == 0)
    throw std::invalid_argument{"work_stealing_pool: need at least one worker"};
  deques_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    deques_.push_back(std::make_unique<steal_deque>());
  // Worker 0 is whichever thread calls run_round.
  threads_.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

work_stealing_pool::~work_stealing_pool() {
  {
    const lock_guard lock{round_mutex_};
    stopping_ = true;
  }
  round_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

std::uint64_t work_stealing_pool::run_round(
    const std::vector<std::vector<std::size_t>>& seeds, const task_fn& fn) {
  if (seeds.size() != size())
    throw std::invalid_argument{
        "work_stealing_pool::run_round: one seed list per worker required"};
  std::size_t total = 0;
  for (const auto& seed : seeds) total += seed.size();
  if (total == 0) return 0;
  {
    const lock_guard lock{error_mutex_};
    first_error_ = nullptr;
  }
  const std::uint64_t steals_before =
      steals_.load(std::memory_order_relaxed);
  // Order matters: fn_ and remaining_ must be visible before any task is —
  // a worker that pops a task synchronizes through the deque mutex and
  // therefore sees both stores.
  fn_.store(&fn, std::memory_order_release);
  remaining_.store(total, std::memory_order_release);
  for (std::size_t w = 0; w < seeds.size(); ++w)
    for (const std::size_t task : seeds[w]) deques_[w]->push_back(task);
  if (!threads_.empty()) {
    {
      const lock_guard lock{round_mutex_};
      ++round_;
    }
    round_cv_.notify_all();
  }
  // The caller is worker 0. drain_round returns only once remaining_ reads
  // 0, and each task's decrement follows its error capture, so the round's
  // errors are visible below.
  drain_round(0);
  {
    const lock_guard lock{error_mutex_};
    if (first_error_ != nullptr) {
      const std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }
  return steals_.load(std::memory_order_relaxed) - steals_before;
}

void work_stealing_pool::worker_loop(std::size_t worker) {
  std::uint64_t seen_round = 0;
  for (;;) {
    {
      unique_lock lock{round_mutex_};
      // wait() returns with round_mutex_ re-held, so reading the guarded
      // members in the loop condition is lock-correct.
      while (!stopping_ && round_ == seen_round) round_cv_.wait(lock);
      if (stopping_) return;
      seen_round = round_;
    }
    drain_round(worker);
  }
}

void work_stealing_pool::drain_round(std::size_t worker) {
  steal_deque& own = *deques_[worker];
  std::size_t task = 0;
  for (;;) {
    if (own.pop_front(&task)) {
      execute(task, worker);
      continue;
    }
    if (remaining_.load(std::memory_order_acquire) == 0) return;
    // Own deque empty but the round is live: steal half of a victim's
    // remaining tasks. Victims are scanned round-robin from our right
    // neighbour so contention spreads instead of piling on worker 0.
    bool stole = false;
    for (std::size_t i = 1; i < deques_.size() && !stole; ++i) {
      steal_deque& victim = *deques_[(worker + i) % deques_.size()];
      const std::vector<std::size_t> stolen = victim.steal_half();
      if (stolen.empty()) continue;
      steals_.fetch_add(1, std::memory_order_relaxed);
      // Run the first stolen task now; queue the rest so they stay
      // visible to further thieves. Never holds two deque locks at once.
      for (std::size_t k = 1; k < stolen.size(); ++k)
        own.push_back(stolen[k]);
      execute(stolen[0], worker);
      stole = true;
    }
    if (!stole) {
      // Every deque is dry but some tasks are still executing on other
      // workers; nothing to do until the round ends.
      if (remaining_.load(std::memory_order_acquire) == 0) return;
      std::this_thread::yield();
    }
  }
}

void work_stealing_pool::execute(std::size_t task, std::size_t worker) {
  // Re-load per task: this task was made visible after its round's fn_, so
  // the pointer read here is the matching function even for a worker that
  // lagged across a round boundary.
  const task_fn* const fn = fn_.load(std::memory_order_acquire);
  try {
    (*fn)(task, worker);
  } catch (...) {
    const lock_guard lock{error_mutex_};
    if (first_error_ == nullptr || task < first_error_task_) {
      first_error_ = std::current_exception();
      first_error_task_ = task;
    }
  }
  remaining_.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace dqn::util
