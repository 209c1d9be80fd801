// Persistent work-stealing scheduler for the sharded DeepQueueNet engine.
//
// The engine's tasks are device batches (a contiguous slice of one shard's
// device list) in an IRSA round's device pass, and single egress queues in
// its queue pass. Each worker owns a deque seeded with its share; it drains
// its own deque from the front (seed order) and, when empty, steals roughly
// half of a victim's remaining tasks from the back — so a straggler is
// rebalanced *within* a round instead of serializing the barrier on its
// slowest worker.
//
// Execution is round-based: run_round() seeds every worker's deque, wakes
// the (persistent) workers, drains worker 0's deque on the calling thread
// and returns once every task has run. The caller is worker 0, so an
// n-worker pool starts n - 1 threads (a one-worker pool starts none).
// Threads park between rounds, so one pool amortizes thread creation across
// all IRSA iterations and all runs of an engine.
//
// Locking (checked by -Wthread-safety; see docs/CONCURRENCY.md): every
// steal_deque has its own leaf mutex; a worker NEVER holds two deque locks
// at once (stolen tasks are moved out of the victim under its lock, then
// pushed into the thief's deque under the thief's lock). round_mutex_ and
// error_mutex_ are independent leaf locks; neither is ever held while a
// task executes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace dqn::util {

// One worker's task deque. The owner pushes and pops at the front (FIFO in
// seed order); thieves take ceil(size/2) items from the back — the work the
// owner would reach last. A plain mutex per deque: the engine's tasks are
// device batches and egress queues of tens of microseconds and more, so one
// lock op per task is noise, and the implementation is trivially
// TSan/-Wthread-safety-clean.
class steal_deque {
 public:
  // Owner: append a task at the back (seed order is preserved for pops).
  void push_back(std::size_t task) {
    const lock_guard lock{mutex_};
    tasks_.push_back(task);
  }

  // Owner: take the frontmost task. Returns false when the deque is empty.
  [[nodiscard]] bool pop_front(std::size_t* task) {
    const lock_guard lock{mutex_};
    if (tasks_.empty()) return false;
    *task = tasks_.front();
    tasks_.pop_front();
    return true;
  }

  // Thief: remove ceil(size/2) tasks from the back and return them in deque
  // order. Empty deque -> empty vector; a single remaining task IS stolen
  // (the victim may be busy inside another batch for milliseconds).
  [[nodiscard]] std::vector<std::size_t> steal_half() {
    const lock_guard lock{mutex_};
    const std::size_t take = (tasks_.size() + 1) / 2;
    std::vector<std::size_t> stolen;
    if (take == 0) return stolen;
    stolen.reserve(take);
    const std::size_t keep = tasks_.size() - take;
    for (std::size_t i = keep; i < tasks_.size(); ++i)
      stolen.push_back(tasks_[i]);
    tasks_.resize(keep);
    return stolen;
  }

  [[nodiscard]] std::size_t size() const {
    const lock_guard lock{mutex_};
    return tasks_.size();
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  mutable mutex mutex_;
  std::deque<std::size_t> tasks_ DQN_GUARDED_BY(mutex_);
};

class work_stealing_pool {
 public:
  using task_fn = std::function<void(std::size_t task, std::size_t worker)>;

  // `workers` (>= 1) workers: the thread that calls run_round is worker 0,
  // and workers 1..workers-1 are persistent threads.
  explicit work_stealing_pool(std::size_t workers);

  work_stealing_pool(const work_stealing_pool&) = delete;
  work_stealing_pool& operator=(const work_stealing_pool&) = delete;

  ~work_stealing_pool();

  [[nodiscard]] std::size_t size() const noexcept { return deques_.size(); }

  // Execute one round: seeds[w] is the ordered task list placed on worker
  // w's deque (seeds.size() must equal size()). fn(task, worker) is invoked
  // exactly once per seeded task, on whichever worker ran it; worker 0 is
  // the calling thread. Returns once every task has finished; the exception
  // of the lowest-numbered task that threw is rethrown here, so a failed
  // round names the same culprit at every worker count (the remaining tasks
  // still run to completion first, so the round barrier holds even on
  // failure). Returns the number of steal operations the round needed — 0
  // when every worker drained only its own deque.
  std::uint64_t run_round(const std::vector<std::vector<std::size_t>>& seeds,
                          const task_fn& fn);

  // Tasks seeded but not yet finished in the current round (0 between
  // rounds).
  [[nodiscard]] std::size_t remaining() const noexcept {
    return remaining_.load(std::memory_order_acquire);
  }

  // Steal operations since construction (across all rounds).
  [[nodiscard]] std::uint64_t total_steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(std::size_t worker);
  void drain_round(std::size_t worker);
  void execute(std::size_t task, std::size_t worker);

  std::vector<std::unique_ptr<steal_deque>> deques_;
  std::vector<std::thread> threads_;

  // Round handoff: fn_ and remaining_ are stored before any task becomes
  // visible in a deque, so a worker that pops a task always observes the
  // round's function through the deque mutex's happens-before edge (workers
  // re-load fn_ per task — a laggard from the previous round that picks up
  // a fresh task runs it with the fresh function).
  std::atomic<const task_fn*> fn_{nullptr};
  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::uint64_t> steals_{0};

  mutex round_mutex_;
  condition_variable round_cv_;
  std::uint64_t round_ DQN_GUARDED_BY(round_mutex_) = 0;
  bool stopping_ DQN_GUARDED_BY(round_mutex_) = false;

  mutex error_mutex_;
  // The exception of the lowest-numbered task that threw this round.
  std::exception_ptr first_error_ DQN_GUARDED_BY(error_mutex_);
  std::size_t first_error_task_ DQN_GUARDED_BY(error_mutex_) = 0;
};

}  // namespace dqn::util
