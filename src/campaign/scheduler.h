// Work-stealing task scheduler — the shared execution substrate of the
// campaign layer and of every nested data-parallel loop in the library.
//
// The paper's evaluation is a *sweep*: every circuit x TPG kind x T
// value.  One reseed::Pipeline run already fault-partitions its PPSFP
// inner loops across threads; a campaign adds a second level of
// parallelism (independent runs over shared immutable CompiledCircuit
// snapshots).  Composing both on raw std::thread pools would either
// oversubscribe (pool per loop) or serialize (run-level pool starves
// loop-level work).  The Scheduler solves this with one process-wide
// worker pool that serves both granularities:
//
//  * submit()/TaskGroup — coarse tasks (one per campaign run).  Each
//    worker owns a deque; owners push/pop LIFO at the back, idle
//    workers steal FIFO from the front of a victim — the classic
//    work-stealing discipline, so nested submissions stay hot on their
//    producer while load still balances.
//  * parallel_for() — fine-grained loops (fault partitions inside one
//    PPSFP campaign).  The caller opens a *loop job* (an atomic chunk
//    counter); idle workers join opportunistically and the caller
//    always participates, so a loop issued from a fully loaded pool
//    degrades to the caller running it serially instead of deadlocking.
//    Each participant receives a dense per-loop slot index
//    (< loop_slots()) for per-worker scratch buffers.
//
// Determinism: the scheduler never influences *what* is computed, only
// *where*.  Loop bodies write to index-addressed slots and task results
// land at spec-assigned positions, so campaign results are bit-identical
// at 1 and N workers (pinned by tests/campaign/campaign_test.cpp).
//
// util::parallel_for{_workers} delegates here, upgrading the previous
// per-call thread spawn to pooled workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fbist::campaign {

class Scheduler {
 public:
  /// Starts `workers` threads; 0 means default_workers().
  explicit Scheduler(std::size_t workers = 0);
  /// Drains queued tasks, then joins the workers.  Open loop jobs are
  /// completed by their callers before this may run.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// FBIST_JOBS environment override, else hardware concurrency (>= 1).
  static std::size_t default_workers();

  /// The process-wide default pool.
  static Scheduler& global();

  /// The scheduler owning the calling thread, or null off-pool.  Loops
  /// resolve their pool through this (see util::parallel_for), so work
  /// nested inside a private pool's tasks stays on that pool.
  static Scheduler* current();

  std::size_t num_workers() const { return num_workers_; }

  /// Upper bound (exclusive) of the slot index parallel_for hands its
  /// participants: every worker plus one external caller.
  std::size_t loop_slots() const { return num_workers_ + 1; }

  /// Stops and restarts the pool with a new worker count (0 = default).
  /// Must not race in-flight tasks or loops; callers quiesce first.
  void set_workers(std::size_t workers);

  /// Enqueues a task.  Worker threads push onto their own deque (LIFO
  /// hot path); external threads distribute round-robin.
  void submit(std::function<void()> task);

  /// Calls fn(i, slot) for every i in [0, n) with slot < loop_slots().
  /// Blocks until the loop is complete; the caller participates, idle
  /// workers join.  Serial for small n — same cutoff as the old
  /// util::parallel_for, so existing grain expectations hold.
  ///
  /// Exceptions: a body may throw, on the caller or on a worker.  The
  /// first exception is kept and no further chunks are handed out; the
  /// other participants finish the chunk they hold (an exception there
  /// is dropped), and parallel_for rethrows the kept one on the caller
  /// once every participant has left the loop.  Indices after the
  /// failure may never run; the pool stays usable.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when the calling thread is one of this scheduler's workers.
  bool on_worker_thread() const;

 private:
  struct LoopJob;

  void worker_main(std::size_t me);
  void participate(LoopJob& job);
  /// Runs one queued task if any is available (used by TaskGroup::wait
  /// when called from a worker, to keep draining instead of deadlocking).
  bool help_one();
  void start_threads(std::size_t workers);
  void stop_threads();

  friend class TaskGroup;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers sleep here
  std::condition_variable done_cv_;  // parallel_for callers wait here
  std::vector<std::deque<std::function<void()>>> queues_;  // one per worker
  std::vector<LoopJob*> jobs_;       // open loop jobs accepting joiners
  std::vector<std::thread> threads_;
  std::size_t num_workers_ = 0;
  std::size_t rr_ = 0;               // round-robin cursor for external submits
  bool stop_ = false;
};

/// Counts a set of tasks submitted to one Scheduler and waits for all of
/// them — including tasks submitted *by* tasks in the group (the
/// campaign runner fans out per-run tasks from per-circuit preparation
/// tasks).  The first exception escaping a task is captured and
/// rethrown from wait().  wait() on a worker thread of the same
/// scheduler helps execute queued tasks, so nested groups cannot
/// deadlock a small pool.
class TaskGroup {
 public:
  explicit TaskGroup(Scheduler& sched) : sched_(sched) {}
  ~TaskGroup() { wait_nothrow(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `task` and adds it to the group.
  void run(std::function<void()> task);

  /// Blocks until every task in the group has finished; rethrows the
  /// first captured task exception.
  void wait();

 private:
  void wait_nothrow();

  Scheduler& sched_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace fbist::campaign
