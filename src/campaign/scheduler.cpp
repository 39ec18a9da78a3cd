#include "campaign/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fbist::campaign {

namespace {

/// Below this trip count a loop runs serially on the caller — matches
/// the historical util::parallel_for cutoff the test grain relies on.
constexpr std::size_t kSerialCutoff = 32;

/// Worker identity of the current thread (set for the lifetime of
/// worker_main).  A thread belongs to at most one scheduler.
thread_local Scheduler* tls_scheduler = nullptr;
thread_local std::size_t tls_worker_index = 0;

}  // namespace

/// One open parallel_for: a chunked atomic iteration counter plus the
/// bookkeeping the caller needs to wait for every joiner to drain.
/// Lives on the caller's stack; `active` and list membership are
/// guarded by the scheduler mutex so the caller can safely destroy the
/// job once active reaches zero.
struct Scheduler::LoopJob {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> slots{0};
  std::size_t active = 0;  // caller + joined workers, guarded by mu_
  std::exception_ptr error;  // first body exception, guarded by mu_

  bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= n;
  }
};

Scheduler::Scheduler(std::size_t workers) {
  start_threads(workers == 0 ? default_workers() : workers);
}

Scheduler::~Scheduler() { stop_threads(); }

std::size_t Scheduler::default_workers() {
  if (const char* env = std::getenv("FBIST_JOBS")) {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

Scheduler& Scheduler::global() {
  static Scheduler instance;
  return instance;
}

Scheduler* Scheduler::current() { return tls_scheduler; }

bool Scheduler::on_worker_thread() const { return tls_scheduler == this; }

void Scheduler::start_threads(std::size_t workers) {
  num_workers_ = std::max<std::size_t>(1, workers);
#if FBIST_OBSERVABILITY
  obs::Registry::global()
      .gauge("scheduler.workers")
      .set(static_cast<std::int64_t>(num_workers_));
#endif
  stop_ = false;
  queues_.assign(num_workers_, {});
  threads_.reserve(num_workers_);
  for (std::size_t w = 0; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

void Scheduler::stop_threads() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  queues_.clear();
}

void Scheduler::set_workers(std::size_t workers) {
  stop_threads();
  start_threads(workers == 0 ? default_workers() : workers);
}

void Scheduler::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t target =
        tls_scheduler == this ? tls_worker_index : rr_++ % queues_.size();
    queues_[target].push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool Scheduler::help_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& q : queues_) {
      if (!q.empty()) {
        task = std::move(q.front());
        q.pop_front();
        break;
      }
    }
  }
  if (!task) return false;
  task();
  return true;
}

void Scheduler::worker_main(std::size_t me) {
  tls_scheduler = this;
  tls_worker_index = me;
#if FBIST_OBSERVABILITY
  // One trace track per worker; named before any span can land on it.
  obs::Tracer::global().set_thread_name("worker-" + std::to_string(me));
#endif
  OBS_COUNTER(c_tasks, "scheduler.tasks");
  OBS_COUNTER(c_steal_attempts, "scheduler.steal_attempts");
  OBS_COUNTER(c_steals, "scheduler.steals");
  OBS_COUNTER(c_park_ns, "scheduler.park_ns");
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // 1. Own deque, newest first (LIFO keeps nested submissions hot)...
    std::function<void()> task;
    if (!queues_[me].empty()) {
      task = std::move(queues_[me].back());
      queues_[me].pop_back();
    } else {
      // ...else steal the oldest task of the first busy victim.
      OBS_COUNT(c_steal_attempts, 1);
      for (std::size_t k = 1; k < queues_.size(); ++k) {
        auto& victim = queues_[(me + k) % queues_.size()];
        if (!victim.empty()) {
          task = std::move(victim.front());
          victim.pop_front();
          OBS_COUNT(c_steals, 1);
          OBS_INSTANT("steal");
          break;
        }
      }
    }
    if (task) {
      lk.unlock();
      {
        OBS_SPAN("task");
        task();
      }
      OBS_COUNT(c_tasks, 1);
      task = nullptr;
      lk.lock();
      continue;
    }

    // 2. No tasks: join an open loop job that still has chunks.
    LoopJob* job = nullptr;
    for (LoopJob* j : jobs_) {
      if (!j->exhausted()) {
        job = j;
        break;
      }
    }
    if (job != nullptr) {
      ++job->active;
      lk.unlock();
      {
        OBS_SPAN("loop_join");
        participate(*job);
      }
      lk.lock();
      if (--job->active == 0) done_cv_.notify_all();
      continue;
    }

    if (stop_) break;
#if FBIST_OBSERVABILITY
    const std::uint64_t park0 = obs::Clock::now_ns();
    work_cv_.wait(lk);
    OBS_COUNT(c_park_ns, obs::Clock::now_ns() - park0);
#else
    work_cv_.wait(lk);
#endif
  }
  tls_scheduler = nullptr;
}

void Scheduler::participate(LoopJob& job) {
  const std::size_t slot = job.slots.fetch_add(1, std::memory_order_relaxed);
  // Claims are bounded by one per worker plus the caller, so the slot
  // always fits loop_slots(); the guard keeps a logic error from
  // scribbling past caller scratch arrays.
  if (slot >= loop_slots()) return;
  for (;;) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) break;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.body)(i, slot);
    } catch (...) {
      // Keep the first exception for the caller and hand out no more
      // chunks; the other participants finish the chunk they hold.
      std::lock_guard<std::mutex> lk(mu_);
      if (!job.error) job.error = std::current_exception();
      job.next.store(job.n, std::memory_order_relaxed);
      return;
    }
  }
}

void Scheduler::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  OBS_COUNTER(c_loops, "scheduler.loops");
  OBS_COUNTER(c_serial, "scheduler.loops_serial_cutoff");
  OBS_COUNTER(c_degraded, "scheduler.loops_degraded");
  OBS_COUNT(c_loops, 1);
  if (n < kSerialCutoff) {
    OBS_COUNT(c_serial, 1);
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  LoopJob job;
  job.n = n;
  job.body = &fn;
  // Chunks small enough to balance wildly uneven per-item cost (fault
  // cones differ by orders of magnitude), big enough to amortize the
  // atomic increment.
  job.chunk = std::max<std::size_t>(1, n / (loop_slots() * 8));
  {
    std::lock_guard<std::mutex> lk(mu_);
    job.active = 1;  // the caller
    jobs_.push_back(&job);
  }
  work_cv_.notify_all();
  participate(job);
  {
    std::unique_lock<std::mutex> lk(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    --job.active;
    // Workers that already joined may still be finishing their chunks;
    // the job must outlive them.
    done_cv_.wait(lk, [&job] { return job.active == 0; });
  }
  // Exactly one slot claimed means no worker ever joined: the loop
  // degraded to its caller running it serially (the saturated-pool
  // fallback the scheduler promises instead of deadlock).
  if (job.slots.load(std::memory_order_relaxed) == 1) {
    OBS_COUNT(c_degraded, 1);
  }
  // Every participant has left the job, so error is settled.
  if (job.error) std::rethrow_exception(job.error);
}

void TaskGroup::run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++in_flight_;
  }
  sched_.submit([this, t = std::move(task)] {
    std::exception_ptr err;
    try {
      t();
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (err && !first_error_) first_error_ = err;
    if (--in_flight_ == 0) cv_.notify_all();
  });
}

void TaskGroup::wait_nothrow() {
  const bool helper = sched_.on_worker_thread();
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (in_flight_ == 0) return;
    if (helper) {
      // A worker waiting on its own pool keeps executing queued tasks;
      // parking it could deadlock a pool whose every worker waits.
      lk.unlock();
      const bool ran = sched_.help_one();
      lk.lock();
      if (ran) continue;
      // Nothing queued but tasks still running elsewhere: yield briefly
      // rather than busy-spinning on the queue locks.
      cv_.wait_for(lk, std::chrono::milliseconds(1),
                   [this] { return in_flight_ == 0; });
    } else {
      cv_.wait(lk, [this] { return in_flight_ == 0; });
    }
  }
}

void TaskGroup::wait() {
  wait_nothrow();
  std::lock_guard<std::mutex> lk(mu_);
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace fbist::campaign
