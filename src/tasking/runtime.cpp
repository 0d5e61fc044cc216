#include "tasking/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/error.hpp"
#include "core/format.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "trace/tracer.hpp"

namespace fx::task {

namespace detail {

/// Completion counter of one taskloop invocation (lives on the waiter's
/// stack; all children finish before the waiter returns).  `error` holds
/// the first chunk failure, rethrown at the loop's join.
struct LoopSync {
  std::size_t pending = 0;
  std::exception_ptr error;
};

struct TaskNode {
  std::string label;
  std::function<void()> fn;
  std::function<bool(bool)> poll;  ///< waitable tasks; empty otherwise
  int pending = 0;      ///< unfinished predecessor count
  bool finished = false;
  double t_ready = -1.0;         ///< queue-wait stamp; < 0 once reported
  std::uint64_t submit_seq = 0;  ///< submission order, for blocking escalation
  std::vector<std::shared_ptr<TaskNode>> successors;
  std::shared_ptr<TaskNode> parent;  ///< submitting task (keeps it alive)
  LoopSync* sync = nullptr;          ///< taskloop group, if a loop child
};

namespace {
// The task currently executing on this thread (nullptr on the orchestrator
// and on idle workers); used to parent nested submissions and to restrict
// taskloop helping to own children.
thread_local std::shared_ptr<TaskNode> tl_current;
thread_local int tl_worker_id = -1;
}  // namespace

}  // namespace detail

int current_worker_id() { return detail::tl_worker_id; }

using detail::TaskNode;

namespace {
// Ready-queue depth sampled at every push; the histogram's quantiles show
// how much parallel slack the scheduler typically has.
core::Histogram& queue_depth_metric() {
  static core::Histogram& h =
      core::MetricsRegistry::global().histogram("task.queue_depth");
  return h;
}
}  // namespace

TaskRuntime::TaskRuntime(int nthreads) : nthreads_(nthreads) {
  FX_CHECK(nthreads >= 1, "task runtime needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(nthreads));
  for (int w = 0; w < nthreads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

TaskRuntime::~TaskRuntime() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    cv_ready_.notify_all();
  }
  workers_.clear();  // joins
}

void TaskRuntime::set_observer(TaskObserver observer) {
  std::lock_guard lock(mu_);
  observer_ = std::move(observer);
  want_queue_wait_ = static_cast<bool>(observer_.on_queue_wait);
}

void TaskRuntime::set_tracer(trace::Tracer* tracer, int rank) {
  std::lock_guard lock(mu_);
  tracer_ = tracer;
  trace_rank_ = rank;
}

std::size_t TaskRuntime::tasks_executed() const {
  std::lock_guard lock(mu_);
  return executed_;
}

std::size_t TaskRuntime::edges_created() const {
  std::lock_guard lock(mu_);
  return edges_;
}

void TaskRuntime::link_dependencies_locked(const NodePtr& node,
                                           const std::vector<Dep>& deps) {
  auto add_edge = [&](const NodePtr& pred) {
    if (!pred || pred.get() == node.get() || pred->finished) return;
    pred->successors.push_back(node);
    ++node->pending;
    ++edges_;
  };

  for (const Dep& dep : deps) {
    if (dep.len == 0) continue;
    const char* b = static_cast<const char*>(dep.addr);
    const char* e = b + dep.len;
    const bool writes = dep.mode != DepMode::In;
    bool exact_found = false;

    for (Range& range : ranges_) {
      const bool overlap = b < range.end && range.begin < e;
      if (!overlap) continue;
      // Reader-after-writer always; writers additionally order after the
      // existing readers (WAR) and writer (WAW).
      add_edge(range.last_writer);
      if (writes) {
        for (const NodePtr& r : range.readers) add_edge(r);
      }
      const bool exact = range.begin == b && range.end == e;
      if (writes) {
        // Conservative: the new writer supersedes ordering state of every
        // overlapping range (may over-serialize partial overlaps; never
        // under-serializes).
        range.last_writer = node;
        range.readers.clear();
      } else if (exact) {
        range.readers.push_back(node);
      } else {
        range.readers.push_back(node);  // conservative reader registration
      }
      exact_found = exact_found || exact;
    }
    if (!exact_found) {
      Range fresh{b, e, nullptr, {}};
      if (writes) {
        fresh.last_writer = node;
      } else {
        fresh.readers.push_back(node);
      }
      ranges_.push_back(std::move(fresh));
    }
  }
}

void TaskRuntime::submit(std::string label, std::vector<Dep> deps,
                         std::function<void()> fn) {
  auto node = std::make_shared<TaskNode>();
  node->label = std::move(label);
  node->fn = std::move(fn);
  enqueue(node, deps);
}

void TaskRuntime::submit_waitable(std::string label, std::vector<Dep> deps,
                                  std::function<bool(bool)> poll) {
  FX_CHECK(static_cast<bool>(poll), "waitable task needs a poll function");
  auto node = std::make_shared<TaskNode>();
  node->label = std::move(label);
  node->poll = std::move(poll);
  enqueue(node, deps);
}

void TaskRuntime::enqueue(const NodePtr& node, const std::vector<Dep>& deps) {
  node->parent = detail::tl_current;
  std::lock_guard lock(mu_);
  FX_CHECK(!stop_, "submit after TaskRuntime shutdown");
  node->submit_seq = ++submit_next_;
  ++outstanding_;
  link_dependencies_locked(node, deps);
  if (node->pending == 0) {
    stamp_ready_locked(node);
    ready_.push_back(node);
    queue_depth_metric().record(static_cast<double>(ready_.size()));
    cv_ready_.notify_one();
  }
}

void TaskRuntime::stamp_ready_locked(const NodePtr& node) {
  if (want_queue_wait_) node->t_ready = core::WallTimer::now();
}

TaskRuntime::NodePtr TaskRuntime::pop_ready_locked() {
  if (ready_.empty()) return nullptr;
  NodePtr node = std::move(ready_.front());
  ready_.pop_front();
  return node;
}

TaskRuntime::NodePtr TaskRuntime::pop_child_of_locked(
    const detail::TaskNode* parent) {
  // Scan for a ready task spawned by `parent`'s active taskloop.  The scan
  // is linear but the ready queue is short in practice.
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    if ((*it)->parent.get() == parent && (*it)->sync != nullptr) {
      NodePtr node = *it;
      ready_.erase(it);
      return node;
    }
  }
  return nullptr;
}

void TaskRuntime::run_task(const NodePtr& node, int worker_id) {
  TaskObserver observer;
  trace::Tracer* tracer = nullptr;
  int trace_rank = 0;
  double t_ready = -1.0;
  {
    std::lock_guard lock(mu_);
    observer = observer_;
    tracer = tracer_;
    trace_rank = trace_rank_;
    t_ready = std::exchange(node->t_ready, -1.0);
  }
  if (t_ready >= 0.0 && observer.on_queue_wait) {
    observer.on_queue_wait(worker_id, node->label,
                           core::WallTimer::now() - t_ready);
  }
  // A helping worker suspends its current task; restore it afterwards.
  NodePtr previous = std::exchange(detail::tl_current, node);
  const double t_begin =
      (tracer != nullptr || observer.on_start || observer.on_end)
          ? core::WallTimer::now()
          : 0.0;
  if (observer.on_start) observer.on_start(worker_id, node->label, t_begin);
  try {
    node->fn();
  } catch (...) {
    // Wrap in TaskError so join points report which task died; exceptions
    // that already carry a task label (nested taskloop joins) pass through.
    std::exception_ptr err;
    try {
      throw;
    } catch (const core::TaskError&) {
      err = std::current_exception();
    } catch (const std::exception& e) {
      err = std::make_exception_ptr(core::TaskError(node->label, e.what()));
    } catch (...) {
      err = std::make_exception_ptr(
          core::TaskError(node->label, "unknown exception"));
    }
    std::lock_guard lock(mu_);
    if (!first_error_) first_error_ = err;
    if (node->sync != nullptr && !node->sync->error) node->sync->error = err;
  }
  if (tracer != nullptr || observer.on_end) {
    const double t_end = core::WallTimer::now();
    if (observer.on_end) observer.on_end(worker_id, node->label, t_end);
    if (tracer != nullptr) {
      tracer->record_task(
          {trace_rank, worker_id, node->label, t_begin, t_end});
    }
  }
  detail::tl_current = std::move(previous);
  finish_task(node);
}

bool TaskRuntime::run_waitable(const NodePtr& node, int worker_id,
                               bool last_chance) {
  TaskObserver observer;
  trace::Tracer* tracer = nullptr;
  int trace_rank = 0;
  double t_ready = -1.0;
  {
    std::lock_guard lock(mu_);
    observer = observer_;
    tracer = tracer_;
    trace_rank = trace_rank_;
    t_ready = std::exchange(node->t_ready, -1.0);
  }
  if (t_ready >= 0.0 && observer.on_queue_wait) {
    observer.on_queue_wait(worker_id, node->label,
                           core::WallTimer::now() - t_ready);
  }
  const double t_begin =
      (tracer != nullptr || observer.on_start || observer.on_end)
          ? core::WallTimer::now()
          : 0.0;
  bool completed = true;
  NodePtr previous = std::exchange(detail::tl_current, node);
  try {
    completed = node->poll(last_chance);
  } catch (...) {
    // A throwing poll retires the task with that error, exactly like a
    // throwing fn in run_task.
    std::exception_ptr err;
    try {
      throw;
    } catch (const core::TaskError&) {
      err = std::current_exception();
    } catch (const std::exception& e) {
      err = std::make_exception_ptr(core::TaskError(node->label, e.what()));
    } catch (...) {
      err = std::make_exception_ptr(
          core::TaskError(node->label, "unknown exception"));
    }
    std::lock_guard lock(mu_);
    if (!first_error_) first_error_ = err;
    if (node->sync != nullptr && !node->sync->error) node->sync->error = err;
  }
  detail::tl_current = std::move(previous);
  if (!completed) {
    std::lock_guard lock(mu_);
    parked_.push_back(node);
    return false;
  }
  // Lifecycle events fire once, around the completing attempt only; the
  // span then measures the *unhidden* wait (near zero when peers posted
  // during other bands' compute, which is the overlap win being measured).
  if (observer.on_start) observer.on_start(worker_id, node->label, t_begin);
  if (tracer != nullptr || observer.on_end) {
    const double t_end = core::WallTimer::now();
    if (observer.on_end) observer.on_end(worker_id, node->label, t_end);
    if (tracer != nullptr) {
      tracer->record_task({trace_rank, worker_id, node->label, t_begin,
                           t_end});
    }
  }
  finish_task(node);
  return true;
}

void TaskRuntime::sweep_parked(int worker_id) {
  // One nonblocking completion check per currently-parked task; a task
  // that stays incomplete re-parks at the back, so the budget taken up
  // front bounds the sweep even as polls rotate the deque.
  std::size_t budget;
  {
    std::lock_guard lock(mu_);
    budget = parked_.size();
  }
  while (budget-- > 0) {
    NodePtr node;
    {
      std::lock_guard lock(mu_);
      if (parked_.empty()) return;
      node = parked_.front();
      parked_.pop_front();
    }
    run_waitable(node, worker_id, /*last_chance=*/false);
  }
}

TaskRuntime::NodePtr TaskRuntime::take_oldest_parked_locked() {
  // Oldest by SUBMISSION order, not by when the task first parked: in SPMD
  // use every rank submits the same graph in the same order, so this picks
  // the same (globally oldest) in-flight operation on every rank -- the one
  // op whose peers have all posted or can still post.  Park order is a
  // scheduling accident and may differ per rank; escalating by it can block
  // rank A on a young op whose completion needs rank B to poll an older,
  // already-completable parked wait that no idle worker ever revisits.
  auto best = parked_.begin();
  for (auto it = std::next(parked_.begin()); it != parked_.end(); ++it) {
    if ((*it)->submit_seq < (*best)->submit_seq) best = it;
  }
  NodePtr node = *best;
  parked_.erase(best);
  return node;
}

void TaskRuntime::finish_task(const NodePtr& node) {
  std::lock_guard lock(mu_);
  node->finished = true;
  node->fn = nullptr;
  node->poll = nullptr;
  for (const NodePtr& succ : node->successors) {
    if (--succ->pending == 0) {
      stamp_ready_locked(succ);
      ready_.push_back(succ);
      queue_depth_metric().record(static_cast<double>(ready_.size()));
      cv_ready_.notify_one();
    }
  }
  node->successors.clear();
  ++executed_;
  --outstanding_;
  if (node->sync != nullptr) {
    --node->sync->pending;
  }
  if (outstanding_ == 0) {
    // Graph drained: dependency history can never order anything again.
    ranges_.clear();
  }
  cv_done_.notify_all();
}

void TaskRuntime::worker_loop(int worker_id) {
  detail::tl_worker_id = worker_id;
  for (;;) {
    NodePtr node;
    bool last_chance = false;
    {
      std::unique_lock lock(mu_);
      const auto runnable = [&] {
        return stop_ || !ready_.empty() ||
               (!parked_.empty() && !blocking_waiter_);
      };
      while (!runnable()) {
        if (parked_.empty()) {
          cv_ready_.wait(lock);
        } else {
          // The blocking slot is taken and nothing is ready.  The claimed
          // wait was the oldest *at claim time*; an older or newer wait that
          // parked afterwards can become completable with no task completion
          // ever waking a worker to poll it (its peers may in turn be
          // blocked on ops this rank's parked chain must post).  So idle
          // workers keep nonblocking sweeps flowing instead of sleeping.
          cv_ready_.wait_for(lock, std::chrono::microseconds(200));
          if (!runnable() && !parked_.empty()) {
            lock.unlock();
            sweep_parked(worker_id);
            lock.lock();
          }
        }
      }
      if (!ready_.empty()) {
        node = pop_ready_locked();
      } else if (stop_) {
        return;  // drained (parked tasks are abandoned at shutdown)
      } else if (!parked_.empty() && !blocking_waiter_) {
        // Nothing runnable: escalate the oldest parked wait to a blocking
        // one.  Exactly one blocking waiter at a time keeps the other
        // workers available for tasks whose posts the oldest collective's
        // completion may transitively require on peer ranks.
        node = take_oldest_parked_locked();
        blocking_waiter_ = true;
        last_chance = true;
      } else {
        continue;  // lost the race for the blocking slot
      }
    }
    if (node->poll) {
      run_waitable(node, worker_id, last_chance);
      if (last_chance) {
        std::lock_guard lock(mu_);
        blocking_waiter_ = false;
        if (!parked_.empty()) cv_ready_.notify_one();
      }
    } else {
      run_task(node, worker_id);
    }
    sweep_parked(worker_id);
  }
}

void TaskRuntime::taskwait() {
  FX_CHECK(detail::tl_current == nullptr,
           "taskwait must be called from the orchestrator thread; "
           "inside a task use taskloop for nested joins");
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [&] { return outstanding_ == 0; });
  ranges_.clear();
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void TaskRuntime::taskloop(const std::string& label, std::size_t begin,
                           std::size_t end, std::size_t grain,
                           const std::function<void(std::size_t, std::size_t)>&
                               body) {
  FX_CHECK(grain >= 1, "taskloop grain must be positive");
  if (begin >= end) return;

  detail::LoopSync sync;
  const NodePtr caller = detail::tl_current;

  {
    std::lock_guard lock(mu_);
    FX_CHECK(!stop_, "taskloop after TaskRuntime shutdown");
    std::size_t index = 0;
    for (std::size_t lo = begin; lo < end; lo += grain, ++index) {
      const std::size_t hi = std::min(end, lo + grain);
      auto node = std::make_shared<TaskNode>();
      node->label = core::cat(label, "#", index);
      node->fn = [&body, lo, hi] { body(lo, hi); };
      node->parent = caller;
      node->sync = &sync;
      ++sync.pending;
      ++outstanding_;
      stamp_ready_locked(node);
      ready_.push_back(node);
    }
    queue_depth_metric().record(static_cast<double>(ready_.size()));
    cv_ready_.notify_all();
  }

  // Help execute our own chunks; idle workers pick them up from the global
  // ready queue concurrently.  We never run foreign tasks here (they might
  // block on a collective that transitively needs the task we suspended).
  const int worker_id = detail::tl_worker_id;
  for (;;) {
    NodePtr chunk;
    {
      std::unique_lock lock(mu_);
      for (;;) {
        if (sync.pending == 0) {
          if (sync.error) {
            std::exception_ptr e = sync.error;
            // Delivered here; don't report the same failure again at
            // taskwait (a caller task that lets it escape re-records it).
            if (first_error_ == e) first_error_ = nullptr;
            lock.unlock();
            std::rethrow_exception(e);  // first failing chunk, TaskError
          }
          return;
        }
        chunk = pop_child_of_locked(caller.get());
        if (chunk) break;
        cv_done_.wait(lock);
      }
    }
    run_task(chunk, worker_id);
  }
}

}  // namespace fx::task
