// OmpSs-style task runtime with data dependencies.
//
// This substrate plays the role of OmpSs/Nanos++ in the paper: tasks are
// submitted with in/out/inout address-range clauses; the runtime builds the
// dependency graph dynamically and a pool of worker threads executes tasks
// as their predecessors retire.  Figures 4 and 5 of the paper map onto
// submit() calls with the corresponding dep lists.
//
// Dispatch order and deadlock freedom
// -----------------------------------
// Ready tasks are dispatched FIFO (creation order), and that is the only
// order.  This is not a style choice: pipeline tasks block inside simmpi
// collectives, and FIFO dispatch guarantees that the globally-oldest
// unfinished band is started on every rank, so some collective always has
// all participants and the system cannot deadlock (see tests/tasking and
// DESIGN.md).
//
// taskloop() submits child tasks of the calling task and blocks until they
// finish; while blocked, the calling worker executes only its *own*
// children (never arbitrary ready tasks, which might block on a collective
// the waiting task itself is upstream of).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace fx::trace {
class Tracer;
}

namespace fx::task {

/// Access mode of a dependency clause.
enum class DepMode { In, Out, InOut };

/// One dependency clause: a byte range and how the task accesses it.
/// Overlapping ranges are serialized conservatively (reader-after-writer,
/// writer-after-writer, writer-after-reader).
struct Dep {
  const void* addr;
  std::size_t len;
  DepMode mode;
};

/// Clause helpers mirroring the paper's pragma spelling:
///   submit(label, {in(aux), out(psis)}, fn);
template <typename T>
Dep in(const T& x) {
  return {&x, sizeof(T), DepMode::In};
}
template <typename T>
Dep out(T& x) {
  return {&x, sizeof(T), DepMode::Out};
}
template <typename T>
Dep inout(T& x) {
  return {&x, sizeof(T), DepMode::InOut};
}
template <typename T>
Dep in(std::span<const T> s) {
  return {s.data(), s.size_bytes(), DepMode::In};
}
template <typename T>
Dep out(std::span<T> s) {
  return {s.data(), s.size_bytes(), DepMode::Out};
}
template <typename T>
Dep inout(std::span<T> s) {
  return {s.data(), s.size_bytes(), DepMode::InOut};
}

/// Worker id of the calling thread (0-based), or -1 when called outside a
/// task worker (e.g. on the orchestrator thread).  Tracing uses this to
/// attribute compute phases to timeline rows.
int current_worker_id();

/// Task lifecycle callbacks (consumed by the tracer).  Invoked on the
/// executing worker thread.  on_queue_wait fires once per task at its
/// first dispatch with the seconds it sat ready-but-unscheduled, so the
/// observatory can blame scheduling delay separately from compute.
struct TaskObserver {
  std::function<void(int worker, const std::string& label, double t)> on_start;
  std::function<void(int worker, const std::string& label, double t)> on_end;
  std::function<void(int worker, const std::string& label, double wait_s)>
      on_queue_wait;
};

namespace detail {
struct TaskNode;
}

class TaskRuntime {
 public:
  /// Spawns `nthreads` workers (>= 1).  The constructing thread is the
  /// orchestrator; it submits tasks and calls taskwait() but does not
  /// execute tasks itself.
  explicit TaskRuntime(int nthreads);
  ~TaskRuntime();

  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;
  TaskRuntime(TaskRuntime&&) = delete;
  TaskRuntime& operator=(TaskRuntime&&) = delete;

  /// Submits a task.  Dependencies are evaluated against all previously
  /// submitted tasks' clauses, exactly like OmpSs's dynamic dependency
  /// graph.  Thread-safe (tasks may submit tasks).
  void submit(std::string label, std::vector<Dep> deps,
              std::function<void()> fn);

  /// Convenience for dependency-free tasks.
  void submit(std::string label, std::function<void()> fn) {
    submit(std::move(label), {}, std::move(fn));
  }

  /// Submits a completion-waitable task: `poll(false)` must make a cheap
  /// nonblocking completion check (e.g. mpi::Request::test) and return
  /// whether the task retired; incomplete tasks are parked off-worker and
  /// re-polled opportunistically instead of pinning a thread.  When the
  /// runtime has nothing else to run, ONE worker re-dispatches the parked
  /// task with the lowest SUBMISSION sequence with `poll(true)`, which must
  /// block until done (e.g. mpi::Request::wait).  Restricting the blocking
  /// slot to the earliest-submitted parked task preserves the FIFO
  /// deadlock-freedom argument: ranks submitting identical graphs escalate
  /// the same (globally oldest) in-flight collective, which every rank has
  /// posted or can still post without blocking on a younger one.  (Park
  /// order would not do: it is a per-rank scheduling accident, and
  /// escalating by it can block one rank on a young op while an older,
  /// already-completable wait sits parked with no idle worker to poll it.)
  /// While the blocking slot is held, idle workers keep periodic
  /// nonblocking sweeps over the parked set, so a wait that parks (or
  /// completes) after the slot was claimed still retires without any task
  /// completion to wake a worker.  Successors release at whichever poll
  /// returns true; a throwing poll completes the task with that error.
  void submit_waitable(std::string label, std::vector<Dep> deps,
                       std::function<bool(bool last_chance)> poll);

  /// Blocks until every task submitted so far (including transitively
  /// spawned ones) has finished.  Rethrows the first task exception,
  /// wrapped in core::TaskError carrying the failing task's label.
  /// Must be called from the orchestrator thread.
  void taskwait();

  /// OmpSs/OpenMP `taskloop`: splits [begin, end) into chunks of `grain`
  /// iterations, runs each chunk as a child task of the calling task, and
  /// returns when all chunks are done, rethrowing the first chunk failure
  /// (as core::TaskError) at the join.  Callable from inside a task (the
  /// paper's nested cft_2z / cft_2xy loops) or from the orchestrator.
  void taskloop(const std::string& label, std::size_t begin, std::size_t end,
                std::size_t grain,
                const std::function<void(std::size_t, std::size_t)>& body);

  void set_observer(TaskObserver observer);

  /// Routes task lifecycle events straight into `tracer` as TaskEvents
  /// attributed to `rank` (the idiomatic replacement for hand-rolled
  /// start/end observers).  Events are recorded on the executing worker's
  /// lock-free tracer shard.  Pass nullptr to detach.
  void set_tracer(trace::Tracer* tracer, int rank);

  [[nodiscard]] int num_threads() const { return nthreads_; }

  /// Total tasks executed and dependency edges created (for tests/benches).
  [[nodiscard]] std::size_t tasks_executed() const;
  [[nodiscard]] std::size_t edges_created() const;

 private:
  using NodePtr = std::shared_ptr<detail::TaskNode>;

  void worker_loop(int worker_id);
  void run_task(const NodePtr& node, int worker_id);
  bool run_waitable(const NodePtr& node, int worker_id, bool last_chance);
  void sweep_parked(int worker_id);
  void finish_task(const NodePtr& node);
  /// Stamps, links and (when it has no pending predecessor) readies a
  /// freshly built submit()/submit_waitable() node.
  void enqueue(const NodePtr& node, const std::vector<Dep>& deps);
  NodePtr pop_ready_locked();
  NodePtr pop_child_of_locked(const detail::TaskNode* parent);
  NodePtr take_oldest_parked_locked();
  void stamp_ready_locked(const NodePtr& node);
  void link_dependencies_locked(const NodePtr& node,
                                const std::vector<Dep>& deps);

  const int nthreads_;

  mutable std::mutex mu_;
  std::condition_variable cv_ready_;  // workers wait for ready tasks
  std::condition_variable cv_done_;   // taskwait / taskloop completion
  bool stop_ = false;

  std::deque<NodePtr> ready_;
  std::deque<NodePtr> parked_;   // incomplete waitable tasks
  bool blocking_waiter_ = false;  // one worker at a time may poll(true)
  std::uint64_t submit_next_ = 0;  // submission stamps (blocking escalation)
  bool want_queue_wait_ = false;  // observer_.on_queue_wait installed
  std::size_t outstanding_ = 0;  // submitted but not yet finished
  std::size_t executed_ = 0;
  std::size_t edges_ = 0;
  std::exception_ptr first_error_;

  // Live address ranges with their last writer / readers (dependency state).
  struct Range {
    const char* begin;
    const char* end;
    NodePtr last_writer;
    std::vector<NodePtr> readers;
  };
  std::vector<Range> ranges_;

  TaskObserver observer_;
  trace::Tracer* tracer_ = nullptr;  // guarded by mu_; shards are lock-free
  int trace_rank_ = 0;
  std::vector<std::jthread> workers_;
};

}  // namespace fx::task
