// The task executor: every task schedule of the band loop (DESIGN.md
// section 17).  Original runs inline in pipeline.cpp; the other four modes
// are presets of this one executor:
//
//   mode         task shape                  in flight         taskloop
//   TaskPerStep  one task per stage          min(nthreads, I)  yes
//   TaskPerFft   one task per iteration      work-conserving   no
//   Combined     one task per iteration      work-conserving   yes
//   Streaming    one task per stage          stream_bands      no
//
// (I = iterations.)  Stage tasks of one iteration form a linear chain
// through a one-byte slot token (`inout(slot.token)`) over a ring of
// buffer slots; the same token serializes iteration i + depth behind
// iteration i (write-after-write on the reused slot), which is the memory
// bound and the backpressure.  Per-iteration tasks are all submitted up
// front and borrow a buffer set from the pipeline's pool when they start.
//
// Exchanges block inside their stage task, except under Streaming with the
// fused view layouts on and guards off: there, and only there, each
// exchange stage splits into
//
//   post task      (before half + nonblocking ialltoallv_view)
//   waitable task  (TaskRuntime::submit_waitable; parks until complete,
//                   then runs the after half)
//
// so no worker is ever pinned inside a collective: while band k's scatter
// is on the wire, the workers run band k+1's forward Z-FFT and band k-1's
// backward leg.  These are the band loop's only nonblocking exchanges,
// and no option turns them on or off: the rule above, evaluated in
// StreamExecutor::run, is the whole decision.
//
// Ordering and deadlock freedom: every rank submits the same tasks in the
// same order, the chain forces in-iteration program order, and exchanges of
// distinct iterations carry distinct tags (tag == iter), so simmpi's
// (kind, tag, sequence) matching is race-free at any depth.  In the split
// configuration stage tasks never block, and the runtime's single blocking
// waiter -- which escalates the parked wait with the lowest SUBMISSION
// sequence, identical across ranks -- cannot deadlock: the globally oldest
// incomplete exchange has been posted by every rank (posts only need
// non-blocking predecessors), so it always completes.  Waits that park
// *after* the blocking slot was claimed still make progress because idle
// workers keep nonblocking completion sweeps running while the slot is
// held (see TaskRuntime::worker_loop).  Blocking stage tasks obey the
// blocking-depth rule: at most nthreads iterations in flight, so two ranks
// can never pin all their workers in collectives of disjoint iteration
// sets.  Per-iteration tasks hold one worker for a whole band, so FIFO
// dispatch alone bounds the cross-rank skew.
//
// Failure handling is the same for every schedule: the first failing task
// captures its exception and revokes the world communicator, which unwinds
// every peer's in-flight collective; after the drain the *original*
// exception (FaultError, SdcError, ...) is rethrown, so the RecoveryDriver's
// type dispatch sees exactly what Original would throw.  Every schedule is
// bit-identical to the Original oracle.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "fftx/pipeline.hpp"
#include "simmpi/comm.hpp"

namespace fx::fftx {

/// One run() of a task-schedule pipeline.  Constructed and driven by
/// BandFftPipeline::run() on every rank; not reusable.
class StreamExecutor {
 public:
  explicit StreamExecutor(BandFftPipeline& pipe);
  ~StreamExecutor();

  StreamExecutor(const StreamExecutor&) = delete;
  StreamExecutor& operator=(const StreamExecutor&) = delete;

  /// Submits all band iterations under the mode's preset and drains them.
  void run();

 private:
  using Stage = BandFftPipeline::ExchangeStage;

  /// One ring entry: an iteration's borrowed buffers plus the state of its
  /// (single) in-flight split exchange between a post task and its
  /// waitable.
  struct Slot {
    BandFftPipeline::BorrowedBuffers wb;
    char token = 0;        ///< dependency anchor: chain + slot-reuse (WAW)
    mpi::Request req;      ///< the posted exchange awaiting completion
    bool posted = false;   ///< req holds a live request
    double t_post = 0.0;   ///< post timestamp (hidden-time attribution)
  };

  void submit_iteration(Slot& slot, int iter);
  /// One exchange stage of a step-shaped iteration: a blocking task, or a
  /// post task plus a waitable when `split`.  `deps` adds the stage's psi
  /// clauses to the chain.
  void submit_exchange(Slot& slot, int iter, const Stage& x,
                       std::vector<task::Dep> deps, bool split);
  void install_queue_wait_observer();

  /// Wraps a task body: skipped after a failure, and any throw captures
  /// the original exception and revokes the world before rethrowing.
  [[nodiscard]] std::function<void()> guard(std::function<void()> body);
  /// First failure wins: records std::current_exception() and revokes the
  /// world communicator so every rank's in-flight collectives unwind.
  void capture_current();

  /// The split path's halves: the post task runs the stage's before half
  /// and posts its transpose; the waitable tests (or, on the last-chance
  /// attempt, waits for) the request, records the hidden window, then
  /// runs the after half.
  void post(Slot& slot, const Stage& x, int iter);
  bool wait_poll(Slot& slot, bool last_chance, const Stage& x, int iter);

  /// Runs on every exit of an iteration's last task -- normal, failed, or
  /// skipped after a failure -- so the window never waits on a dead
  /// iteration and the observatory hears the end.
  void end_iteration(int iter);

  BandFftPipeline& p_;
  std::vector<Slot> slots_;
  int depth_ = 1;               ///< step shape: iterations in flight
  bool per_iteration_ = false;  ///< one task per iteration
  bool taskloop_ = false;       ///< FFT stages fan out through taskloop
  bool split_ = false;          ///< nonblocking post/wait exchange tasks

  std::mutex window_mu_;
  std::condition_variable window_cv_;
  int completed_ = 0;  ///< iterations fully finished (unpack done)

  std::mutex err_mu_;
  std::exception_ptr first_error_;
  std::atomic<bool> stop_{false};
};

}  // namespace fx::fftx
