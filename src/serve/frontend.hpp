// Overload-resilient multi-tenant FFT service frontend.
//
// The engine below this layer is library-shaped: one caller, one
// descriptor, one pipeline run.  Production traffic is request-shaped --
// many concurrent clients ("tenants") submitting mixed workloads (grid
// size, cutoff, band count, r2c, wire precision), each with its own
// latency expectations, against a fixed-capacity rank pool.  The Frontend
// bridges the two with robustness as the headline:
//
//   admission control -- every tenant owns a bounded queue
//     (FFTX_SERVE_QUEUE deep) and a token bucket (FFTX_SERVE_RATE /
//     FFTX_SERVE_BURST); a submit that would overflow either is rejected
//     *at the door* with a typed serve::Overloaded, so overload sheds load
//     instead of growing queue latency without bound;
//
//   deadline budgets -- a request may carry a wall-clock budget
//     (Request::deadline_s).  The budget rides the execution as a
//     core::Deadline: the pipeline checks it collectively at every band
//     iteration, the recovery driver at every batch boundary and before
//     every repair round, and the guarded exchanges clamp their retry
//     backoff to it.  An expired request is cancelled cleanly -- every
//     rank throws core::DeadlineExceeded in lockstep, partial work is
//     discarded, and the communicator stays healthy for the next request;
//
//   backpressure and fairness -- the scheduler drains tenant queues
//     weighted-round-robin with an aging bound (FFTX_SERVE_STARVATION_MS):
//     a head-of-queue request older than the bound jumps the rotation, so
//     no tenant starves behind a heavy one.  A circuit breaker quarantines
//     a tenant whose requests repeatedly end in failure
//     (FFTX_SERVE_BREAKER_STRIKES strikes opens the breaker for
//     FFTX_SERVE_BREAKER_COOLDOWN_S, then one probe request half-opens
//     it);
//
//   graceful degradation -- under queue pressure (fill fraction past
//     FFTX_SERVE_DEGRADE_WATERMARK) or post-shrink capacity loss the
//     scheduler steps executions down a declared ladder: L1 narrows the
//     wire to fp32, L2 folds the streaming ring to one band in flight
//     (shedding the extra in-flight band buffers), L3 drops the
//     checkpoint cadence to end-of-run only.  A rung applies only where
//     it changes the configured execution.  The applied level and steps
//     are recorded in the Response (status CompletedDegraded), so callers
//     know what they got.
//
// Compatible requests coalesce into one shared execution: same cell,
// cutoff, r2c mode, wire format, and deadline presence batch into a single
// RecoveryDriver run (one descriptor, one pipeline band loop), each
// request owning a contiguous carried-band slice of the batch.  r2c
// requests are padded to even band counts so gamma pairs never straddle a
// request boundary.
//
// Threading model: client threads call submit()/request_stop() from
// outside the simulated world; every rank thread of one mpi::Runtime::run
// world calls serve(world) and stays in it until stop (or its own injected
// death).  Rank 0 of the current world is the scheduler: it picks the next
// execution group under the frontend lock and broadcasts a tiny work order
// so all ranks enter the same RecoveryDriver run together.  Because rank
// threads share this process, order payloads live in shared memory and the
// broadcast carries only {kind, index} -- but it rides the communicator,
// so a revoked world is discovered at the next order boundary and the
// survivors shrink-and-continue serving at degraded capacity.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/deadline.hpp"
#include "core/error.hpp"
#include "fft/types.hpp"
#include "fftx/descriptor.hpp"
#include "fftx/pipeline.hpp"
#include "fftx/recovery.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/wire.hpp"

namespace fx::serve {

/// Why a submit was shed at the door.
enum class ShedReason { QueueFull, RateLimited, Quarantined, ShuttingDown };

const char* to_string(ShedReason r);

/// Typed admission rejection: the request was never queued and will never
/// execute -- shedding *is* its terminal state.
class Overloaded : public core::Error {
 public:
  Overloaded(ShedReason reason, const std::string& what)
      : core::Error(what), reason_(reason) {}
  [[nodiscard]] ShedReason reason() const { return reason_; }

 private:
  ShedReason reason_;
};

/// Terminal state of an admitted request.
enum class Status {
  Completed,          ///< full fidelity, within budget
  CompletedDegraded,  ///< completed down the degradation ladder
  DeadlineCancelled,  ///< wall-clock budget expired; partial work discarded
  Failed,             ///< execution failed beyond the repair budget
};

const char* to_string(Status s);

/// One client workload: a band-FFT round trip (forward, VOFR, backward)
/// over a deterministic generated wavefunction set.
struct Request {
  std::string tenant = "default";
  double alat_bohr = 8.0;  ///< cubic cell edge
  double ecut_ry = 8.0;    ///< plane-wave cutoff
  int num_bands = 4;       ///< bands wanted (real bands when real_bands)
  bool real_bands = false; ///< gamma-point r2c pair packing
  mpi::WireFormat wire = mpi::WireFormat::Fp64;
  double deadline_s = 0.0; ///< wall budget from admission; 0 = none
};

/// What an admitted request resolved to.
struct Response {
  Status status = Status::Failed;
  std::string detail;      ///< failure/cancel reason or degradation note
  int degrade_level = 0;   ///< 0 = full fidelity (see ladder above)
  mpi::WireFormat wire = mpi::WireFormat::Fp64;  ///< wire actually used
  double queue_s = 0.0;    ///< admission -> dispatch
  double exec_s = 0.0;     ///< dispatch -> terminal
  /// Generator band index of bands[0]: the request's coefficients are the
  /// deterministic generator's bands [assigned_first_band,
  /// assigned_first_band + num_bands) as carried by its execution group.
  int assigned_first_band = 0;
  /// Carried output slices (packed pairs under real_bands), global
  /// stick-ordered, one per carried band.  Empty unless Completed /
  /// CompletedDegraded.
  std::vector<std::vector<fft::cplx>> bands;
};

namespace detail {
struct TicketState;
}  // namespace detail

/// Write-once future for one admitted request.  wait() blocks until the
/// serve loop fulfills it; every admitted request is fulfilled exactly
/// once (asserted), even on failure.
class Ticket {
 public:
  Ticket() = default;

  /// Blocks until the terminal state and returns it (moves the bands out
  /// on first call).
  Response wait();

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const;

 private:
  friend class Frontend;
  explicit Ticket(std::shared_ptr<detail::TicketState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::TicketState> state_;
};

/// Frontend tuning; every knob has an FFTX_SERVE_* env override.
struct ServeConfig {
  int queue_depth = 64;        ///< FFTX_SERVE_QUEUE: per-tenant bound
  double rate = 0.0;           ///< FFTX_SERVE_RATE: tokens/s/tenant; 0 = off
  double burst = 8.0;          ///< FFTX_SERVE_BURST: bucket capacity
  int coalesce_bands = 32;     ///< FFTX_SERVE_COALESCE: carried bands/group
  double starvation_ms = 500;  ///< FFTX_SERVE_STARVATION_MS: aging bound
  int breaker_strikes = 3;     ///< FFTX_SERVE_BREAKER_STRIKES: 0 disables
  double breaker_cooldown_s = 1.0;  ///< FFTX_SERVE_BREAKER_COOLDOWN_S
  double degrade_watermark = 0.75;  ///< FFTX_SERVE_DEGRADE_WATERMARK
  int ntg = 1;                 ///< FFTX_SERVE_NTG: task-group preference
  double idle_poll_ms = 2.0;   ///< scheduler wait slice when idle
  /// Execution guts (guard/stream/recovery knobs ride the usual env
  /// defaults; deadline and wire come from each group).
  fftx::PipelineConfig pipeline{};
  fftx::RecoveryConfig recovery = fftx::RecoveryConfig::from_env();

  static ServeConfig from_env();
};

/// The declared degradation ladder, as one pure step: given a level and
/// the group's configured execution -- its stream depth (1 unless the
/// schedule is Streaming) and checkpoint cadence (0 = end of run) --
/// rewrite the execution parameters and describe the change.  A step is
/// applied and named only when it changes its value; a level whose steps
/// all change nothing reads "no applicable step".  Level 0 is identity.
/// Exposed for unit tests.
struct DegradeEffect {
  mpi::WireFormat wire;
  int checkpoint_bands;  ///< -1 = keep configured value
  int stream_bands;      ///< 0 = keep configured value (streaming depth)
  std::string note;
};
[[nodiscard]] DegradeEffect apply_degrade_level(int level,
                                                mpi::WireFormat requested,
                                                int stream_depth,
                                                int checkpoint_bands);

/// Ladder level for the observed pressure: 0 below the watermark, then one
/// step per half of the remaining fill range; +1 (capped at 3) when the
/// world shrank below its original size.  Exposed for unit tests.
[[nodiscard]] int choose_degrade_level(double queue_fill, bool post_shrink,
                                       double watermark);

/// One dispatched execution group, for fairness assertions: which tenants'
/// requests ran, in dispatch order.
struct ExecutionRecord {
  std::uint64_t seq = 0;
  std::vector<std::string> tenants;  ///< one entry per member request
  int carried_bands = 0;
  int degrade_level = 0;
};

class Frontend {
 public:
  explicit Frontend(ServeConfig cfg = ServeConfig::from_env());
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Client-side: admit or shed.  Throws serve::Overloaded (the request is
  /// NOT queued) on a full queue, an empty token bucket, an open circuit
  /// breaker, or after request_stop().  Thread-safe.
  Ticket submit(const Request& req);

  /// Client-side: drain-and-stop.  Already-queued requests still execute;
  /// subsequent submits shed with ShedReason::ShuttingDown.  serve()
  /// returns on every rank once the queues are empty.
  void request_stop();

  /// Rank-side: the serve loop.  Every rank of `world` must call this; it
  /// returns after request_stop() drains, or early on this rank's injected
  /// death.  Survivable world failures (a peer died mid-group) shrink the
  /// communicator in place and serving continues at degraded capacity.
  void serve(mpi::Comm& world);

  /// Marks every still-pending admitted request Failed with `why`.  For
  /// drivers whose world terminated abnormally (Runtime::run threw): call
  /// after the run so every ticket still reaches exactly one terminal
  /// state.  Returns the number of tickets it failed.
  int fail_pending(const std::string& why);

  /// Per-tenant WRR weight (>= 1); callable before serving starts.
  void set_tenant_weight(const std::string& tenant, int weight);

  /// Dispatch history (stable after serve() returned everywhere).
  [[nodiscard]] std::vector<ExecutionRecord> execution_log() const;

  [[nodiscard]] const ServeConfig& config() const { return cfg_; }

 private:
  struct Pending;
  struct Tenant;
  struct Order;

  // Scheduler internals; all under mu_.
  bool any_queued_locked() const;
  int total_queued_locked() const;
  double queue_fill_locked() const;
  Tenant& tenant_locked(const std::string& name);
  std::shared_ptr<Order> schedule_locked(int world_size);
  std::shared_ptr<Order> next_order(mpi::Comm& world);
  /// Runs one coalesced group on `world`.  Returns false when this rank
  /// died mid-run (the driver already revoked and marked it dead).
  bool execute_group(mpi::Comm& world, Order& o);
  void fulfill_completed(Order& o, std::vector<std::vector<fft::cplx>>& out,
                         double exec_s);
  void fulfill_terminal(Order& o, Status st, const std::string& why,
                        double exec_s);
  void handle_deadline_cancel(Order& o, const std::string& why,
                              double exec_s);
  void breaker_strike(const std::string& tenant);
  void breaker_success(const std::string& tenant);

  ServeConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::map<std::string, Tenant> tenants_;
  std::vector<std::string> rr_order_;  ///< tenant rotation (insertion order)
  std::size_t rr_next_ = 0;
  bool stopping_ = false;
  int initial_world_size_ = 0;  ///< first serve() world; shrink detection
  bool post_shrink_ = false;

  // Work-order log: the leader appends, the order index rides the bcast,
  // followers read back by index.  Never truncated during a run (indices
  // are stable); shared_ptr so members outlive the deque if ever trimmed.
  std::vector<std::shared_ptr<Order>> orders_;
  /// Re-dispatch cursor: first order not yet claimed (fulfilled, failed,
  /// or cancelled).  A broadcast that died mid-flight leaves an unclaimed
  /// order behind; the survivors re-run it before scheduling new work.
  std::size_t first_unclaimed_ = 0;
  std::uint64_t exec_seq_ = 0;
  std::vector<ExecutionRecord> exec_log_;

  // Descriptor cache: service traffic repeats (cell, ecut, nproc, ntg)
  // combinations; re-deriving sticks/spheres per request is pure waste.
  std::map<std::tuple<std::uint64_t, std::uint64_t, int, int>,
           std::shared_ptr<const fftx::Descriptor>>
      desc_cache_;
};

}  // namespace fx::serve
