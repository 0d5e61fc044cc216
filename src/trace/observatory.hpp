// Online performance observatory: live phase attribution, straggler and
// load-imbalance detection, and a flight recorder of recent iterations.
//
// The tracer answers "what happened" after the run; the observatory
// answers "is this run healthy" *during* it, cheaply enough to stay on in
// production (`FFTX_OBS=watch`).  It is fed from two existing streams --
// the RAII compute spans (trace/span.hpp) and the pipeline's communicator
// observer -- so instrumented code needs no new call sites, and detection
// is evaluated by whichever rank finishes an iteration last, mirroring the
// ABFT deferred-verdict trick: ranks here are threads of one process, so
// cross-rank aggregation is shared memory and costs no collective.
//
// What it maintains:
//   - per-(rank, phase) span statistics: count, summed seconds and a
//     streaming p95 (a core::Histogram per cell);
//   - per-band-iteration records: per-rank compute/comm seconds split by
//     phase, live POP load-balance and communication-efficiency factors
//     (trace::pop_factors, the formula trace/analysis uses, applied to one
//     iteration);
//   - straggler flags: a rank whose iteration time exceeds the median of
//     its peers by a configurable factor, with the offending phase named
//     (largest excess over the peer average, exchange time included);
//   - a flight-recorder ring of the last kObsRing iterations, dumped as
//     JSON next to the trace artifacts whenever an incident fires
//     (SdcError verdict, recovery shrink, watchdog near-miss, guard
//     retry -- routed here through core::emit_incident).
//
// Modes (env FFTX_OBS, or Observatory::configure for tests/benches):
//   off    -- everything compiled in, nothing recorded; the only residual
//             cost is one pointer test per span (obs_active()).
//   watch  -- record, detect, flag (metrics fftx.obs.*), never interfere.
//   strict -- watch + strict_check() throws core::Error when any straggler
//             flag or incident accumulated during the run (CI gates).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/metrics.hpp"
#include "trace/phases.hpp"

namespace fx::trace {

enum class ObsMode { Off, Watch, Strict };

/// Mode selected by FFTX_OBS (off | watch | strict; default off).
ObsMode default_obs_mode();

/// Flight-recorder capacity in iterations (Observatory::configure
/// overrides it for tests).
inline constexpr int kObsRing = 32;

const char* to_string(ObsMode mode);

class Observatory;

/// The process observatory when observation is on, nullptr when off.  One
/// non-inlined call + pointer test: cheap enough for span destructors.
Observatory* obs_active();

class Observatory {
 public:
  /// Detection tuning.  Defaults are deliberately conservative: an
  /// iteration straggler must exceed the peer median by 1.75x AND by an
  /// absolute floor, so sub-millisecond jitter on tiny grids never flags.
  struct Detection {
    double straggler_factor = 1.75;  ///< rank time vs peer median
    double straggler_floor_s = 2e-4; ///< minimum absolute excess
    double ewma_alpha = 0.1;         ///< decay of the run-level POP EWMAs
  };

  /// One rank's slice of one recorded iteration.
  struct RankRecord {
    double compute_s = 0.0;  ///< sum of non-ABFT, non-TaskWait phase spans
    double abft_s = 0.0;     ///< ABFT overhead spans
    double comm_s = 0.0;     ///< collective time attributed by tag
    double sched_s = 0.0;    ///< task-queue wait (ready but unscheduled)
    std::array<double, kNumPhaseKinds> phase_s{};
  };

  /// One flight-recorder slot: a band iteration as all ranks saw it.
  struct IterationRecord {
    int iter = -1;             ///< first band index of the iteration
    bool complete = false;     ///< all ranks reported iteration_done
    double t_begin = 0.0;      ///< earliest rank entry (wall seconds)
    double t_end = 0.0;        ///< latest rank completion
    double load_balance = 1.0;
    double comm_efficiency = 1.0;
    int straggler_rank = -1;   ///< -1 when no flag
    int straggler_phase = -1;  ///< PhaseKind value, kNumPhaseKinds == comm
    std::vector<RankRecord> ranks;
  };

  /// The most recent straggler flag (tests assert the injected rank).
  struct StragglerFlag {
    int iter = -1;
    int rank = -1;
    int phase = -1;       ///< PhaseKind value, or kNumPhaseKinds for comm
    double excess_s = 0.0;
  };

  /// Process-wide instance (mode from FFTX_OBS on first use).
  static Observatory& global();

  /// Overrides mode and ring capacity (tests, benches, the miniapp flag).
  /// Resets all recorded state.
  void configure(ObsMode mode, int ring_capacity = 0);
  /// Overrides detection thresholds (tests); keeps recorded state.
  void configure_detection(const Detection& d);

  [[nodiscard]] ObsMode mode() const {
    return static_cast<ObsMode>(mode_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool enabled() const { return mode() != ObsMode::Off; }

  // --- Run lifecycle (called by every rank of a pipeline; refcounted) ---

  /// First rank in (re)shapes the per-rank structures.
  void begin_run(int nranks, int ntg);
  void end_run();

  // --- Feeds (hot paths; no collectives, one mutex) ---

  /// One compute span completed: `iter` is the span's band/iteration tag.
  void record_phase(int rank, PhaseKind phase, int iter, double seconds);
  /// One collective completed; exchanges carry tag == iter.
  void record_comm(int rank, int tag, double seconds);
  void iteration_begin(int rank, int iter);
  /// Last rank to finish evaluates the iteration: POP factors and the
  /// straggler check -- the deferred-verdict analogue.
  void iteration_done(int rank, int iter);

  /// Fault context: counts, remembers the reason, and dumps the flight
  /// ring to FFTX_TRACE_DIR (throttled).  Wired to core::emit_incident.
  void incident(const std::string& reason);

  // --- Inspection ---

  [[nodiscard]] std::uint64_t phase_records() const { return n_records_; }
  [[nodiscard]] std::uint64_t iterations_done() const { return n_iters_; }
  [[nodiscard]] std::uint64_t straggler_flags() const { return n_straggler_; }
  [[nodiscard]] std::uint64_t incidents() const { return n_incidents_; }
  [[nodiscard]] std::optional<StragglerFlag> last_straggler() const;

  /// EWMA POP factors over completed iterations.
  [[nodiscard]] double load_balance() const;
  [[nodiscard]] double comm_efficiency() const;

  /// Flight-recorder contents, oldest first (completed and in-flight).
  [[nodiscard]] std::vector<IterationRecord> flight() const;
  /// The flight recorder + incident reasons as a JSON document (the
  /// `<name>.flight.json` artifact; format in DESIGN.md section 15).
  [[nodiscard]] core::json::Value flight_json() const;

  /// Live attribution table: per phase, observed count / mean / p95 /
  /// share of summed compute span time, plus run-level POP factors and
  /// flags.
  [[nodiscard]] std::string attribution_report() const;

  /// Under Strict: throws core::Error if any straggler flag or incident
  /// accumulated since begin_run.  No-op in Watch/Off.  Callers
  /// must invoke it at a point all ranks reach (after the closing
  /// barrier), so the throw is lockstep.
  void strict_check() const;

  /// Clears all recorded state, flags and per-run bookkeeping (tests).
  void reset();

 private:
  Observatory();

  struct Cell {  // per (rank, phase) span statistics
    std::uint64_t count = 0;
    double total_s = 0.0;
    core::Histogram hist;  ///< milliseconds; p95 at ~19 % resolution
  };

  [[nodiscard]] Cell& cell(int rank, PhaseKind phase);
  [[nodiscard]] IterationRecord* slot_for(int iter);
  void finalize_iteration(IterationRecord& rec);
  void dump_flight_locked(const std::string& reason);
  [[nodiscard]] core::json::Value flight_json_locked() const;

  std::atomic<int> mode_{0};
  int ring_cap_ = kObsRing;
  Detection det_;

  mutable std::mutex mu_;
  int nranks_ = 0;
  int ntg_ = 1;
  int run_depth_ = 0;  ///< ranks currently inside begin_run..end_run
  // Cells hold a core::Histogram (atomics, immovable), so the table holds
  // pointers; nranks x kNumPhaseKinds, row-major by rank.
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<IterationRecord> ring_;
  std::vector<int> done_count_;  ///< per ring slot, ranks reported done
  std::optional<StragglerFlag> last_straggler_;
  std::vector<std::string> incident_reasons_;
  int flight_dumps_ = 0;

  // Flag counters mirrored into the metrics registry (fftx.obs.*); the
  // members make reset()/tests independent of the global registry.
  std::atomic<std::uint64_t> n_records_{0};
  std::atomic<std::uint64_t> n_iters_{0};
  std::atomic<std::uint64_t> n_straggler_{0};
  std::atomic<std::uint64_t> n_incidents_{0};
  std::uint64_t strict_base_ = 0;  ///< flags at begin_run (strict_check)
  std::uint64_t records_mirrored_ = 0;  ///< span count already in the registry
  double ewma_lb_ = 1.0;
  double ewma_ce_ = 1.0;
};

}  // namespace fx::trace
