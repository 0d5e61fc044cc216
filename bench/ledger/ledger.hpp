// Layer ledger: one seeded, wall-clock benchmark for the band loop and the
// service path.  Shared declarations of the fftx_ledger driver.
//
// The driver measures the library from outside, through public calls only:
// it builds descriptors, pipelines and a service frontend exactly as a user
// would, times them with the wall clock, checks outputs against the serial
// oracle, and reports every metric by name with its unit.  One process runs
// one workload and one pass (set-up, end-to-end, or per-layer), so peak RSS
// and the process-wide plan cache never leak between workloads.
#pragma once

#include <barrier>
#include <complex>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "fft/types.hpp"
#include "fftx/pipeline.hpp"

namespace ledger {

using fx::core::json::Value;
using Cplx = std::complex<double>;

/// One workload: its problem and its schedule, pinned in one place
/// (presets.cpp).  Every other setting is the library default.
struct Preset {
  std::string name;
  std::string why;
  bool service = false;

  // Band-loop problem and schedule.  For the service this is the shape of
  // one full coalesced group, which the per-layer pass runs directly.
  double ecut_ry = 0.0;
  double alat_bohr = 0.0;
  int nranks = 1;
  int ntg = 1;
  fx::fftx::PipelineMode mode = fx::fftx::PipelineMode::Original;
  int nthreads = 1;          ///< task workers per rank (task schedules)
  bool fused_exchange = false;
  int stream_bands = 0;      ///< streaming depth; 0 keeps the default
  bool real_bands = false;
  int num_bands = 0;         ///< bands per run (real bands under real_bands)

  // Service traffic (service presets).
  int tenants = 0;
  int min_req_bands = 0;
  int max_req_bands = 0;
  double r2c_frac = 0.0;     ///< share of requests that are r2c (even bands)
  double fp32_frac = 0.0;    ///< share of requests on the fp32 wire
  double limit_s = 0.0;      ///< deadline and latency limit
  double rate_rps = 0.0;     ///< open-loop Poisson rate, nominal time
  int window = 0;            ///< outstanding requests, capacity phase
};

/// Command line of one fftx_ledger process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool setup_only = false;
  bool layers = false;
  bool smoke = false;
  bool self_test = false;
  std::string out_dir;
};

[[nodiscard]] const Preset& find_preset(const std::string& name);
/// The preset shrunk for --smoke: 8 bands, a short service run.
[[nodiscard]] Preset smoke_preset(const Preset& p);
/// The pipeline configuration a preset resolves to.
[[nodiscard]] fx::fftx::PipelineConfig pipeline_config(const Preset& p);
/// Resolved configuration for the result JSON.
[[nodiscard]] Value describe(const Preset& p);

/// Metric sink of one pass, plus the operation and check counts.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void config(const std::string& key, Value v) { config_[key] = std::move(v); }
  /// Records one checked operation; `ok` false counts it as failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] Value to_json() const;
  void print(std::FILE* out) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  fx::core::json::Object config_;
  int attempted_ = 0;
  int failed_ = 0;
};

/// The ledger's own spans (set-up, runs, checks, layer probes), kept in
/// memory and written at exit.  Thread-safe: rank threads record runs.
class Spans {
 public:
  int begin(const std::string& name, int parent = -1, int run = -1);
  void end(int id);
  [[nodiscard]] Value to_json() const;

 private:
  struct Rec {
    std::string name;
    int parent;
    int run;
    double t_begin;
    double t_end;
  };
  mutable std::mutex mu_;
  std::vector<Rec> recs_;
};

/// Scoped span over a Spans log.
class Span {
 public:
  Span(Spans& log, const std::string& name, int parent = -1, int run = -1)
      : log_(log), id_(log.begin(name, parent, run)) {}
  ~Span() { log_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Spans& log_;
  int id_;
};

// --- host-speed probe (probe.cpp) ---
//
// The reference host throttles each vCPU by a credit scheme invisible to
// the guest (no steal ticks), and its neighbours contend for the cores and
// the shared cache, so its speed switches between regimes up to 1.7x apart
// within seconds and drifts by as much within minutes.  Every end-to-end
// interval is therefore bracketed by this probe -- a fixed miniature band
// loop in the ledger's own code, run on as many threads as the workload
// keeps busy (on the rank threads themselves where the ledger owns them)
// -- and reported as host-normalized time: raw seconds x the mean of the
// probe speeds just before and just after, i.e. the time the interval
// would have taken with the reference host at its typical sustained speed.
// Raw times stay in the result JSON under raw.*.
class Probe {
 public:
  /// A probe of `threads` slots that run at once (8 MB each).
  explicit Probe(int threads);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Runs one slot and returns its seconds.  Every slot must run at the
  /// same time, each on its own thread (they synchronize).
  double run(int slot);
  [[nodiscard]] int threads() const { return n_; }

 private:
  int n_;
  std::barrier<> sync_;
  std::vector<std::vector<Cplx>> a_;
  std::vector<std::vector<Cplx>> b_;
  std::mutex mu_;  ///< guards token_
  std::condition_variable cv_;
  int token_ = 0;  ///< slot whose turn it is in the hand-off ring
};
/// Runs slots [first, first + count) -- the first on the calling thread,
/// the rest on helper threads -- and returns the sum of their seconds.
double run_slots(Probe& probe, int first, int count);
/// Probe speed: the probe's nominal time over `seconds` per slot (1 =
/// typical, 0.5 = the host is running at half that speed).
[[nodiscard]] double speed_of(double seconds);
/// Probe speed over all of `probe`'s slots, run from the calling thread.
/// One Probe serves a whole pass, so its buffers are allocated once and
/// add a constant to peak RSS rather than fragmenting the heap.
[[nodiscard]] double host_speed(Probe& probe);
/// Threads a workload keeps busy: rank threads x task workers.
[[nodiscard]] int busy_threads(const Preset& p);

/// One timed interval and the probe speeds that bracket it.
struct Interval {
  double raw_s = 0.0;
  double speed_before = 1.0;
  double speed_after = 1.0;
  /// The interval in host-normalized seconds.
  [[nodiscard]] double normalized_s() const {
    return raw_s * 0.5 * (speed_before + speed_after);
  }
};

// --- helpers (main.cpp) ---
/// Sets the end-to-end metrics bands_per_s and latency_ms.{p50,p90,p99}
/// from host-normalized inputs, their raw.* counterparts, host.speed (the
/// median probe speed) and latency_ms.samples.
void report_end_to_end(Report& r, double bands_per_s, double raw_bands_per_s,
                       const std::vector<double>& latency_ms,
                       const std::vector<double>& raw_latency_ms,
                       const std::vector<double>& speeds);
/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Peak resident set (VmHWM) of this process, MB.
[[nodiscard]] double peak_rss_mb();
/// max|got - want| / max|want|.
[[nodiscard]] double rel_error(std::span<const fx::fft::cplx> got,
                               std::span<const fx::fft::cplx> want);
/// Per-wire relative tolerance of an output check.
[[nodiscard]] double wire_tolerance(fx::mpi::WireFormat wire);

// --- passes ---
/// One cold set-up in this process, raw seconds: band loop = Descriptor +
/// first pipeline ctor + initialize_bands; service = Frontend ctor until one
/// request of every traffic class has completed.
double band_loop_setup(const Preset& p, const Options& o);
double service_setup(const Preset& p, const Options& o);

/// End-to-end pass: bands_per_s, latency_ms.* (+ checks).
void band_loop_measure(const Preset& p, const Options& o, Report& r,
                       Spans& spans, int parent);
void service_measure(const Preset& p, const Options& o, Report& r,
                     Spans& spans, int parent);

/// Per-layer pass pieces.
void pipeline_layers(const Preset& p, const Options& o, Report& r,
                     Spans& spans, int parent);
void serve_layers(const Preset& p, const Options& o, Report& r, Spans& spans,
                  int parent);
void kernel_layers(const Preset& p, const Options& o, Report& r,
                   Spans& spans, int parent);

}  // namespace ledger
