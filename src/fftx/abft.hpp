// Algorithm-based fault tolerance (ABFT) for the band-FFT pipeline:
// silent-data-corruption detection per stage, with surgical repair hooks
// for the RecoveryDriver.
//
// The communication hardening (guarded exchanges, recovery, watchdog)
// assumes every FLOP is correct; a bit flip inside an FFT or a scratch
// buffer sails through all of it.  This layer closes that gap with three
// detectors, layered by what they can see:
//
//   1. checksum bands (linearity) -- before each batched FFT stage the
//      guard forms one weighted combination of the batch (fft/checksum.hpp)
//      and transforms it with the same plan; by linearity the result must
//      match the same combination of the transformed batch to roundoff.
//      Catches corruption *inside* the transforms.
//   2. Parseval / energy gauges -- an unnormalized length-n transform
//      scales energy by exactly n; VOFR scales each element by a known
//      real factor; an exchange conserves energy up to wire quantization.
//      A cheap, coarse second detector across every stage, including the
//      transposes (per-band sent/received energies are recorded locally
//      and summed in the verdict's single Allreduce -- the band loop gains
//      no synchronization points).
//   3. at-rest digests -- each stage seals a word digest over its output
//      buffer, verified when the next stage first reads it.  Rounding
//      plays no role between stages, so *any* flipped bit in a parked
//      pencil/planes buffer (the fault injector's flip model) is caught,
//      bit-exactly, at every wire format.
//
// Detections are deferred, not thrown mid-flight: bands are independent,
// so a corrupted band flows harmlessly to the end of run(), where a single
// Allreduce agrees on the per-band verdict across ranks.  In detect mode
// the pipeline then throws core::SdcError in lockstep; under the
// RecoveryDriver in repair mode, the corrupted bands are recomputed in
// place through a one-band ntg==1 pipeline -- no communicator shrink --
// escalating to full shrink-and-replay only if the recompute fails again.
//
// Tolerances: the linearity and energy checks compare quantities that
// legitimately differ by floating-point rounding, so their thresholds are
// roundoff floors (fft/checksum.hpp) -- corruption below the numerical
// noise floor is undetectable in principle and harmless in practice.  The
// digests need no tolerance.  Detection is therefore bit-exact for
// between-stage flips, and noise-floor-bounded for in-compute corruption.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/aligned.hpp"
#include "core/metrics.hpp"
#include "fft/batch1d.hpp"
#include "fft/checksum.hpp"
#include "fft/plan2d.hpp"
#include "fftx/descriptor.hpp"
#include "simmpi/comm.hpp"

namespace fx::fftx {

enum class AbftMode { Off, Detect, Repair };

const char* to_string(AbftMode mode);

/// Parses an FFTX_ABFT value; throws core::Error naming the variable and
/// the accepted values ("off", "detect", "repair") on anything else.
[[nodiscard]] AbftMode parse_abft_mode(const char* value);

/// Default of PipelineConfig::abft from FFTX_ABFT (unset/empty = Off).
[[nodiscard]] AbftMode default_abft_mode();

/// Registry-backed fftx.abft.* instruments, shared with the recovery
/// driver's surgical-repair path.
struct AbftMetrics {
  core::Counter& checks;                ///< invariant evaluations
  core::Counter& detections;            ///< total violations flagged
  core::Counter& digest_detections;
  core::Counter& linearity_detections;
  core::Counter& energy_detections;     ///< Parseval + VOFR + exchange
  core::Counter& repairs;               ///< surgical band replays attempted
  core::Counter& repaired_bands;        ///< replays that verified clean
  core::Counter& escalations;           ///< replays that re-failed
  core::Gauge& linearity_rel_err;       ///< peak residual/scale (clean runs)
  core::Gauge& energy_rel_err;          ///< peak relative energy mismatch
};
AbftMetrics& abft_metrics();

/// Per-pipeline ABFT state.  One guard serves every concurrent iteration:
/// all mutable per-iteration state lives in a Scratch owned by the
/// iteration's WorkBuffers, and the per-band corruption flags are
/// single-writer slots (rank w carries band iter + g in iteration iter).
class AbftGuard {
 public:
  /// `desc` must outlive the guard (the pipeline holds it by shared_ptr).
  /// `npsi` is the carried-band count (flag vector size).
  AbftGuard(const Descriptor& desc, int group, int group_rank, int npsi,
            mpi::WireFormat wire);

  struct Scratch {
    core::aligned_vector<fft::cplx> zcap;   ///< Z checksum band (input combo)
    core::aligned_vector<fft::cplx> zref;   ///< its transform
    core::aligned_vector<fft::cplx> xycap;  ///< XY checksum plane
    core::aligned_vector<fft::cplx> xyref;
    double z_e_pre = 0.0;   ///< Parseval input energy of the Z stage
    double xy_e_pre = 0.0;
    /// Exchange conservation inputs, [dir][{sent, received, elems}] with
    /// dir 0 = forward scatter, 1 = backward; folded into the per-band
    /// ledger by finish_iteration and summed across ranks in verdict().
    double ex[2][3] = {{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
    /// Post-transform pencil energy from the last z_verify -- the forward
    /// scatter's sent energy, reused so the send side costs no extra pass.
    double z_e_post = 0.0;
    /// The backward scatter's sent (stick-column) energy, carried from the
    /// stage's before half to its after half across the transpose.
    double bw_e_send = 0.0;
    /// Expected post-VOFR energy, armed by vofr_arm and settled against the
    /// next capture's energy (the backward XY stage reads the same buffer,
    /// so the check rides its accumulation pass).  Negative = not armed.
    double vofr_e = -1.0;
    /// Set by exchange_send; the next capture pass over the received buffer
    /// (xy_capture forward, z_verify backward) supplies the ledger's
    /// received energy instead of a dedicated energy pass.
    bool recv_pending[2] = {false, false};
    /// Whether the in-flight XY stage carries the full linearity check or
    /// the light Parseval+digest path (see xy_begin).
    bool xy_linear = true;
    std::uint64_t pencil_digest = 0;
    std::uint64_t planes_digest = 0;
    bool pencil_sealed = false;
    bool planes_sealed = false;
    int iter = 0;
    bool corrupt = false;
  };

  /// Resets `s` for iteration `iter` (call at the top of the band loop;
  /// pooled WorkBuffers carry stale seals otherwise).
  void begin_iteration(Scratch& s, int iter) const;
  /// Folds the iteration's verdict into the per-band flag vector.
  void finish_iteration(const Scratch& s);

  // -- checksum band + Parseval across the batched Z-FFT --
  /// Stage entry: starts a fresh Z checksum band and accumulates all `nst`
  /// sticks of `pencil` into it, checking the pencil's at-rest seal in the
  /// same streaming pass (the accumulation's digest of the touched region
  /// is bit-identical to the seal's, so the check costs no extra read).
  void z_begin(Scratch& s, const fft::cplx* pencil, std::size_t nst);
  /// After the stage transformed all `nst` sticks in place: transforms the
  /// checksum band with the same-direction plan and checks linearity and
  /// Parseval.  The recombination pass doubles as the post-stage
  /// seal_pencil (fused digest), so callers need no separate seal.
  void z_verify(Scratch& s, const fft::cplx* pencil, std::size_t nst,
                fft::Direction dir);

  // -- checksum plane + Parseval across the per-plane XY-FFT --
  /// Also settles a pending received-energy record (forward exchange) and
  /// an armed VOFR bracket against the capture's energy, so neither costs
  /// an extra pass over the planes.
  void xy_capture(Scratch& s, const fft::cplx* planes, std::size_t npz);
  /// Fused stage entry: check_planes + xy_capture in one pass (see
  /// z_begin).  The checksum-plane transform is by far the most expensive
  /// ABFT component on small grids (one extra 2D FFT per stage, ~1/npz of
  /// the stage's own compute), so the full linearity check alternates
  /// direction per iteration: each XY stage class keeps periodic linearity
  /// coverage while the off-duty stage runs a light pass that still
  /// carries Parseval, the exchange/VOFR energy settlements, and the
  /// bit-exact at-rest digests at full rate.
  void xy_begin(Scratch& s, const fft::cplx* planes, std::size_t npz,
                fft::Direction dir);
  /// As z_verify: the recombination pass doubles as seal_planes.  Follows
  /// the duty cycle chosen by xy_begin/xy_capture (Scratch::xy_linear).
  void xy_verify(Scratch& s, const fft::cplx* planes, std::size_t npz,
                 fft::Direction dir);

  // -- VOFR energy bracket --
  /// Expected post-VOFR energy, sum |v_i * x_i|^2, from pre-VOFR values.
  [[nodiscard]] double vofr_expected(const fft::cplx* planes,
                                     const double* v, std::size_t n) const;
  /// Arms the bracket: the next xy_capture (the backward XY stage reads the
  /// VOFR output directly) compares its energy against `expected`.
  void vofr_arm(Scratch& s, double expected) const { s.vofr_e = expected; }

  // -- at-rest digests across stage gaps --
  void seal_pencil(Scratch& s, const fft::cplx* p, std::size_t n) const;
  void seal_planes(Scratch& s, const fft::cplx* p, std::size_t n) const;
  /// One-shot: verifies and clears the seal (a transformed buffer's old
  /// digest must not linger).  No-op when unsealed.
  void check_pencil(Scratch& s, const fft::cplx* p, std::size_t n);
  void check_planes(Scratch& s, const fft::cplx* p, std::size_t n);

  // -- cross-rank exchange energy conservation --
  /// Records one exchange's local {sent, received} energies and element
  /// count (dir 0 = forward scatter, 1 = backward).  Purely local: the
  /// cross-rank comparison happens in verdict(), whose single summed
  /// Allreduce covers every band and both directions at once, so the band
  /// loop gains no extra synchronization points (an inline 3-double
  /// Allreduce per exchange was measured at tens of percent of wall time
  /// from rank-skew wait alone).

  /// Energy of the plane elements the backward scatter actually sends (the
  /// sphere's stick columns; the rest of the dense grid stays local).
  [[nodiscard]] double stick_energy(const fft::cplx* planes) const;

  /// Records the send side; the received energy is supplied by the next
  /// capture pass over the landed buffer (see Scratch::recv_pending).
  void exchange_send(Scratch& s, double sent, std::size_t elems,
                     int dir) const;

  /// End-of-run collective verdict over `world`: a single Allreduce(Sum)
  /// combining the per-band flag votes with the exchange-energy ledger
  /// (conservation evaluated with a wire-aware tolerance, identically on
  /// every rank).  Returns the agreed corrupted carried-band indices
  /// (identical on every rank).  Call once, after the band loop joined.
  const std::vector<int>& verdict(mpi::Comm& world);
  [[nodiscard]] const std::vector<int>& corrupt_bands() const {
    return verdict_;
  }

 private:
  [[nodiscard]] int band_of(int iter) const { return iter + g_; }
  void flag(Scratch& s, core::Counter& detector, const std::string& what);
  /// Settles a pending forward-exchange receive and an armed VOFR bracket
  /// against the capture energy just written to s.xy_e_pre (shared by
  /// xy_capture and the fused xy_begin).
  void xy_settle(Scratch& s, std::size_t npz);
  /// Consumes a pending pencil/planes seal against a digest computed by a
  /// fused pass (shared by z_begin / xy_begin).
  void check_sealed(Scratch& s, std::uint64_t dig, bool pencil);

  const Descriptor* desc_;
  int g_;  ///< task group id (carried band of iteration i is i + g)
  int b_;  ///< group rank (plane/stick owner id)
  mpi::WireFormat wire_;
  std::shared_ptr<const fft::BatchPlan1d> z_fw_;  ///< Backward (to real)
  std::shared_ptr<const fft::BatchPlan1d> z_bw_;  ///< Forward (to recip)
  std::shared_ptr<const fft::Fft2d> xy_fw_;
  std::shared_ptr<const fft::Fft2d> xy_bw_;
  std::vector<unsigned char> flags_;  ///< per carried band, single writer
  /// Exchange-energy ledger: 6 doubles per carried band ([dir][{sent,
  /// received, elems}]), written by the band's single carrier rank and
  /// summed across ranks at verdict time.
  std::vector<double> ex_;
  std::vector<int> verdict_;
};

}  // namespace fx::fftx
