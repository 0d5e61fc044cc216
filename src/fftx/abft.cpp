#include "fftx/abft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "core/error.hpp"
#include "core/format.hpp"
#include "core/hooks.hpp"
#include "fft/plan_cache.hpp"
#include "fft/workspace.hpp"

namespace fx::fftx {

using fft::cplx;

namespace {

// The verdict Allreduce runs on the world communicator after the band
// loop's join; a dedicated tag keeps it apart from iteration traffic and
// the recovery driver's checkpoint gathers (tag 9001).
constexpr int kVerdictTag = 9101;

}  // namespace

const char* to_string(AbftMode mode) {
  switch (mode) {
    case AbftMode::Off:
      return "off";
    case AbftMode::Detect:
      return "detect";
    case AbftMode::Repair:
      return "repair";
  }
  return "?";
}

AbftMode parse_abft_mode(const char* value) {
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "off") return AbftMode::Off;
  if (v == "detect") return AbftMode::Detect;
  if (v == "repair") return AbftMode::Repair;
  throw core::Error(core::cat("invalid FFTX_ABFT='", v,
                              "': expected off, detect, or repair"));
}

AbftMode default_abft_mode() {
  return parse_abft_mode(std::getenv("FFTX_ABFT"));
}

AbftMetrics& abft_metrics() {
  auto& reg = core::MetricsRegistry::global();
  static AbftMetrics m{reg.counter("fftx.abft.checks"),
                       reg.counter("fftx.abft.detections"),
                       reg.counter("fftx.abft.digest_detections"),
                       reg.counter("fftx.abft.linearity_detections"),
                       reg.counter("fftx.abft.energy_detections"),
                       reg.counter("fftx.abft.repairs"),
                       reg.counter("fftx.abft.repaired_bands"),
                       reg.counter("fftx.abft.escalations"),
                       reg.gauge("fftx.abft.linearity_rel_err"),
                       reg.gauge("fftx.abft.energy_rel_err")};
  return m;
}

AbftGuard::AbftGuard(const Descriptor& desc, int group, int group_rank,
                     int npsi, mpi::WireFormat wire)
    : desc_(&desc),
      g_(group),
      b_(group_rank),
      wire_(wire),
      z_fw_(fft::PlanCache::global().batch1d(desc.dims().nz,
                                             fft::Direction::Backward)),
      z_bw_(fft::PlanCache::global().batch1d(desc.dims().nz,
                                             fft::Direction::Forward)),
      xy_fw_(fft::PlanCache::global().plan2d(desc.dims().nx, desc.dims().ny,
                                             fft::Direction::Backward)),
      xy_bw_(fft::PlanCache::global().plan2d(desc.dims().nx, desc.dims().ny,
                                             fft::Direction::Forward)),
      flags_(static_cast<std::size_t>(npsi), 0),
      ex_(static_cast<std::size_t>(npsi) * 6, 0.0) {}

void AbftGuard::begin_iteration(Scratch& s, int iter) const {
  s.iter = iter;
  s.corrupt = false;
  s.pencil_sealed = false;
  s.planes_sealed = false;
  s.z_e_pre = 0.0;
  s.xy_e_pre = 0.0;
  std::memset(s.ex, 0, sizeof(s.ex));
  s.z_e_post = 0.0;
  s.vofr_e = -1.0;
  s.recv_pending[0] = false;
  s.recv_pending[1] = false;
}

void AbftGuard::finish_iteration(const Scratch& s) {
  // Single writer: rank w carries band iter + g_ and no other rank's
  // thread touches this slot; the band loop's join publishes it before
  // verdict() reads.
  const std::size_t band = static_cast<std::size_t>(band_of(s.iter));
  if (s.corrupt) flags_[band] = 1;
  std::memcpy(ex_.data() + band * 6, s.ex, sizeof(s.ex));
}

void AbftGuard::flag(Scratch& s, core::Counter& detector,
                     const std::string& what) {
  s.corrupt = true;
  detector.add();
  abft_metrics().detections.add();
  core::emit_instant(
      core::cat("abft: ", what, " on band ", band_of(s.iter)));
}

void AbftGuard::check_sealed(Scratch& s, std::uint64_t dig, bool pencil) {
  bool& sealed = pencil ? s.pencil_sealed : s.planes_sealed;
  if (!sealed) return;
  sealed = false;
  auto& m = abft_metrics();
  m.checks.add();
  if (dig != (pencil ? s.pencil_digest : s.planes_digest)) {
    flag(s, m.digest_detections,
         pencil ? "pencil digest mismatch (at-rest flip)"
                : "planes digest mismatch (at-rest flip)");
  }
}

void AbftGuard::z_begin(Scratch& s, const cplx* pencil, std::size_t nst) {
  const std::size_t nz = desc_->dims().nz;
  s.zcap.assign(nz, cplx{0.0, 0.0});
  s.zref.resize(nz);
  std::uint64_t dig = 0;
  s.z_e_pre =
      fft::checksum_accumulate_digest(s.zcap.data(), pencil, 0, nst, nz, &dig);
  check_sealed(s, dig, /*pencil=*/true);
}

void AbftGuard::z_verify(Scratch& s, const cplx* pencil, std::size_t nst,
                         fft::Direction dir) {
  if (nst == 0) return;
  const std::size_t nz = desc_->dims().nz;
  auto& m = abft_metrics();
  const fft::BatchPlan1d& plan =
      dir == fft::Direction::Backward ? *z_fw_ : *z_bw_;
  plan.execute_many(1, s.zcap.data(), 1, nz, s.zref.data(), 1, nz,
                    fft::thread_workspace());

  // The backward exchange's received energy is the accumulated pre-FFT
  // pencil energy; settling it here costs nothing.
  if (s.recv_pending[1]) {
    s.recv_pending[1] = false;
    s.ex[1][1] += s.z_e_pre;
  }

  // Recombine the transformed sticks into zcap (its input combo is no
  // longer needed) and compare against the transformed checksum band.
  // The accumulation returns the post-transform energy and the post-stage
  // at-rest digest as side effects, so Parseval, the forward scatter's
  // sent energy, and the seal all ride the same pass.
  s.zcap.assign(nz, cplx{0.0, 0.0});
  const double e_post = fft::checksum_accumulate_digest(
      s.zcap.data(), pencil, 0, nst, nz, &s.pencil_digest);
  s.pencil_sealed = true;
  s.z_e_post = e_post;
  const auto r = fft::checksum_compare(s.zref.data(), s.zcap.data(), nz);
  const double scale = std::max(r.scale, 1e-300);
  m.checks.add();
  m.linearity_rel_err.max_of(r.residual / scale);
  if (!(r.residual <= fft::checksum_tolerance(nz, nst, r.scale))) {
    flag(s, m.linearity_detections,
         core::cat("Z-FFT checksum-band mismatch (residual ", r.residual,
                   ", scale ", r.scale, ")"));
  }

  const double expect = static_cast<double>(nz) * s.z_e_pre;
  const double erel = std::abs(e_post - expect) /
                      std::max({e_post, expect, 1e-300});
  m.checks.add();
  m.energy_rel_err.max_of(erel);
  if (!(erel <= fft::energy_tolerance(nst * nz))) {
    flag(s, m.energy_detections,
         core::cat("Z-FFT Parseval violation (energy ", e_post, ", expected ",
                   expect, ")"));
  }
}

void AbftGuard::xy_capture(Scratch& s, const cplx* planes, std::size_t npz) {
  const std::size_t nxny = desc_->dims().plane();
  s.xycap.assign(nxny, cplx{0.0, 0.0});
  s.xyref.resize(nxny);
  s.xy_e_pre =
      fft::checksum_accumulate(s.xycap.data(), planes, nxny, 0, npz, nxny);
  s.xy_linear = true;
  xy_settle(s, npz);
}

void AbftGuard::xy_begin(Scratch& s, const cplx* planes, std::size_t npz,
                         fft::Direction dir) {
  const std::size_t nxny = desc_->dims().plane();
  std::uint64_t dig = 0;
  // Alternate which XY direction carries the checksum-plane transform:
  // even iterations the forward stage, odd the backward one.
  s.xy_linear = ((s.iter + (dir == fft::Direction::Forward ? 1 : 0)) & 1) == 0;
  if (s.xy_linear) {
    s.xycap.assign(nxny, cplx{0.0, 0.0});
    s.xyref.resize(nxny);
    s.xy_e_pre = fft::checksum_accumulate_digest(s.xycap.data(), planes, 0,
                                                 npz, nxny, &dig);
  } else {
    s.xy_e_pre = fft::energy_digest(planes, npz * nxny, &dig);
  }
  check_sealed(s, dig, /*pencil=*/false);
  xy_settle(s, npz);
}

void AbftGuard::xy_settle(Scratch& s, std::size_t npz) {
  const std::size_t nxny = desc_->dims().plane();
  // Settle the forward exchange's received energy and the VOFR bracket
  // against this pass's energy -- the planes are exactly the landed /
  // post-VOFR buffer, so neither check needs its own pass.
  if (s.recv_pending[0]) {
    s.recv_pending[0] = false;
    s.ex[0][1] += s.xy_e_pre;
  }
  if (s.vofr_e >= 0.0) {
    const double expected = s.vofr_e;
    s.vofr_e = -1.0;
    auto& m = abft_metrics();
    const double e = s.xy_e_pre;
    const double erel =
        std::abs(e - expected) / std::max({e, expected, 1e-300});
    m.checks.add();
    m.energy_rel_err.max_of(erel);
    if (!(erel <= fft::energy_tolerance(npz * nxny))) {
      flag(s, m.energy_detections,
           core::cat("VOFR energy bracket violation (energy ", e,
                     ", expected ", expected, ")"));
    }
  }
}

void AbftGuard::xy_verify(Scratch& s, const cplx* planes, std::size_t npz,
                          fft::Direction dir) {
  if (npz == 0) return;
  const std::size_t nxny = desc_->dims().plane();
  auto& m = abft_metrics();
  double e_post = 0.0;
  if (s.xy_linear) {
    const fft::Fft2d& plan =
        dir == fft::Direction::Backward ? *xy_fw_ : *xy_bw_;
    plan.execute(s.xycap.data(), s.xyref.data(), fft::thread_workspace());

    // As in z_verify, the recombine pass doubles as the Parseval energy
    // pass and as the post-stage seal_planes.
    s.xycap.assign(nxny, cplx{0.0, 0.0});
    e_post = fft::checksum_accumulate_digest(s.xycap.data(), planes, 0, npz,
                                             nxny, &s.planes_digest);
    s.planes_sealed = true;
    const auto r =
        fft::checksum_compare(s.xyref.data(), s.xycap.data(), nxny);
    const double scale = std::max(r.scale, 1e-300);
    m.checks.add();
    m.linearity_rel_err.max_of(r.residual / scale);
    if (!(r.residual <= fft::checksum_tolerance(nxny, npz, r.scale))) {
      flag(s, m.linearity_detections,
           core::cat("XY-FFT checksum-plane mismatch (residual ", r.residual,
                     ", scale ", r.scale, ")"));
    }
  } else {
    // Off-duty direction: Parseval + seal only (see xy_begin).
    e_post = fft::energy_digest(planes, npz * nxny, &s.planes_digest);
    s.planes_sealed = true;
  }

  const double expect = static_cast<double>(nxny) * s.xy_e_pre;
  const double erel = std::abs(e_post - expect) /
                      std::max({e_post, expect, 1e-300});
  m.checks.add();
  m.energy_rel_err.max_of(erel);
  if (!(erel <= fft::energy_tolerance(npz * nxny))) {
    flag(s, m.energy_detections,
         core::cat("XY-FFT Parseval violation (energy ", e_post,
                   ", expected ", expect, ")"));
  }
}

double AbftGuard::vofr_expected(const cplx* planes, const double* v,
                                std::size_t n) const {
  double e = 0.0;
  for (std::size_t i = 0; i < n; ++i) e += std::norm(planes[i]) * v[i] * v[i];
  return e;
}

void AbftGuard::seal_pencil(Scratch& s, const cplx* p, std::size_t n) const {
  s.pencil_digest = fft::digest(p, n);
  s.pencil_sealed = true;
}

void AbftGuard::seal_planes(Scratch& s, const cplx* p, std::size_t n) const {
  s.planes_digest = fft::digest(p, n);
  s.planes_sealed = true;
}

void AbftGuard::check_pencil(Scratch& s, const cplx* p, std::size_t n) {
  if (!s.pencil_sealed) return;
  s.pencil_sealed = false;
  auto& m = abft_metrics();
  m.checks.add();
  if (fft::digest(p, n) != s.pencil_digest) {
    flag(s, m.digest_detections, "pencil digest mismatch (at-rest flip)");
  }
}

void AbftGuard::check_planes(Scratch& s, const cplx* p, std::size_t n) {
  if (!s.planes_sealed) return;
  s.planes_sealed = false;
  auto& m = abft_metrics();
  m.checks.add();
  if (fft::digest(p, n) != s.planes_digest) {
    flag(s, m.digest_detections, "planes digest mismatch (at-rest flip)");
  }
}

void AbftGuard::exchange_send(Scratch& s, double sent, std::size_t elems,
                              int dir) const {
  abft_metrics().checks.add();
  s.ex[dir][0] += sent;
  s.ex[dir][2] += static_cast<double>(elems);
  s.recv_pending[dir] = true;
}

double AbftGuard::stick_energy(const cplx* planes) const {
  const std::size_t nxny = desc_->dims().plane();
  const std::size_t npz_b = desc_->npz(b_);
  double e = 0.0;
  for (int q = 0; q < desc_->group_size(); ++q) {
    for (std::size_t stick : desc_->group_sticks(q)) {
      const cplx* col = planes + desc_->stick_xy(stick);
      for (std::size_t iz = 0; iz < npz_b; ++iz) {
        e += std::norm(col[iz * nxny]);
      }
    }
  }
  return e;
}

const std::vector<int>& AbftGuard::verdict(mpi::Comm& world) {
  verdict_.clear();
  if (flags_.empty()) return verdict_;

  // One Sum-Allreduce carries both the per-band corruption votes (a sum of
  // 0/1 flags is positive iff any rank flagged the band) and the exchange
  // energy ledger, so end-of-run agreement costs a single collective.  The
  // summed ledger reconstructs exactly what a per-exchange Allreduce would
  // have computed (ranks outside a band's carrying group contributed
  // zeros), and every rank evaluates the identical verdict.
  const std::size_t npsi = flags_.size();
  std::vector<double> buf(npsi * 7);
  for (std::size_t i = 0; i < npsi; ++i) {
    std::memcpy(buf.data() + i * 7, ex_.data() + i * 6, 6 * sizeof(double));
    buf[i * 7 + 6] = static_cast<double>(flags_[i]);
  }
  world.allreduce(buf.data(), buf.data(), buf.size(), mpi::ReduceOp::Sum,
                  kVerdictTag);

  auto& m = abft_metrics();
  for (std::size_t i = 0; i < npsi; ++i) {
    bool corrupt = buf[i * 7 + 6] > 0.0;
    for (int dir = 0; dir < 2; ++dir) {
      const double* e = buf.data() + i * 7 + static_cast<std::size_t>(dir) * 3;
      if (!(e[2] > 0.0)) continue;
      const double erel =
          std::abs(e[0] - e[1]) / std::max({e[0], e[1], 1e-300});
      // Wire quantization legitimately perturbs each element by up to
      // wire_rel_eps/2 relative, so the received energy differs by up to
      // about wire_rel_eps; the fp64 floor covers reordered summation.
      const double tol = fft::energy_tolerance(static_cast<std::size_t>(e[2])) +
                         8.0 * mpi::wire_rel_eps(wire_);
      m.energy_rel_err.max_of(erel);
      if (!(erel <= tol)) {
        corrupt = true;
        m.energy_detections.add();
        m.detections.add();
        core::emit_instant(core::cat(
            "abft: ", dir == 0 ? "forward" : "backward",
            " exchange energy not conserved on band ", i, " (sent ", e[0],
            ", received ", e[1], ")"));
      }
    }
    if (corrupt) verdict_.push_back(static_cast<int>(i));
  }
  return verdict_;
}

}  // namespace fx::fftx
