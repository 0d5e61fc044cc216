#include "fftx/pipeline.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/format.hpp"
#include "core/hooks.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "fft/checksum.hpp"
#include "fft/gamma.hpp"
#include "fftx/stream.hpp"
#include "pw/wavefunction.hpp"
#include "simmpi/faults.hpp"
#include "trace/span.hpp"

namespace fx::fftx {

using core::WallTimer;
using fft::cplx;
using fft::Direction;

namespace {
/// Timeline row for the current thread: worker id inside task modes, row 0
/// for the orchestrator / Original mode.
int trace_tid() { return std::max(0, task::current_worker_id()); }

bool env_flag(const char* name) {
  bool on = false;
  core::env_flag(name, on, "pipeline");
  return on;
}

// Exchange-path health: staging_bytes counts every byte the staged
// (non-fused) transposes marshal through intermediate buffers (zero when
// the fused layouts are on -- that is the "zero-copy" claim, measurable).
// The marshal's time is in the Pack/Scatter/Unpack spans around it.
core::Counter& staging_bytes() {
  static core::Counter& c =
      core::MetricsRegistry::global().counter("fftx.exchange.staging_bytes");
  return c;
}

/// Applies the wire round-trip to one value (identity at Fp64).  The
/// ntg == 1 pack/unpack shortcuts use this to reproduce exactly the
/// quantization the multi-group exchanges apply, keeping outputs
/// bit-identical across decompositions at every wire format.
cplx wire_q(mpi::WireFormat f, cplx v) {
  if (f == mpi::WireFormat::Fp64) return v;
  return {mpi::wire_roundtrip(f, v.real()), mpi::wire_roundtrip(f, v.imag())};
}
}  // namespace

bool default_fused_exchange() { return env_flag("FFTX_FUSED_EXCHANGE"); }

bool default_real_bands() { return env_flag("FFTX_R2C"); }

int default_stream_bands() {
  int bands = 2;
  core::env_int_in("FFTX_STREAM_BANDS", bands, 1, 4096, "streaming");
  return bands;
}

const char* to_string(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::Original:
      return "original";
    case PipelineMode::TaskPerStep:
      return "task_per_step";
    case PipelineMode::TaskPerFft:
      return "task_per_fft";
    case PipelineMode::Combined:
      return "combined";
    case PipelineMode::Streaming:
      return "streaming";
  }
  return "?";
}

BandFftPipeline::BandFftPipeline(mpi::Comm world,
                                 std::shared_ptr<const Descriptor> desc,
                                 PipelineConfig cfg, trace::Tracer* tracer)
    : world_(world),
      desc_(std::move(desc)),
      cfg_(cfg),
      tracer_(tracer),
      w_(world.rank()),
      g_(w_ % desc_->ntg()),
      b_(w_ / desc_->ntg()),
      pack_(world_.split(/*color=*/b_, /*key=*/g_)),
      scat_(world_.split(/*color=*/g_, /*key=*/b_)),
      z_to_real_(fft::PlanCache::global().batch1d(desc_->dims().nz,
                                                  Direction::Backward)),
      z_to_recip_(fft::PlanCache::global().batch1d(desc_->dims().nz,
                                                   Direction::Forward)),
      xy_to_real_(fft::PlanCache::global().plan2d(
          desc_->dims().nx, desc_->dims().ny, Direction::Backward)),
      xy_to_recip_(fft::PlanCache::global().plan2d(
          desc_->dims().nx, desc_->dims().ny, Direction::Forward)) {
  FX_CHECK(world_.size() == desc_->nproc(),
           "world size does not match descriptor");
  npsi_ = cfg_.real_bands
              ? static_cast<int>(fft::gamma_pair_count(
                    static_cast<std::size_t>(std::max(0, cfg_.num_bands))))
              : cfg_.num_bands;
  FX_CHECK(npsi_ >= 1 && npsi_ % desc_->ntg() == 0,
           cfg_.real_bands
               ? "real-band pair count must be a positive multiple of ntg"
               : "num_bands must be a positive multiple of ntg");
  FX_ASSERT(pack_.size() == desc_->ntg() && pack_.rank() == g_);
  FX_ASSERT(scat_.size() == desc_->group_size() && scat_.rank() == b_);

  // A narrow wire exists only on the view exchanges, so it implies the
  // fused layouts (the staged Alltoallv would ship fp64 regardless).
  fused_ = cfg_.fused_exchange || cfg_.wire_format != mpi::WireFormat::Fp64;
  // A one-rank scatter group (nproc == ntg) exchanges with itself only: its
  // staged marshal, self-copy and unmarshal collapse to one view copy.
  fused_scatter_ = fused_ || desc_->group_size() == 1;

  const int ntg = desc_->ntg();
  const int rgroup = desc_->group_size();
  const std::size_t ng_w = desc_->ng_world(w_);
  const std::size_t nst_b = desc_->nsticks_group(b_);
  const std::size_t npz_b = desc_->npz(b_);

  psi_arena_.resize(static_cast<std::size_t>(npsi_) * ng_w);

  if (cfg_.apply_potential) vslab_ = desc_->potential(b_);

  pack_counts_.resize(static_cast<std::size_t>(ntg));
  pack_displs_.resize(static_cast<std::size_t>(ntg));
  pack_send_counts_.assign(static_cast<std::size_t>(ntg), ng_w);
  pack_send_displs_.resize(static_cast<std::size_t>(ntg));
  std::size_t off = 0;
  for (int m = 0; m < ntg; ++m) {
    const auto mu = static_cast<std::size_t>(m);
    pack_counts_[mu] = desc_->pack_count(b_, m);
    pack_displs_[mu] = off;
    off += pack_counts_[mu];
    pack_send_displs_[mu] = mu * ng_w;
  }
  FX_ASSERT(off == desc_->ng_group(b_));

  scat_send_counts_.resize(static_cast<std::size_t>(rgroup));
  scat_send_displs_.resize(static_cast<std::size_t>(rgroup));
  scat_recv_counts_.resize(static_cast<std::size_t>(rgroup));
  scat_recv_displs_.resize(static_cast<std::size_t>(rgroup));
  std::size_t soff = 0;
  std::size_t roff = 0;
  for (int p = 0; p < rgroup; ++p) {
    const auto pu = static_cast<std::size_t>(p);
    scat_send_counts_[pu] = nst_b * desc_->npz(p);
    scat_send_displs_[pu] = soff;
    soff += scat_send_counts_[pu];
    scat_recv_counts_[pu] = desc_->nsticks_group(p) * npz_b;
    scat_recv_displs_[pu] = roff;
    roff += scat_recv_counts_[pu];
  }

  if (fused_scatter_) {
    // Fused layouts (see the header): stick-ordered scatter runs.
    const std::size_t nz = desc_->dims().nz;
    const std::size_t nxny = desc_->dims().plane();
    scat_send_runs_.resize(static_cast<std::size_t>(rgroup));
    scat_recv_runs_.resize(static_cast<std::size_t>(rgroup));
    for (int p = 0; p < rgroup; ++p) {
      const auto pu = static_cast<std::size_t>(p);
      const std::size_t first = desc_->first_plane(p);
      const std::size_t count = desc_->npz(p);
      scat_send_runs_[pu].reserve(nst_b);
      for (std::size_t s = 0; s < nst_b; ++s) {
        scat_send_runs_[pu].push_back(mpi::SegRun{s * nz + first, count, 1});
      }
      const auto sticks = desc_->group_sticks(p);
      scat_recv_runs_[pu].reserve(sticks.size());
      for (std::size_t s : sticks) {
        scat_recv_runs_[pu].push_back(
            mpi::SegRun{desc_->stick_xy(s), npz_b, nxny});
      }
    }
    for (std::size_t p = 0; p < scat_send_runs_.size(); ++p) {
      pencil_views_.emplace_back(scat_send_runs_[p]);
      plane_views_.emplace_back(scat_recv_runs_[p]);
    }
  }
  if (fused_) {
    for (int m = 0; m < ntg; ++m) {
      const auto mu = static_cast<std::size_t>(m);
      psi_runs_.push_back(mpi::SegRun{mu * ng_w, ng_w, 1});
      group_runs_.push_back(mpi::SegRun{pack_displs_[mu], pack_counts_[mu], 1});
    }
    for (std::size_t m = 0; m < psi_runs_.size(); ++m) {
      psi_views_.emplace_back(&psi_runs_[m], 1);
      group_views_.emplace_back(&group_runs_[m], 1);
    }
  }

  if (tracer_ != nullptr || trace::obs_active() != nullptr) {
    // One observer feeds both sinks: the post-hoc tracer and the live
    // observatory (which attributes exchange time to iterations by tag --
    // data exchanges carry tag == iter, control tags are out of range).
    auto forward = [this](const mpi::CommEvent& e) {
      if (tracer_ != nullptr) {
        tracer_->record_comm(trace::CommOpEvent{
            w_, std::max(0, task::current_worker_id()), e.kind, e.comm_id,
            e.comm_size, e.tag, e.bytes, e.t_begin, e.t_end});
      }
      if (trace::Observatory* obs = trace::obs_active()) {
        obs->record_comm(w_, e.tag, e.t_end - e.t_begin);
      }
    };
    world_.set_observer(forward);
    pack_.set_observer(forward);
    scat_.set_observer(forward);
  }

  if (cfg_.mode != PipelineMode::Original) {
    FX_CHECK(cfg_.nthreads >= 1, "task modes need at least one worker");
    rt_ = std::make_unique<task::TaskRuntime>(cfg_.nthreads);
    if (tracer_ != nullptr) rt_->set_tracer(tracer_, w_);
  }

  if (cfg_.abft != AbftMode::Off) {
    abft_ = std::make_unique<AbftGuard>(*desc_, g_, b_, npsi_,
                                        cfg_.wire_format);
  }
  wrank_ = world_.world_rank();
  if (mpi::FaultInjector* fi = world_.fault_injector();
      fi != nullptr && fi->plan().flips_active()) {
    flip_ = fi;
  }
}

BandFftPipeline::~BandFftPipeline() = default;

std::unique_ptr<BandFftPipeline::WorkBuffers> BandFftPipeline::make_buffers()
    const {
  auto wb = std::make_unique<WorkBuffers>();
  const std::size_t ng_w = desc_->ng_world(w_);
  wb->band_g.resize(desc_->ng_group(b_));
  wb->pencil.resize(desc_->pencil_size(b_));
  wb->planes.resize(desc_->plane_size(b_));
  // The staging buffers exist only on the marshalled paths; the fused
  // exchanges address pencil/planes/psi directly.
  if (!fused_) {
    wb->pack_send.resize(static_cast<std::size_t>(desc_->ntg()) * ng_w);
  }
  if (!fused_scatter_) {
    wb->stage.resize(desc_->pencil_size(b_));
    wb->plane_stage.resize(desc_->total_sticks() * desc_->npz(b_));
  }
  return wb;
}

BandFftPipeline::BorrowedBuffers BandFftPipeline::acquire_buffers() {
  {
    std::lock_guard lock(pool_mu_);
    if (!pool_.empty()) {
      BorrowedBuffers wb(pool_.back().release(), ReturnBuffers{this});
      pool_.pop_back();
      return wb;
    }
  }
  return {make_buffers().release(), ReturnBuffers{this}};
}

void BandFftPipeline::release_buffers(WorkBuffers* wb) {
  std::lock_guard lock(pool_mu_);
  pool_.emplace_back(wb);
}

void BandFftPipeline::initialize_bands(int first_band) {
  const auto ordered = desc_->world_sticks().stick_ordered_g();
  const auto index = desc_->world_g_index(w_);
  if (!cfg_.real_bands) {
    for (int n = 0; n < npsi_; ++n) {
      cplx* band = band_data(n);
      for (std::size_t k = 0; k < index.size(); ++k) {
        band[k] = pw::wf_coefficient(first_band + n, ordered[index[k]]);
      }
    }
    return;
  }
  // Gamma-point packing: symmetrize each band so c(-G) == conj(c(G)) --
  // i.e. its real-space field is real -- then carry bands (2p, 2p + 1) as
  // the real/imaginary parts of one complex band.  An odd band count
  // leaves the last pair's imaginary part zero (see gamma_pair_count).
  auto herm = [&](int b, const pw::GVector& g) {
    const pw::GVector ng{-g.mx, -g.my, -g.mz, g.m2};
    const cplx c = pw::wf_coefficient(b, g);
    const cplx cneg = pw::wf_coefficient(b, ng);
    return 0.5 * (c + std::conj(cneg));
  };
  for (int p = 0; p < npsi_; ++p) {
    cplx* band = band_data(p);
    const int lo = first_band + 2 * p;
    const bool has_hi = 2 * p + 1 < cfg_.num_bands;
    for (std::size_t k = 0; k < index.size(); ++k) {
      const pw::GVector& g = ordered[index[k]];
      const cplx re = herm(lo, g);
      const cplx im = has_hi ? herm(lo + 1, g) : cplx{0.0, 0.0};
      band[k] = re + cplx{0.0, 1.0} * im;
    }
  }
}

std::span<const cplx> BandFftPipeline::band(int n) const {
  const std::size_t ng_w = desc_->ng_world(w_);
  return {psi_arena_.data() + static_cast<std::size_t>(n) * ng_w, ng_w};
}

void BandFftPipeline::set_band(int n, std::span<const cplx> coeffs) {
  const std::size_t ng_w = desc_->ng_world(w_);
  FX_CHECK(n >= 0 && n < npsi_, "set_band: band index out of range");
  FX_CHECK(coeffs.size() == ng_w,
           "set_band: span length must equal ng_world(rank)");
  std::copy(coeffs.begin(), coeffs.end(), band_data(n));
}

void BandFftPipeline::flip(cplx* p, std::size_t n) {
  if (flip_ != nullptr) flip_->maybe_flip(wrank_, p, n * sizeof(cplx));
}

std::vector<int> BandFftPipeline::abft_corrupt_bands() const {
  return abft_ != nullptr ? abft_->corrupt_bands() : std::vector<int>{};
}

void BandFftPipeline::transpose(const Transpose& t, int tag) {
  mpi::Comm& comm = *t.comm;
  const bool views = !t.sviews.empty();
  if (views && cfg_.guard_exchanges) {
    guarded_alltoallv_view(comm, t.send, t.sviews, t.recv, t.rviews, tag,
                           &guard_stats_, cfg_.wire_format, cfg_.deadline);
  } else if (views) {
    comm.alltoallv_view(t.send, t.sviews, t.recv, t.rviews, sizeof(cplx), tag,
                        cfg_.wire_format);
  } else if (cfg_.guard_exchanges) {
    guarded_alltoallv(comm, t.send, t.scounts, t.sdispls, t.recv, t.rcounts,
                      t.rdispls, tag, &guard_stats_, cfg_.deadline);
  } else {
    comm.alltoallv(t.send, t.scounts, t.sdispls, t.recv, t.rcounts, t.rdispls,
                   tag);
  }
}

// --- Exchange stages --------------------------------------------------------
//
// Each exchange stage is split around its transpose (see ExchangeStage).
// Blocking execution runs before, transpose, after; the streaming split
// path posts the same transpose nonblocking and runs the after half in its
// completion waitable.  Arithmetic and hook order are identical either way,
// which keeps every schedule bit-identical to the Original oracle.

const BandFftPipeline::ExchangeStage BandFftPipeline::kPack{
    "pack", &BandFftPipeline::pack_before, nullptr};
const BandFftPipeline::ExchangeStage BandFftPipeline::kScatterFw{
    "scatter_fw", &BandFftPipeline::scatter_fw_before,
    &BandFftPipeline::scatter_fw_after};
const BandFftPipeline::ExchangeStage BandFftPipeline::kScatterBw{
    "scatter_bw", &BandFftPipeline::scatter_bw_before,
    &BandFftPipeline::scatter_bw_after};
const BandFftPipeline::ExchangeStage BandFftPipeline::kUnpack{
    "unpack", &BandFftPipeline::unpack_before,
    &BandFftPipeline::unpack_after};

void BandFftPipeline::do_exchange(const ExchangeStage& x, WorkBuffers& wb,
                                  int iter) {
  const Transpose t = (this->*x.before)(wb, iter);
  if (t.comm != nullptr) transpose(t, /*tag=*/iter);
  if (x.after != nullptr) (this->*x.after)(wb, iter);
}

BandFftPipeline::Transpose BandFftPipeline::pack_before(WorkBuffers& wb,
                                                        int iter) {
  const int ntg = desc_->ntg();
  const std::size_t ng_w = desc_->ng_world(w_);
  if (abft_ != nullptr) abft_->begin_iteration(wb.abft, iter);
  if (trace::Observatory* obs = trace::obs_active()) {
    obs->iteration_begin(w_, iter);
  }
  if (ntg == 1) {
    // No task groups: the group coefficient order equals the packed order,
    // so the band-grouping layer (marshal + Alltoallv) disappears -- the
    // same shortcut QE takes when task groups are off.  A narrow wire is
    // still applied: the multi-group pack exchange would quantize these
    // coefficients in flight, and replaying a band on a different
    // decomposition must reproduce that bit pattern exactly.
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Pack, iter,
                   trace::copy_cost(ng_w).instructions);
    const cplx* src = band_data(iter);
    if (cfg_.wire_format == mpi::WireFormat::Fp64) {
      std::copy(src, src + ng_w, wb.band_g.begin());
    } else {
      for (std::size_t k = 0; k < ng_w; ++k) {
        wb.band_g[k] = wire_q(cfg_.wire_format, src[k]);
      }
    }
    return {};
  }
  if (fused_) {
    // Zero-copy pack: member m's segment is band iter + m in the psi
    // arena; the exchange gathers straight from there into band_g.
    return {.comm = &pack_, .send = band_data(iter), .recv = wb.band_g.data(),
            .sviews = psi_views_, .rviews = group_views_};
  }
  {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Pack, iter,
                   trace::copy_cost(static_cast<std::size_t>(ntg) * ng_w)
                       .instructions);
    for (int m = 0; m < ntg; ++m) {
      const cplx* src = band_data(iter + m);
      std::copy(src, src + ng_w,
                wb.pack_send.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(m) * ng_w));
    }
    staging_bytes().add(static_cast<std::size_t>(ntg) * ng_w * sizeof(cplx));
  }
  return {.comm = &pack_, .send = wb.pack_send.data(),
          .recv = wb.band_g.data(), .scounts = pack_send_counts_.data(),
          .sdispls = pack_send_displs_.data(), .rcounts = pack_counts_.data(),
          .rdispls = pack_displs_.data()};
}

BandFftPipeline::Transpose BandFftPipeline::scatter_fw_before(
    WorkBuffers& wb, int iter) {
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.pencil.size()).instructions);
    abft_->check_pencil(wb.abft, wb.pencil.data(), wb.pencil.size());
  }
  if (fused_scatter_) {
    // Zero-copy scatter: the exchange reads stick sections straight out of
    // the pencil buffer and lands them at each stick's (x, y) column of
    // the zero-filled planes -- both marshalling passes are gone.
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Scatter, iter,
                   trace::copy_cost(wb.planes.size()).instructions);
    std::fill(wb.planes.begin(), wb.planes.end(), cplx{0.0, 0.0});
    return {.comm = &scat_, .send = wb.pencil.data(), .recv = wb.planes.data(),
            .sviews = pencil_views_, .rviews = plane_views_};
  }
  {  // Marshal pencil sections per destination rank: [peer][stick][iz].
    trace::ScopedSpan span(tracer_, w_, trace_tid(),
                           trace::PhaseKind::Scatter, iter);
    const std::size_t nz = desc_->dims().nz;
    const std::size_t nst = desc_->nsticks_group(b_);
    std::size_t pos = 0;
    for (int p = 0; p < desc_->group_size(); ++p) {
      const std::size_t first = desc_->first_plane(p);
      const std::size_t count = desc_->npz(p);
      for (std::size_t s = 0; s < nst; ++s) {
        const cplx* src = wb.pencil.data() + s * nz + first;
        std::copy(src, src + count, wb.stage.data() + pos);
        pos += count;
      }
    }
    span.set_instructions(trace::copy_cost(pos).instructions);
    staging_bytes().add(pos * sizeof(cplx));
  }
  return {.comm = &scat_, .send = wb.stage.data(),
          .recv = wb.plane_stage.data(), .scounts = scat_send_counts_.data(),
          .sdispls = scat_send_displs_.data(),
          .rcounts = scat_recv_counts_.data(),
          .rdispls = scat_recv_displs_.data()};
}

void BandFftPipeline::scatter_fw_after(WorkBuffers& wb, int iter) {
  if (!fused_scatter_) {  // Unmarshal into zero-filled planes at (x, y).
    trace::ScopedSpan span(tracer_, w_, trace_tid(),
                           trace::PhaseKind::Scatter, iter);
    const std::size_t npz_b = desc_->npz(b_);
    const std::size_t nxny = desc_->dims().plane();
    std::fill(wb.planes.begin(), wb.planes.end(), cplx{0.0, 0.0});
    std::size_t pos = 0;
    for (int q = 0; q < desc_->group_size(); ++q) {
      for (std::size_t s : desc_->group_sticks(q)) {
        const std::size_t xy = desc_->stick_xy(s);
        for (std::size_t iz = 0; iz < npz_b; ++iz) {
          wb.planes[iz * nxny + xy] = wb.plane_stage[pos++];
        }
      }
    }
    span.set_instructions(
        trace::copy_cost(wb.planes.size() + pos).instructions);
    staging_bytes().add(pos * sizeof(cplx));
  }
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.planes.size()).instructions);
    // The forward scatter ships the whole pencil (every stick section goes
    // to exactly one peer), so the sent energy is the post-Z pencil energy
    // z_verify already computed; the received energy lands with the next
    // xy_capture pass over the planes.
    std::size_t elems = 0;
    for (std::size_t c : scat_recv_counts_) elems += c;
    abft_->exchange_send(wb.abft, wb.abft.z_e_post, elems, 0);
    abft_->seal_planes(wb.abft, wb.planes.data(), wb.planes.size());
  }
  flip(wb.planes.data(), wb.planes.size());
}

BandFftPipeline::Transpose BandFftPipeline::scatter_bw_before(
    WorkBuffers& wb, int iter) {
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.planes.size()).instructions);
    abft_->check_planes(wb.abft, wb.planes.data(), wb.planes.size());
    // Only the sphere's stick columns travel back (the dense grid between
    // sticks stays local), so sent energy is the stick-column energy, and
    // the received data covers the pencil exactly once.
    wb.abft.bw_e_send = abft_->stick_energy(wb.planes.data());
  }
  if (fused_scatter_) {
    // The forward layouts with the sides swapped: (x, y) columns of the
    // planes go back to stick sections of the pencil, which is covered
    // exactly once (no zero fill needed).
    return {.comm = &scat_, .send = wb.planes.data(), .recv = wb.pencil.data(),
            .sviews = plane_views_, .rviews = pencil_views_};
  }
  {  // Marshal plane sticks back: exact reverse of the forward unmarshal.
    trace::ScopedSpan span(tracer_, w_, trace_tid(),
                           trace::PhaseKind::Scatter, iter);
    const std::size_t npz_b = desc_->npz(b_);
    const std::size_t nxny = desc_->dims().plane();
    std::size_t pos = 0;
    for (int q = 0; q < desc_->group_size(); ++q) {
      for (std::size_t s : desc_->group_sticks(q)) {
        const std::size_t xy = desc_->stick_xy(s);
        for (std::size_t iz = 0; iz < npz_b; ++iz) {
          wb.plane_stage[pos++] = wb.planes[iz * nxny + xy];
        }
      }
    }
    span.set_instructions(trace::copy_cost(pos).instructions);
    staging_bytes().add(pos * sizeof(cplx));
  }
  // Counts swap relative to the forward scatter.
  return {.comm = &scat_, .send = wb.plane_stage.data(),
          .recv = wb.stage.data(), .scounts = scat_recv_counts_.data(),
          .sdispls = scat_recv_displs_.data(),
          .rcounts = scat_send_counts_.data(),
          .rdispls = scat_send_displs_.data()};
}

void BandFftPipeline::scatter_bw_after(WorkBuffers& wb, int iter) {
  if (!fused_scatter_) {  // Unmarshal pencil sections: reverse of the marshal.
    trace::ScopedSpan span(tracer_, w_, trace_tid(),
                           trace::PhaseKind::Scatter, iter);
    const std::size_t nz = desc_->dims().nz;
    const std::size_t nst = desc_->nsticks_group(b_);
    std::size_t pos = 0;
    for (int p = 0; p < desc_->group_size(); ++p) {
      const std::size_t first = desc_->first_plane(p);
      const std::size_t count = desc_->npz(p);
      for (std::size_t s = 0; s < nst; ++s) {
        cplx* dst = wb.pencil.data() + s * nz + first;
        std::copy(wb.stage.data() + pos, wb.stage.data() + pos + count, dst);
        pos += count;
      }
    }
    span.set_instructions(trace::copy_cost(pos).instructions);
    staging_bytes().add(pos * sizeof(cplx));
  }
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.pencil.size()).instructions);
    // The received energy is the pre-FFT pencil energy the Z stage's
    // checksum capture accumulates anyway; z_verify settles the record.
    abft_->exchange_send(wb.abft, wb.abft.bw_e_send, wb.pencil.size(), 1);
    abft_->seal_pencil(wb.abft, wb.pencil.data(), wb.pencil.size());
  }
  flip(wb.pencil.data(), wb.pencil.size());
}

BandFftPipeline::Transpose BandFftPipeline::unpack_before(WorkBuffers& wb,
                                                          int iter) {
  const double inv_vol = 1.0 / static_cast<double>(desc_->dims().volume());
  const auto pidx = desc_->pencil_index(b_);
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.pencil.size()).instructions);
    abft_->check_pencil(wb.abft, wb.pencil.data(), wb.pencil.size());
  }
  FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Unpack, iter,
                 trace::copy_cost(pidx.size()).instructions);
  if (desc_->ntg() == 1) {
    // Inverse of the ntg == 1 pack shortcut: rescale straight into psi,
    // applying the wire round-trip the multi-group unpack exchange would
    // (see pack_before; a one-group replay must be bit-identical to the
    // original decomposition's output at every wire format).
    cplx* dst = band_data(iter);
    if (cfg_.wire_format == mpi::WireFormat::Fp64) {
      for (std::size_t k = 0; k < pidx.size(); ++k) {
        dst[k] = wb.pencil[pidx[k]] * inv_vol;
      }
    } else {
      for (std::size_t k = 0; k < pidx.size(); ++k) {
        dst[k] = wire_q(cfg_.wire_format, wb.pencil[pidx[k]] * inv_vol);
      }
    }
    return {};
  }
  for (std::size_t k = 0; k < pidx.size(); ++k) {
    wb.band_g[k] = wb.pencil[pidx[k]] * inv_vol;
  }
  if (fused_) {
    // Reverse zero-copy pack: member m's segment of band_g scatters
    // straight into band iter + m of the psi arena.
    return {.comm = &pack_, .send = wb.band_g.data(), .recv = band_data(iter),
            .sviews = group_views_, .rviews = psi_views_};
  }
  // Reverse band redistribution: segment m of band_g returns to member m.
  return {.comm = &pack_, .send = wb.band_g.data(),
          .recv = wb.pack_send.data(), .scounts = pack_counts_.data(),
          .sdispls = pack_displs_.data(), .rcounts = pack_send_counts_.data(),
          .rdispls = pack_send_displs_.data()};
}

void BandFftPipeline::unpack_after(WorkBuffers& wb, int iter) {
  const int ntg = desc_->ntg();
  if (ntg > 1 && !fused_) {
    const std::size_t ng_w = desc_->ng_world(w_);
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Unpack, iter,
                   trace::copy_cost(static_cast<std::size_t>(ntg) * ng_w)
                       .instructions);
    for (int m = 0; m < ntg; ++m) {
      cplx* dst = band_data(iter + m);
      const cplx* src =
          wb.pack_send.data() + static_cast<std::size_t>(m) * ng_w;
      std::copy(src, src + ng_w, dst);
    }
    staging_bytes().add(static_cast<std::size_t>(ntg) * ng_w * sizeof(cplx));
  }
  if (abft_ != nullptr) abft_->finish_iteration(wb.abft);
}

void BandFftPipeline::do_psi_prep(WorkBuffers& wb, int iter) {
  const auto pidx = desc_->pencil_index(b_);
  FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::PsiPrep, iter,
                 trace::copy_cost(wb.pencil.size() + pidx.size())
                     .instructions);
  std::fill(wb.pencil.begin(), wb.pencil.end(), cplx{0.0, 0.0});
  for (std::size_t k = 0; k < pidx.size(); ++k) {
    wb.pencil[pidx[k]] = wb.band_g[k];
  }
  if (abft_ != nullptr) {
    abft_->seal_pencil(wb.abft, wb.pencil.data(), wb.pencil.size());
  }
  flip(wb.pencil.data(), wb.pencil.size());
}

namespace {
// taskloop grain sizes: the paper's 200 sticks per cft_2z chunk and 10
// planes per cft_2xy chunk (bench_ablation_grain sweeps them in the model).
constexpr std::size_t kGrainZ = 200;
constexpr std::size_t kGrainXy = 10;
}  // namespace

void BandFftPipeline::do_fft_z(WorkBuffers& wb, int iter, Direction dir,
                               bool use_taskloop) {
  const std::size_t nst = desc_->nsticks_group(b_);
  const std::size_t nz = desc_->dims().nz;
  const fft::BatchPlan1d& plan =
      dir == Direction::Backward ? *z_to_real_ : *z_to_recip_;
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.pencil.size()).instructions);
    abft_->z_begin(wb.abft, wb.pencil.data(), nst);
  }
  auto chunk = [&](std::size_t lo, std::size_t hi) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::FftZ, iter,
                   trace::fft_cost((hi - lo) * nz, nz).instructions);
    plan.execute_many(hi - lo, wb.pencil.data() + lo * nz, 1, nz,
                      wb.pencil.data() + lo * nz, 1, nz,
                      fft::thread_workspace());
  };
  if (use_taskloop && rt_ != nullptr && nst > 0) {
    rt_->taskloop("fft_z", 0, nst, kGrainZ, chunk);
  } else {
    chunk(0, nst);
  }
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.pencil.size()).instructions);
    abft_->z_verify(wb.abft, wb.pencil.data(), nst, dir);
  }
  flip(wb.pencil.data(), wb.pencil.size());
}

void BandFftPipeline::do_fft_xy(WorkBuffers& wb, int iter, Direction dir,
                                bool use_taskloop) {
  const std::size_t npz_b = desc_->npz(b_);
  const std::size_t nxny = desc_->dims().plane();
  const fft::Fft2d& plan =
      dir == Direction::Backward ? *xy_to_real_ : *xy_to_recip_;
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.planes.size()).instructions);
    abft_->xy_begin(wb.abft, wb.planes.data(), npz_b, dir);
  }
  auto chunk = [&](std::size_t lo, std::size_t hi) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::FftXy, iter,
                   trace::fft_cost((hi - lo) * nxny, nxny).instructions);
    for (std::size_t iz = lo; iz < hi; ++iz) {
      plan.execute(wb.planes.data() + iz * nxny, wb.planes.data() + iz * nxny,
                   fft::thread_workspace());
    }
  };
  if (use_taskloop && rt_ != nullptr && npz_b > 0) {
    rt_->taskloop("fft_xy", 0, npz_b, kGrainXy, chunk);
  } else {
    chunk(0, npz_b);
  }
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.planes.size()).instructions);
    abft_->xy_verify(wb.abft, wb.planes.data(), npz_b, dir);
  }
  flip(wb.planes.data(), wb.planes.size());
}

void BandFftPipeline::do_vofr(WorkBuffers& wb, int iter) {
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.planes.size()).instructions);
    abft_->check_planes(wb.abft, wb.planes.data(), wb.planes.size());
    abft_->vofr_arm(wb.abft,
                    abft_->vofr_expected(wb.planes.data(), vslab_.data(),
                                         wb.planes.size()));
  }
  {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Vofr, iter,
                   trace::vofr_cost(wb.planes.size()).instructions);
    for (std::size_t i = 0; i < wb.planes.size(); ++i) {
      wb.planes[i] *= vslab_[i];
    }
  }
  if (abft_ != nullptr) {
    FX_TRACE_SCOPE(tracer_, w_, trace_tid(), trace::PhaseKind::Abft, iter,
                   trace::copy_cost(wb.planes.size()).instructions);
    abft_->seal_planes(wb.abft, wb.planes.data(), wb.planes.size());
  }
  flip(wb.planes.data(), wb.planes.size());
}

void BandFftPipeline::do_iteration(WorkBuffers& wb, int iter,
                                   bool use_taskloop) {
  // The observatory hears the iteration end on every exit (a rank that
  // threw is still finished with the iteration).
  struct ObsDone {
    int rank;
    int iter;
    ~ObsDone() {
      if (trace::Observatory* obs = trace::obs_active()) {
        obs->iteration_done(rank, iter);
      }
    }
  } obs_done{w_, iter};
  do_exchange(kPack, wb, iter);
  do_psi_prep(wb, iter);
  do_fft_z(wb, iter, Direction::Backward, use_taskloop);
  do_exchange(kScatterFw, wb, iter);
  do_fft_xy(wb, iter, Direction::Backward, use_taskloop);
  if (cfg_.apply_potential) do_vofr(wb, iter);
  do_fft_xy(wb, iter, Direction::Forward, use_taskloop);
  do_exchange(kScatterBw, wb, iter);
  do_fft_z(wb, iter, Direction::Forward, use_taskloop);
  do_exchange(kUnpack, wb, iter);
}

namespace {
/// World-comm tag of the collective deadline verdicts (9001 is the recovery
/// checkpoint, 9101 the ABFT verdict; the orchestrator posts these in
/// iteration order, so one reserved tag suffices).
constexpr int kDeadlineTag = 9201;
}  // namespace

bool BandFftPipeline::deadline_expired_collective(int iter) {
  if (!cfg_.deadline.active()) return false;
  (void)iter;
  // Per-rank clocks disagree slightly, so the verdict must be agreed before
  // anyone may bail out of the band loop: Max-reduce the local expiry so
  // either every rank cancels at this iteration boundary or none does.
  int expired = cfg_.deadline.expired() ? 1 : 0;
  int any = 0;
  world_.allreduce(&expired, &any, 1, mpi::ReduceOp::Max, kDeadlineTag);
  return any != 0;
}

void BandFftPipeline::throw_deadline(int iter) const {
  throw core::DeadlineExceeded(core::cat(
      "pipeline: wall-clock budget exhausted at band iteration ", iter,
      " of ", npsi_, " (", core::fixed(-cfg_.deadline.remaining_s() * 1e3, 3),
      " ms past expiry); partial work discarded"));
}

void BandFftPipeline::run_original() {
  const BorrowedBuffers wb = acquire_buffers();
  for (int iter = 0; iter < npsi_; iter += desc_->ntg()) {
    if (deadline_expired_collective(iter)) throw_deadline(iter);
    do_iteration(*wb, iter, /*use_taskloop=*/false);
  }
}

double BandFftPipeline::run() {
  world_.barrier();
  // Every rank enters the observatory run (refcounted; the first one in
  // shapes the per-rank structures).  RAII so a throwing run still
  // balances end_run.
  trace::Observatory* obs = trace::obs_active();
  struct ObsRun {
    trace::Observatory* obs;
    ~ObsRun() {
      if (obs != nullptr) obs->end_run();
    }
  } obs_run{obs};
  if (obs != nullptr) obs->begin_run(world_.size(), desc_->ntg());
  WallTimer timer;
  if (cfg_.mode == PipelineMode::Original) {
    run_original();
  } else {
    StreamExecutor(*this).run();
  }
  if (abft_ != nullptr) {
    // Collective verdict: every rank leaves with the same corrupted-band
    // list, so the SdcError below is thrown in lockstep (no rank is left
    // blocked in a collective by a peer that threw).
    const auto& bad = abft_->verdict(world_);
    if (!bad.empty() && !cfg_.abft_defer) {
      // Every rank that completes the verdict emits: the first rank out
      // throws below and poisons the world, which can strand any single
      // designated emitter (e.g. rank 0) inside the Allreduce with a
      // CommError before it ever speaks.  The reason string is identical
      // everywhere, and the observatory coalesces identical reasons within
      // one run, so this still records as one incident.
      core::emit_incident(core::cat("abft: sdc verdict, ", bad.size(),
                                    " corrupted band(s)"));
      throw core::SdcError(core::cat(
          "abft: silent data corruption detected in ", bad.size(), " of ",
          npsi_, " carried band(s) (mode ", to_string(cfg_.abft), ")"));
    }
  }
  world_.barrier();
  // Lockstep point: counters are shared, so under Strict either every rank
  // throws here or none does.
  if (obs != nullptr) obs->strict_check();
  return timer.seconds();
}

}  // namespace fx::fftx
