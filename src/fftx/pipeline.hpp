// The band-FFT pipeline: FFTXlib's kernel in its original task-group form
// and the paper's two task-based optimizations.
//
// One BandFftPipeline instance runs on each world rank and executes, for
// every band, the forward transform (reciprocal -> real space), the
// application of the real-space potential (VOFR), and the backward
// transform -- the loop of the paper's Fig. 1:
//
//   DO I = 1, NB, NTG
//     pack NTG bands          (Alltoallv across the pack comm)
//     FW-FFT along Z          (1D FFTs on group sticks)
//     scatter                 (Alltoallv inside the task group)
//     FW-FFT along XY         (2D FFTs on owned planes)
//     VOFR
//     BW-FFT along XY
//     scatter
//     BW-FFT along Z
//     unpack NTG bands
//   END DO
//
// (Paper direction names are kept: "FW" is reciprocal->real, which in FFT
// engine terms is the unnormalized Backward transform; "BW" is real->
// reciprocal, engine Forward scaled by 1/N at unpack -- QE's invfft/fwfft
// convention.)
//
// Execution modes -- one inline loop and four presets of one task executor
// (StreamExecutor, stream.hpp; DESIGN.md section 17):
//   Original    -- the reference synchronous loop (Fig. 1), run inline;
//   TaskPerStep -- every step above is a dependent task, at most nthreads
//                  iterations in flight; FFT steps fan out further through
//                  taskloop (paper Fig. 4, strategy 1: overlap
//                  communication with computation);
//   TaskPerFft  -- every iteration is one independent task, all submitted
//                  up front and scheduled over the worker threads that
//                  replace the FFT task groups (paper Fig. 5, strategy 2:
//                  de-synchronize compute phases to soften resource
//                  contention);
//   Combined    -- the paper's future-work item: TaskPerFft tasks whose
//                  FFT steps also taskloop across idle workers;
//   Streaming   -- the step shape with FFTX_STREAM_BANDS = N iterations in
//                  flight; when the fused layouts are on and guards off,
//                  each transpose exchange splits into a nonblocking post
//                  task and a completion-waitable task, so band k+1's Z-FFT
//                  runs while band k's scatter is on the wire (N = 1
//                  recovers the staged order).  These are the band
//                  loop's only nonblocking exchanges.
//
// All modes produce bit-identical coefficients (asserted by the tests):
// the optimizations reorder work, never arithmetic within a band.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/aligned.hpp"
#include "core/deadline.hpp"
#include "fft/batch1d.hpp"
#include "fft/plan2d.hpp"
#include "fft/plan_cache.hpp"
#include "fftx/abft.hpp"
#include "fftx/descriptor.hpp"
#include "fftx/guarded.hpp"
#include "simmpi/comm.hpp"
#include "tasking/runtime.hpp"
#include "trace/tracer.hpp"

namespace fx::fftx {

enum class PipelineMode { Original, TaskPerStep, TaskPerFft, Combined, Streaming };

const char* to_string(PipelineMode mode);

/// Default of PipelineConfig::fused_exchange: FFTX_FUSED_EXCHANGE != 0.
[[nodiscard]] bool default_fused_exchange();
/// Default of PipelineConfig::real_bands: FFTX_R2C != 0.
[[nodiscard]] bool default_real_bands();
/// Default of PipelineConfig::stream_bands: FFTX_STREAM_BANDS in [1, 4096],
/// else 2.
[[nodiscard]] int default_stream_bands();

struct PipelineConfig {
  int num_bands = 8;
  PipelineMode mode = PipelineMode::Original;
  /// Worker threads for the task-based modes (the paper replaces the 8 FFT
  /// task groups with 8 threads).  Ignored by Original.
  int nthreads = 1;
  bool apply_potential = true;
  /// Route the transpose exchanges through the checksum-guarded Alltoallv
  /// (detects in-flight payload corruption and retries; see guarded.hpp).
  bool guard_exchanges = default_guard_exchanges();
  /// Zero-copy transposes: the band pack/unpack and pencil<->plane
  /// exchanges move scatter-gather views of the FFT buffers directly,
  /// deleting the marshalling (staging) passes.  Bit-identical to the
  /// staged path.  When off, only the multi-rank exchanges stage: a
  /// one-rank scatter group (nproc == ntg) always runs its pencil<->plane
  /// self-exchange on the views, and the ntg == 1 pack and unpack are
  /// local copies.
  bool fused_exchange = default_fused_exchange();
  /// Constant: there is no in-band chunked overlap; an exchange overlaps
  /// compute only as a Streaming split exchange.  Kept (with the constant
  /// below) so configuration records keep the field.
  static constexpr bool overlap_exchange = false;
  /// Gamma-point real-band mode: bands are Hermitian-symmetrized (so their
  /// real-space fields are real) and carried through the pipeline two to a
  /// complex band -- pair p packs band 2p as the real part and band 2p + 1
  /// as the imaginary part.  The band loop, every FFT and every exchange
  /// then runs gamma_pair_count(num_bands) iterations instead of
  /// num_bands: half the flops and half the bytes on the wire.  The pair
  /// count (not num_bands) must be a multiple of ntg.  band(p) returns the
  /// packed pair; tests unpack via Hermitian symmetry.
  bool real_bands = default_real_bands();
  /// Precision of every double crossing the fused view exchanges: Fp64 is
  /// the bit-exact default; Fp32/Bf16 narrow the payload in flight (and
  /// imply the fused layouts -- the staged Alltoallv path has no wire
  /// narrowing).  Composes with guard_exchanges (digests hash the wire
  /// encoding).  Quantization error is tracked in the
  /// fftx.exchange.wire_max_ulp_err gauge.
  mpi::WireFormat wire_format = mpi::default_wire_format();
  /// Silent-data-corruption detection across every stage: checksum bands
  /// over the batched FFTs, Parseval/VOFR/exchange energy conservation, and
  /// at-rest digests across stage gaps (see abft.hpp).  Detect and Repair
  /// run identical checks inside the pipeline; they differ in what the
  /// RecoveryDriver does with an agreed detection (fail fast vs surgical
  /// band replay).  FFTX_ABFT selects the default.
  AbftMode abft = default_abft_mode();
  /// Driver-internal: on an agreed detection, record the corrupted bands
  /// (abft_corrupt_bands()) instead of throwing core::SdcError from run(),
  /// so the RecoveryDriver can recompute just those bands.
  bool abft_defer = false;
  /// Streaming mode only: band iterations in flight at once (the depth of
  /// the buffer-slot ring; bounded memory and backpressure).  1 recovers
  /// the staged execution order; clamped to the iteration count, and --
  /// when the stage tasks block in collectives (guarded or staged
  /// exchanges) -- to nthreads by the executor's blocking-depth rule
  /// (DESIGN.md section 17).
  int stream_bands = default_stream_bands();
  /// Constant: under Streaming with the fused layouts and no guard, every
  /// transpose exchange splits into a nonblocking post task and a
  /// completion-waitable task; StreamExecutor::run alone decides.
  static constexpr bool stream_nonblocking = true;
  /// Wall-clock budget for the whole run (inactive by default).  Checked
  /// collectively at every band-iteration boundary: when any rank sees the
  /// budget spent, every rank throws core::DeadlineExceeded in lockstep --
  /// partial work is discarded and the communicator stays healthy (task
  /// modes drain in-flight iterations first).  The remaining budget also
  /// bounds the guarded exchanges' retry loops.
  core::Deadline deadline{};
};

class BandFftPipeline {
 public:
  /// Collective over all ranks of `world` (performs the communicator
  /// splits).  `world.size()` must equal `desc->nproc()`, and num_bands
  /// (or, under real_bands, gamma_pair_count(num_bands)) must be a
  /// multiple of desc->ntg().
  BandFftPipeline(mpi::Comm world, std::shared_ptr<const Descriptor> desc,
                  PipelineConfig cfg, trace::Tracer* tracer = nullptr);
  ~BandFftPipeline();

  BandFftPipeline(const BandFftPipeline&) = delete;
  BandFftPipeline& operator=(const BandFftPipeline&) = delete;
  BandFftPipeline(BandFftPipeline&&) = delete;
  BandFftPipeline& operator=(BandFftPipeline&&) = delete;

  /// Fills every band's local coefficients from the deterministic
  /// wave-function generator (layout independent).  `first_band` offsets
  /// the generator's band index: local band n holds global band
  /// first_band + n (the recovery driver runs checkpointed batches of a
  /// larger global band range through one pipeline instance).
  void initialize_bands(int first_band = 0);

  /// Runs the full band loop.  Returns local wall seconds between the
  /// opening and closing barrier (comparable across ranks).
  double run();

  /// This rank's packed coefficients of `band` (world stick distribution);
  /// positions given by descriptor().world_g_index(rank).  Under
  /// real_bands, `n` indexes packed pairs (pair n carries bands 2n and
  /// 2n + 1) and must be < num_psi().
  [[nodiscard]] std::span<const fft::cplx> band(int n) const;

  /// Overwrites band (or pair) `n`'s local coefficients; the span length
  /// must equal descriptor().ng_world(rank).  Lets tests and drivers feed
  /// arbitrary coefficients through the pipeline (e.g. the complex oracle
  /// run on real-band packed inputs).
  void set_band(int n, std::span<const fft::cplx> coeffs);

  /// Complex bands the band loop actually iterates: num_bands, or
  /// gamma_pair_count(num_bands) under real_bands.
  [[nodiscard]] int num_psi() const { return npsi_; }

  [[nodiscard]] const Descriptor& descriptor() const { return *desc_; }
  [[nodiscard]] const PipelineConfig& config() const { return cfg_; }
  [[nodiscard]] int rank() const { return w_; }
  /// The V(r) slab VOFR applies: descriptor().potential() of this rank's
  /// group rank, borrowed rather than copied (empty unless apply_potential).
  [[nodiscard]] std::span<const double> potential() const { return vslab_; }

  /// Guarded-exchange counters (zero when guard_exchanges is off).
  [[nodiscard]] std::uint64_t guard_exchanges_done() const {
    return guard_stats_.exchanges.load();
  }
  [[nodiscard]] std::uint64_t guard_retries() const {
    return guard_stats_.retries.load();
  }

  /// Carried-band indices the end-of-run ABFT verdict agreed are corrupt
  /// (identical on every rank; empty when abft is Off or the run was
  /// clean).  Meaningful after run() returned -- with abft_defer set, a
  /// detection returns instead of throwing and is read back here.
  [[nodiscard]] std::vector<int> abft_corrupt_bands() const;

 private:
  // Every task schedule runs through the executor (stream.cpp), which drives
  // the same private stage methods and buffers as the inline Original loop.
  friend class StreamExecutor;

  /// Per-iteration working storage.  Distinct in-flight iterations never
  /// share one, so buffers carry no cross-iteration dependencies.
  struct WorkBuffers {
    core::aligned_vector<fft::cplx> pack_send;   ///< ntg * ng_w (marshalling)
    core::aligned_vector<fft::cplx> band_g;      ///< my band on group sticks
    core::aligned_vector<fft::cplx> pencil;      ///< [stick][iz], nst_b * nz
    core::aligned_vector<fft::cplx> stage;       ///< scatter stage, pencil side
    core::aligned_vector<fft::cplx> plane_stage; ///< scatter stage, plane side
    core::aligned_vector<fft::cplx> planes;      ///< [iz][iy][ix]
    AbftGuard::Scratch abft;                     ///< per-iteration ABFT state
  };

  /// The buffer pool is the only owner of WorkBuffers: every schedule
  /// borrows a set for as long as it needs one, and the deleter returns it.
  /// Sets live as long as the pipeline, so repeated runs reuse them.
  struct ReturnBuffers {
    BandFftPipeline* pipe = nullptr;
    void operator()(WorkBuffers* wb) const { pipe->release_buffers(wb); }
  };
  using BorrowedBuffers = std::unique_ptr<WorkBuffers, ReturnBuffers>;
  BorrowedBuffers acquire_buffers();
  void release_buffers(WorkBuffers* wb);
  std::unique_ptr<WorkBuffers> make_buffers() const;

  /// The transpose an exchange stage's before half leaves ready: fused
  /// scatter-gather views, or staged buffers with counts and displacements
  /// (both move through simmpi's one all-to-all engine; transpose() calls
  /// the view exchange exactly when sviews is non-empty).  A null comm
  /// moves nothing (the ntg == 1 pack and unpack are local).
  struct Transpose {
    mpi::Comm* comm = nullptr;
    const fft::cplx* send = nullptr;
    fft::cplx* recv = nullptr;
    std::span<const mpi::SegView> sviews{};  ///< fused layouts
    std::span<const mpi::SegView> rviews{};
    const std::size_t* scounts = nullptr;  ///< staged layouts
    const std::size_t* sdispls = nullptr;
    const std::size_t* rcounts = nullptr;
    const std::size_t* rdispls = nullptr;
  };

  /// An exchange stage, split around its transpose.  `before` runs the
  /// ABFT checks, the zero fill or rescale and any staged marshal;
  /// `after` (none for pack) unmarshals, settles the exchange energy,
  /// seals, flips and -- for unpack -- finishes the iteration.  Blocking
  /// execution is before, transpose, after (do_exchange); the streaming
  /// split path posts the transpose nonblocking and runs `after` in the
  /// completion waitable.
  struct ExchangeStage {
    const char* name;
    Transpose (BandFftPipeline::*before)(WorkBuffers&, int);
    void (BandFftPipeline::*after)(WorkBuffers&, int);
  };
  static const ExchangeStage kPack, kScatterFw, kScatterBw, kUnpack;

  void do_iteration(WorkBuffers& wb, int iter, bool use_taskloop);
  void do_exchange(const ExchangeStage& x, WorkBuffers& wb, int iter);
  Transpose pack_before(WorkBuffers& wb, int iter);
  Transpose scatter_fw_before(WorkBuffers& wb, int iter);
  void scatter_fw_after(WorkBuffers& wb, int iter);
  Transpose scatter_bw_before(WorkBuffers& wb, int iter);
  void scatter_bw_after(WorkBuffers& wb, int iter);
  Transpose unpack_before(WorkBuffers& wb, int iter);
  void unpack_after(WorkBuffers& wb, int iter);

  void do_psi_prep(WorkBuffers& wb, int iter);
  void do_fft_z(WorkBuffers& wb, int iter, fft::Direction dir,
                bool use_taskloop);
  void do_fft_xy(WorkBuffers& wb, int iter, fft::Direction dir,
                 bool use_taskloop);
  void do_vofr(WorkBuffers& wb, int iter);

  void run_original();

  /// Collective deadline verdict at a band-iteration boundary (all ranks
  /// call with the same `iter`): true when any rank's clock says the budget
  /// is spent.  Free (no collective) when no deadline is configured.
  [[nodiscard]] bool deadline_expired_collective(int iter);
  [[noreturn]] void throw_deadline(int iter) const;

  /// Every blocking transpose funnels through here (t.comm non-null): the
  /// view exchange when t carries views, the contiguous Alltoallv on the
  /// staged layouts, each checksum-guarded when cfg_.guard_exchanges is set.
  void transpose(const Transpose& t, int tag);

  /// Compute bit-flip injection hook (FFTX_FAULT_FLIP_*): offers the stage
  /// output buffer to the fault injector.  Called at every stage boundary
  /// regardless of cfg_.abft, so flips land (and per-rank opportunity
  /// indices advance identically) whether or not anyone is checking.
  void flip(fft::cplx* p, std::size_t n);

  mpi::Comm world_;
  std::shared_ptr<const Descriptor> desc_;
  PipelineConfig cfg_;
  trace::Tracer* tracer_;

  int w_;  ///< world rank
  int g_;  ///< task group id (w % ntg)
  int b_;  ///< group rank (w / ntg)

  mpi::Comm pack_;  ///< the T neighboring ranks (band redistribution)
  mpi::Comm scat_;  ///< the R alternating ranks (pencil<->plane exchange)

  /// fused_exchange || narrow wire: every exchange runs on the views.
  /// Also decides the Streaming split (StreamExecutor::run).
  bool fused_ = false;
  /// fused_ || one-rank scatter group (nproc == ntg): the pencil<->plane
  /// scatters run on the views, and no stage/plane_stage is allocated.
  bool fused_scatter_ = false;
  int npsi_ = 0;  ///< complex bands in the loop (see num_psi())

  // Per-band packed coefficients (this rank's world-stick slice), one
  // arena with band n at n * ng_world(w): the fused pack/unpack exchanges
  // address an iteration's ntg bands as scatter-gather views of the single
  // base pointer.
  core::aligned_vector<fft::cplx> psi_arena_;
  [[nodiscard]] fft::cplx* band_data(int n) {
    return psi_arena_.data() +
           static_cast<std::size_t>(n) * desc_->ng_world(w_);
  }

  // Immutable plans (thread-safe execution, shared across the ranks of
  // this process via the global plan cache) and the borrowed potential
  // slab (see potential()).
  std::shared_ptr<const fft::BatchPlan1d> z_to_real_;   ///< "FW-FFT along Z"
  std::shared_ptr<const fft::BatchPlan1d> z_to_recip_;  ///< "BW-FFT along Z"
  std::shared_ptr<const fft::Fft2d> xy_to_real_;
  std::shared_ptr<const fft::Fft2d> xy_to_recip_;
  std::span<const double> vslab_;

  // Pack / scatter exchange counts and displacements (elements).
  std::vector<std::size_t> pack_counts_;    // recv from member m
  std::vector<std::size_t> pack_displs_;
  std::vector<std::size_t> pack_send_counts_;  // ng_w to every member
  std::vector<std::size_t> pack_send_displs_;
  std::vector<std::size_t> scat_send_counts_;  // to group peer p
  std::vector<std::size_t> scat_send_displs_;
  std::vector<std::size_t> scat_recv_counts_;  // from group peer q
  std::vector<std::size_t> scat_recv_displs_;

  // Fused scatter layouts (built when fused_scatter_), precomputed
  // (iteration-independent).  Send side addresses the pencil buffer: run j
  // of peer p is stick j's npz(p) z-planes.  Receive side addresses the
  // plane buffer: run j of peer q is stick group_sticks(q)[j]'s (x, y)
  // column, stride nx * ny.
  std::vector<std::vector<mpi::SegRun>> scat_send_runs_;  // [peer][stick]
  std::vector<std::vector<mpi::SegRun>> scat_recv_runs_;  // [peer][stick]
  // Fused pack layouts (built when fused_): member m's band of the
  // iteration, relative to band_data(iter), and member m's segment of band_g.
  std::vector<mpi::SegRun> psi_runs_;    // [member]
  std::vector<mpi::SegRun> group_runs_;  // [member]
  // One view per peer over the runs above, shared by every fused transpose
  // (the backward scatter and the unpack swap the sides).
  std::vector<mpi::SegView> pencil_views_, plane_views_;  // scatters
  std::vector<mpi::SegView> psi_views_, group_views_;     // pack, unpack

  std::unique_ptr<task::TaskRuntime> rt_;  // task modes only

  GuardStats guard_stats_;

  std::unique_ptr<AbftGuard> abft_;     // non-null iff cfg_.abft != Off
  mpi::FaultInjector* flip_ = nullptr;  // non-null iff flips configured
  int wrank_ = 0;  ///< original world rank (stable across comm shrink)

  // Idle buffer sets (see acquire_buffers; never blocks -- an empty pool
  // allocates).
  std::mutex pool_mu_;
  std::vector<std::unique_ptr<WorkBuffers>> pool_;
};

}  // namespace fx::fftx
