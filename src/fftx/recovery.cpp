#include "fftx/recovery.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/format.hpp"
#include "core/hooks.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "fft/gamma.hpp"
#include "fft/plan_cache.hpp"

namespace fx::fftx {

namespace {

// Checkpoint gathers run on the world communicator after the pipeline's
// closing barrier; a dedicated tag keeps them apart from any user traffic.
constexpr int kCheckpointTag = 9001;

// Batch-boundary deadline verdicts (9101 is the pipeline ABFT verdict,
// 9201 the pipeline's per-iteration deadline check).
constexpr int kDeadlineTag = 9301;

/// Collective deadline verdict at a batch boundary: per-rank clocks differ,
/// so Max-reduce the local expiry and cancel on every rank together (the
/// communicator stays healthy for whatever the caller runs next).
void check_deadline(mpi::Comm& comm, const core::Deadline& dl, int completed,
                    int total) {
  if (!dl.active()) return;
  int expired = dl.expired() ? 1 : 0;
  int any = 0;
  comm.allreduce(&expired, &any, 1, mpi::ReduceOp::Max, kDeadlineTag);
  if (any != 0) {
    throw core::DeadlineExceeded(
        core::cat("recovery: wall-clock budget exhausted with ", completed,
                  " of ", total,
                  " carried band(s) committed; cancelling cleanly"));
  }
}

// Process-wide recovery health: a metrics dump of a fault-injection run
// shows how often the world shrank and how much work was replayed without
// access to the per-rank reports.
struct RecoveryMetrics {
  core::Counter& shrinks;
  core::Counter& replayed_bands;
  core::Counter& checkpoint_bytes;
  core::Histogram& shrink_ms;
};

RecoveryMetrics& recovery_metrics() {
  auto& reg = core::MetricsRegistry::global();
  static RecoveryMetrics m{reg.counter("fftx.recovery.shrinks"),
                           reg.counter("fftx.recovery.replayed_bands"),
                           reg.counter("fftx.recovery.checkpoint_bytes"),
                           reg.histogram("fftx.recovery.shrink_ms")};
  return m;
}

}  // namespace

RecoveryConfig RecoveryConfig::from_env() {
  RecoveryConfig cfg;
  cfg.enabled = false;  // opt-in: unset FFTX_RECOVER means disabled
  core::env_flag("FFTX_RECOVER", cfg.enabled, "recovery");
  core::env_int_in("FFTX_CHECKPOINT_BANDS", cfg.checkpoint_bands, 0, 1 << 20,
                   "recovery");
  cfg.retry = core::RetryPolicy::from_env();
  return cfg;
}

int degraded_ntg(int nproc, int preferred, int batch_bands) {
  FX_CHECK(nproc >= 1 && batch_bands >= 1,
           "degraded_ntg needs a live world and a non-empty batch");
  int best = 1;
  for (int d = 2; d <= std::min(nproc, preferred); ++d) {
    if (nproc % d == 0 && batch_bands % d == 0) best = d;
  }
  return best;
}

RecoveryDriver::RecoveryDriver(mpi::Comm world,
                               std::shared_ptr<const Descriptor> desc,
                               PipelineConfig cfg, RecoveryConfig rcfg,
                               trace::Tracer* tracer)
    : world_(std::move(world)),
      desc_(std::move(desc)),
      cfg_(cfg),
      rcfg_(rcfg),
      tracer_(tracer),
      ntg_pref_(desc_->ntg()) {
  FX_CHECK(world_.size() == desc_->nproc(),
           "recovery driver needs one rank per descriptor slot");
  FX_CHECK(cfg_.num_bands >= 1, "nothing to recover without bands");
}

RecoveryReport RecoveryDriver::run(std::vector<std::vector<fft::cplx>>& out) {
  core::WallTimer timer;
  out.assign(static_cast<std::size_t>(carried_total()), {});

  RecoveryReport rep;
  mpi::Comm comm = world_;
  std::shared_ptr<const Descriptor> desc = desc_;
  int completed = 0;
  // One attempt == one shrink-and-replay round.  The salt is a constant, so
  // every survivor sleeps the same jittered backoff and re-enters replay in
  // lockstep.  A live request deadline tightens the repair budget too: no
  // point starting a replay round the request can no longer afford.
  core::RetryPolicy rpol = rcfg_.retry;
  if (cfg_.deadline.active()) {
    rpol.deadline_s = core::RetryPolicy::merge_deadline_s(
        rpol.deadline_s, std::max(cfg_.deadline.remaining_s(), 1e-6));
  }
  core::RetryController retry(rpol, 0x5ec04e8ULL);

  for (;;) {
    try {
      run_batches(comm, desc, completed, out, rep);
      rep.completed = true;
      break;
    } catch (const core::FaultError& e) {
      // This rank was killed by injection: revoke so every blocked peer
      // unwinds promptly, declare death so the survivors' repair rendezvous
      // can complete without us, and bow out.
      comm.revoke(e.what());
      comm.mark_dead();
      rep.died = true;
      break;
    } catch (const core::DeadlineExceeded&) {
      // Running out of time is a terminal verdict for the request, not a
      // fault: never burn a repair round on it.  The throw was collective
      // (pipeline iteration or batch boundary), so the communicator is
      // healthy and every rank unwinds here together.
      throw;
    } catch (const core::Error& e) {
      // Survivable failure: a peer's revoke unwound us, a guard exhausted
      // its retries, or the validator flagged a mismatch.  Repair if the
      // budget allows, otherwise surface the original error.
      bool cont = rcfg_.enabled && retry.should_retry();
      if (cfg_.deadline.active()) {
        // The budget check reads each rank's own clock; agree (fault-
        // tolerant Min, dead ranks excused) so clock skew cannot split the
        // survivors between repair and rethrow -- one rank re-entering
        // replay while another unwinds would hang the repair rendezvous.
        cont = cont && !cfg_.deadline.expired();
        cont = comm.agree(cont ? 1 : 0) == 1;
        if (!cont && comm.agree(cfg_.deadline.expired() ? 0 : 1) == 0) {
          throw core::DeadlineExceeded(core::cat(
              "recovery: wall-clock budget exhausted while handling a "
              "survivable failure (",
              e.what(), "); cancelling instead of repairing"));
        }
      }
      if (!cont) throw;
      repair(comm, completed, e.what(), rep);
      retry.backoff();
    }
  }
  rep.final_nproc = desc->nproc();
  rep.final_ntg = desc->ntg();
  rep.seconds = timer.seconds();
  return rep;
}

int RecoveryDriver::carried_total() const {
  return cfg_.real_bands ? static_cast<int>(fft::gamma_pair_count(
                               static_cast<std::size_t>(cfg_.num_bands)))
                         : cfg_.num_bands;
}

void RecoveryDriver::run_batches(mpi::Comm& comm,
                                 std::shared_ptr<const Descriptor>& desc,
                                 int& completed,
                                 std::vector<std::vector<fft::cplx>>& out,
                                 RecoveryReport& rep) {
  // Everything here -- batches, checkpoints, replay counts, `out` slots --
  // is in *carried* bands: packed pairs when real_bands, bands otherwise.
  // The sub-pipeline still wants its config in real bands, so a real-mode
  // batch of `batch` pairs covers real bands [2*completed, 2*completed +
  // cfg.num_bands); pairs always start at even offsets, so the pairing of
  // every batch matches a single unbatched run's.
  const int total = carried_total();
  const int interval =
      rcfg_.checkpoint_bands > 0 ? std::min(rcfg_.checkpoint_bands, total)
                                 : total;
  while (completed < total) {
    check_deadline(comm, cfg_.deadline, completed, total);
    const int batch = std::min(interval, total - completed);
    const int ntg = degraded_ntg(comm.size(), ntg_pref_, batch);
    if (desc->nproc() != comm.size() || desc->ntg() != ntg) {
      desc = std::make_shared<const Descriptor>(*desc, comm.size(), ntg);
    }
    PipelineConfig cfg = cfg_;
    cfg.num_bands = cfg_.real_bands
                        ? std::min(2 * batch, cfg_.num_bands - 2 * completed)
                        : batch;
    // In Repair mode the pipeline defers its SDC verdict to us instead of
    // throwing: corrupted bands are named, the world stays healthy, and we
    // recompute only those bands below.  Detect mode throws core::SdcError,
    // which run()'s generic handler escalates to a full shrink-and-replay.
    cfg.abft_defer = cfg_.abft == AbftMode::Repair;
    inflight_ = batch;  // a fault from here to commit replays these bands
    BandFftPipeline pipe(comm, desc, cfg, tracer_);
    pipe.initialize_bands(cfg_.real_bands ? 2 * completed : completed);
    pipe.run();
    const std::vector<int> bad = pipe.abft_corrupt_bands();
    checkpoint(comm, *desc, pipe, completed, batch, out);
    if (!bad.empty()) replay_bands(comm, desc, completed, bad, out, rep);
    completed += batch;
    inflight_ = 0;
  }
}

void RecoveryDriver::replay_bands(mpi::Comm& comm,
                                  const std::shared_ptr<const Descriptor>& desc,
                                  int first, const std::vector<int>& bad,
                                  std::vector<std::vector<fft::cplx>>& out,
                                  RecoveryReport& rep) {
  auto& am = abft_metrics();
  // The verdict was a collective Allreduce, so every rank agrees on `bad`
  // and the world is healthy: no revoke, no shrink, no rollback.  Each
  // corrupted carried band is recomputed from its deterministic initial
  // coefficients through a one-band ntg == 1 pipeline over the *same*
  // communicator (degraded_ntg of a 1-band batch is always 1), under the
  // same ABFT checks.  Per-band arithmetic is decomposition-independent --
  // including the wire quantization on the ntg == 1 shortcuts -- so the
  // repaired band is bit-identical to a fault-free run's.
  std::shared_ptr<const Descriptor> solo = desc;
  if (solo->ntg() != 1) {
    solo = std::make_shared<const Descriptor>(*desc, comm.size(), 1);
  }
  for (const int n : bad) {
    const int gb = first + n;
    am.repairs.add();
    core::emit_instant(
        core::cat("abft: surgical replay of carried band ", gb));
    PipelineConfig cfg = cfg_;
    cfg.num_bands =
        cfg_.real_bands ? std::min(2, cfg_.num_bands - 2 * gb) : 1;
    cfg.abft_defer = true;
    BandFftPipeline pipe(comm, solo, cfg, tracer_);
    pipe.initialize_bands(cfg_.real_bands ? 2 * gb : gb);
    pipe.run();
    if (!pipe.abft_corrupt_bands().empty()) {
      // The recompute tripped the detectors again: something beyond a
      // transient flip is wrong (sticky corruption, a bad rank).  Hand the
      // band to the heavyweight machinery.
      am.escalations.add();
      throw core::SdcError(core::cat(
          "abft: carried band ", gb,
          " still corrupt after surgical replay; escalating to "
          "shrink-and-replay"));
    }
    checkpoint(comm, *solo, pipe, gb, 1, out);
    am.repaired_bands.add();
    ++rep.repaired_bands;
  }
  fft::PlanCache::global().evict_unused();
}

void RecoveryDriver::checkpoint(mpi::Comm& comm, const Descriptor& desc,
                                const BandFftPipeline& pipe, int first,
                                int batch,
                                std::vector<std::vector<fft::cplx>>& out) {
  const int nproc = comm.size();
  const auto np = static_cast<std::size_t>(nproc);
  const std::size_t ng_mine = desc.ng_world(comm.rank());
  const std::size_t ng_total = desc.sphere().size();

  // Replicate each band to every rank: send my packed slice to all peers
  // (every send segment starts at 0), receive all slices rank-major.
  std::vector<std::size_t> scounts(np, ng_mine);
  std::vector<std::size_t> sdispls(np, 0);
  std::vector<std::size_t> rcounts(np);
  std::vector<std::size_t> rdispls(np);
  std::size_t off = 0;
  for (int p = 0; p < nproc; ++p) {
    rcounts[static_cast<std::size_t>(p)] = desc.ng_world(p);
    rdispls[static_cast<std::size_t>(p)] = off;
    off += rcounts[static_cast<std::size_t>(p)];
  }

  // Stage the whole batch before committing: a fault mid-gather unwinds out
  // of here with `out` and the completed count untouched, so rollback never
  // sees a half-written checkpoint.
  std::vector<fft::cplx> gathered(off);
  std::vector<std::vector<fft::cplx>> staging(
      static_cast<std::size_t>(batch));
  for (int n = 0; n < batch; ++n) {
    // The checkpoint is the recovery ground truth, so it rides the same
    // checksum guard as the pipeline's transposes when guarding is on --
    // otherwise one corrupted gather would silently poison every replica.
    if (cfg_.guard_exchanges) {
      guarded_alltoallv(comm, pipe.band(n).data(), scounts.data(),
                        sdispls.data(), gathered.data(), rcounts.data(),
                        rdispls.data(), kCheckpointTag, nullptr,
                        cfg_.deadline);
    } else {
      comm.alltoallv(pipe.band(n).data(), scounts.data(), sdispls.data(),
                     gathered.data(), rcounts.data(), rdispls.data(),
                     kCheckpointTag);
    }
    auto& dst = staging[static_cast<std::size_t>(n)];
    dst.resize(ng_total);
    for (int p = 0; p < nproc; ++p) {
      const auto index = desc.world_g_index(p);
      const fft::cplx* src =
          gathered.data() + rdispls[static_cast<std::size_t>(p)];
      for (std::size_t k = 0; k < index.size(); ++k) dst[index[k]] = src[k];
    }
  }

  std::uint64_t bytes = 0;
  for (int n = 0; n < batch; ++n) {
    auto& band = staging[static_cast<std::size_t>(n)];
    bytes += band.size() * sizeof(fft::cplx);
    out[static_cast<std::size_t>(first + n)] = std::move(band);
  }
  recovery_metrics().checkpoint_bytes.add(bytes);
}

void RecoveryDriver::repair(mpi::Comm& comm, int& completed, const char* why,
                            RecoveryReport& rep) {
  auto& m = recovery_metrics();
  core::WallTimer timer;
  const int old_id = comm.id();

  // Revoking is idempotent: the comm may already carry a peer's revoke (that
  // is how we unwound), but a locally detected failure (guard exhaustion)
  // must poison it ourselves so blocked peers join the repair.
  comm.revoke(why);
  const auto stable = static_cast<int>(comm.agree(completed));
  mpi::Comm next = comm.shrink();

  // Replayed work: bands of the aborted in-flight batch plus any committed
  // checkpoints rolled back past (survivors commit in lockstep, so the
  // rollback part is usually zero and the in-flight batch dominates).
  const int replayed = (completed - stable) + inflight_;
  inflight_ = 0;
  rep.replayed_bands += replayed;
  if (replayed > 0) {
    m.replayed_bands.add(static_cast<std::uint64_t>(replayed));
  }
  completed = stable;
  comm = std::move(next);
  ++rep.shrinks;
  m.shrinks.add();
  m.shrink_ms.record(timer.seconds() * 1e3);

  // Elastic re-decomposition happens lazily in run_batches (it also owns the
  // partial-final-batch ntg choice); here we only drop plans no pipeline
  // holds anymore, so a dead layout's plans don't stay resident.
  fft::PlanCache::global().evict_unused();

  core::emit_instant(core::cat(
      "recovery: shrank comm ", old_id, " -> ", comm.id(), " (",
      comm.size(), " survivors), replaying from band ", stable));
  // A shrink is a flight-recorder moment: the observatory's incident sink
  // dumps the last iterations, showing what the world looked like when the
  // failure hit.  Rank 0 of the survivors speaks for the collective repair.
  if (comm.rank() == 0) {
    core::emit_incident(core::cat("recovery: shrink to ", comm.size(),
                                  " ranks (", why, ")"));
  }
}

}  // namespace fx::fftx
