#include "fftx/stream.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "core/format.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "trace/observatory.hpp"

namespace fx::fftx {

using core::WallTimer;
using fft::cplx;
using fft::Direction;

namespace {

// Executor health: hidden_ms is, per split exchange, the window between
// the nonblocking post and the moment a waitable attempt found it worth
// entering (test success or last-chance wait entry) -- communication that
// progressed behind other bands' compute.  bands counts band iterations
// completed by the executor (bands/sec in the benches); posts counts split
// exchanges.
struct StreamMetrics {
  core::Histogram& hidden_ms;
  core::Counter& bands;
  core::Counter& posts;
};

StreamMetrics& stream_metrics() {
  auto& reg = core::MetricsRegistry::global();
  static StreamMetrics m{reg.histogram("fftx.stream.hidden_ms"),
                         reg.counter("fftx.stream.bands"),
                         reg.counter("fftx.stream.posts")};
  return m;
}

}  // namespace

StreamExecutor::StreamExecutor(BandFftPipeline& pipe) : p_(pipe) {}
StreamExecutor::~StreamExecutor() = default;

void StreamExecutor::capture_current() {
  bool first = false;
  {
    std::lock_guard lock(err_mu_);
    if (first_error_ == nullptr) {
      first_error_ = std::current_exception();
      first = true;
    }
  }
  stop_.store(true, std::memory_order_release);
  if (first) {
    // Unwind every rank's in-flight collectives (revocation reaches the
    // pack/scat splits); peers surface RevokedError and stop too.
    try {
      p_.world_.revoke("task executor failure");
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

std::function<void()> StreamExecutor::guard(std::function<void()> body) {
  return [this, body = std::move(body)] {
    if (stop_.load(std::memory_order_acquire)) return;
    try {
      body();
    } catch (...) {
      capture_current();
      throw;
    }
  };
}

void StreamExecutor::end_iteration(int iter) {
  if (trace::Observatory* obs = trace::obs_active()) {
    obs->iteration_done(p_.w_, iter);
  }
  {
    std::lock_guard lock(window_mu_);
    ++completed_;
  }
  window_cv_.notify_all();
}

void StreamExecutor::post(Slot& slot, const Stage& x, int iter) {
  const BandFftPipeline::Transpose t = (p_.*x.before)(*slot.wb, iter);
  FX_ASSERT(t.comm != nullptr && p_.fused_);
  slot.req = t.comm->ialltoallv_view(t.send, t.sviews, t.recv, t.rviews,
                                     sizeof(cplx), /*tag=*/iter,
                                     p_.cfg_.wire_format);
  slot.posted = true;
  slot.t_post = WallTimer::now();
  stream_metrics().posts.add();
}

bool StreamExecutor::wait_poll(Slot& slot, bool last_chance, const Stage& x,
                               int iter) {
  try {
    if (stop_.load(std::memory_order_acquire) && !slot.posted) {
      return true;  // post was skipped after a failure; nothing in flight
    }
    if (slot.posted) {
      const double t_enter = WallTimer::now();
      if (last_chance) {
        slot.req.wait();
      } else if (!slot.req.test()) {
        return false;
      }
      stream_metrics().hidden_ms.record((t_enter - slot.t_post) * 1e3);
      slot.posted = false;
      slot.req = mpi::Request{};
    }
    if (x.after != nullptr) (p_.*x.after)(*slot.wb, iter);
    return true;
  } catch (...) {
    capture_current();
    throw;
  }
}

// --- Task-graph construction -----------------------------------------------

void StreamExecutor::submit_exchange(Slot& slot, int iter, const Stage& x,
                                     std::vector<task::Dep> deps,
                                     bool split) {
  BandFftPipeline& p = p_;
  const task::Dep chain = task::inout(slot.token);
  const bool last = &x == &BandFftPipeline::kUnpack;
  Slot* s = &slot;
  deps.push_back(chain);
  if (!split) {
    auto body =
        guard([this, s, &x, iter] { p_.do_exchange(x, *s->wb, iter); });
    p.rt_->submit(core::cat(x.name, '#', iter), std::move(deps),
                  [this, body = std::move(body), iter, last] {
                    try {
                      body();
                    } catch (...) {
                      if (last) end_iteration(iter);
                      throw;
                    }
                    if (last) end_iteration(iter);
                  });
    return;
  }
  p.rt_->submit(core::cat(x.name, '#', iter), std::move(deps),
                guard([this, s, &x, iter] { post(*s, x, iter); }));
  p.rt_->submit_waitable(
      core::cat(x.name, "_wait#", iter), {chain},
      [this, s, &x, iter, last](bool last_chance) {
        bool done = false;
        try {
          done = wait_poll(*s, last_chance, x, iter);
        } catch (...) {
          if (last) end_iteration(iter);
          throw;
        }
        if (done && last) end_iteration(iter);
        return done;
      });
}

void StreamExecutor::submit_iteration(Slot& slot, int iter) {
  BandFftPipeline& p = p_;
  BandFftPipeline::WorkBuffers* wb = slot.wb.get();
  const int ntg = p.desc_->ntg();
  const std::size_t ng_w = p.desc_->ng_world(p.w_);
  const bool taskloop = taskloop_;

  // The psi clauses keep the graph honest about the only cross-iteration
  // data (the band slices, the paper's `psis`); everything else is
  // slot-private, ordered by the chain token (which also carries the
  // slot-reuse WAW edge).
  std::vector<task::Dep> psi_in;
  std::vector<task::Dep> psi_out;
  for (int m = 0; m < ntg; ++m) {
    const std::span<cplx> band{p.band_data(iter + m), ng_w};
    psi_in.push_back(task::in(std::span<const cplx>(band)));
    psi_out.push_back(task::out(band));
  }
  auto seq = [&](const char* name, std::function<void()> body) {
    p.rt_->submit(core::cat(name, '#', iter), {task::inout(slot.token)},
                  guard(std::move(body)));
  };
  // The ntg == 1 pack and unpack are local copies: nothing to split.
  const bool split_pack = split_ && ntg > 1;

  submit_exchange(slot, iter, BandFftPipeline::kPack, psi_in, split_pack);
  seq("psi_prep", [this, wb, iter] { p_.do_psi_prep(*wb, iter); });
  seq("fft_z_fw", [this, wb, iter, taskloop] {
    p_.do_fft_z(*wb, iter, Direction::Backward, taskloop);
  });
  submit_exchange(slot, iter, BandFftPipeline::kScatterFw, {}, split_);
  seq("fft_xy_fw", [this, wb, iter, taskloop] {
    p_.do_fft_xy(*wb, iter, Direction::Backward, taskloop);
  });
  if (p.cfg_.apply_potential) {
    seq("vofr", [this, wb, iter] { p_.do_vofr(*wb, iter); });
  }
  seq("fft_xy_bw", [this, wb, iter, taskloop] {
    p_.do_fft_xy(*wb, iter, Direction::Forward, taskloop);
  });
  submit_exchange(slot, iter, BandFftPipeline::kScatterBw, {}, split_);
  seq("fft_z_bw", [this, wb, iter, taskloop] {
    p_.do_fft_z(*wb, iter, Direction::Forward, taskloop);
  });
  submit_exchange(slot, iter, BandFftPipeline::kUnpack, psi_out, split_pack);
}

void StreamExecutor::install_queue_wait_observer() {
  // Ready-but-unscheduled time, attributed to the task's iteration (the
  // trailing "#<iter>" every executor label carries) as its own phase so
  // the observatory separates scheduler backlog from compute and comm.
  task::TaskObserver obs;
  obs.on_queue_wait = [rank = p_.w_](int /*worker*/,
                                     const std::string& label,
                                     double wait_s) {
    trace::Observatory* o = trace::obs_active();
    if (o == nullptr) return;
    const auto pos = label.rfind('#');
    if (pos == std::string::npos || pos + 1 >= label.size()) return;
    const int iter = std::atoi(label.c_str() + pos + 1);
    o->record_phase(rank, trace::PhaseKind::TaskWait, iter, wait_s);
  };
  p_.rt_->set_observer(std::move(obs));
}

void StreamExecutor::run() {
  BandFftPipeline& p = p_;
  const PipelineConfig& cfg = p.cfg_;
  const int ntg = p.desc_->ntg();
  const int iterations = p.npsi_ / ntg;

  // The mode presets (see the header's table).
  per_iteration_ = cfg.mode == PipelineMode::TaskPerFft ||
                   cfg.mode == PipelineMode::Combined;
  taskloop_ = cfg.mode == PipelineMode::TaskPerStep ||
              cfg.mode == PipelineMode::Combined;
  // The one split decision, which no option overrides: a split exchange
  // never blocks its task, so it needs the fused view layouts and no guard
  // (whose digest agreement is a blocking collective).
  split_ = cfg.mode == PipelineMode::Streaming && p.fused_ &&
           !cfg.guard_exchanges;
  depth_ = std::clamp(
      cfg.mode == PipelineMode::Streaming ? cfg.stream_bands : cfg.nthreads,
      1, iterations);
  if (!split_) {
    // Blocking-depth rule: blocking stage tasks pin a worker per
    // collective.  Step tasks make every iteration's first task ready at
    // submission, so without a cap FIFO dispatch lets one rank race ahead
    // and two ranks can block all their workers in collectives of
    // *disjoint* iteration sets.  At most nthreads iterations in flight
    // bounds the cross-rank skew to one window, so the blocked collective
    // sets intersect and some instance always completes.
    depth_ = std::min(depth_, cfg.nthreads);
  }
  if (!per_iteration_) {
    slots_.resize(static_cast<std::size_t>(depth_));
    for (Slot& s : slots_) s.wb = p.acquire_buffers();
  }
  if (trace::obs_active() != nullptr) install_queue_wait_observer();

  try {
    int index = 0;
    for (int iter = 0; iter < p.npsi_; iter += ntg, ++index) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (p.deadline_expired_collective(iter)) {
        // Same verdict on every rank: all stop submitting here and drain
        // the in-flight iterations (whose collectives need all ranks'
        // workers) before throwing, so the communicator stays healthy.
        p.rt_->taskwait();
        p.throw_deadline(iter);
      }
      if (per_iteration_) {
        p.rt_->submit(core::cat("band_fft#", iter), guard([this, iter] {
                        const auto wb = p_.acquire_buffers();
                        p_.do_iteration(*wb, iter, taskloop_);
                      }));
        continue;
      }
      if (index >= depth_) {
        std::unique_lock lock(window_mu_);
        window_cv_.wait(lock, [&] {
          return completed_ >= index - depth_ + 1;
        });
      }
      submit_iteration(slots_[static_cast<std::size_t>(index % depth_)],
                       iter);
    }
    p.rt_->taskwait();
  } catch (core::DeadlineExceeded&) {
    throw;  // agreed verdict; all ranks drained and throw in lockstep
  } catch (...) {
    // A worker failure surfaces from taskwait as a string-only TaskError;
    // an orchestrator-side failure (revoked deadline allreduce, submit on
    // a dying run) lands here directly.  Either way the first *original*
    // exception wins, so the RecoveryDriver's type dispatch (FaultError
    // vs repairable error) sees what Original would throw.
    capture_current();
    try {
      p.rt_->taskwait();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    std::rethrow_exception(first_error_);
  }
  if (first_error_ != nullptr) std::rethrow_exception(first_error_);
  stream_metrics().bands.add(static_cast<std::uint64_t>(p.npsi_));
}

}  // namespace fx::fftx
