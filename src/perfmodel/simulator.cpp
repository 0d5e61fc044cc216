#include "perfmodel/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "core/error.hpp"

namespace fx::model {

namespace {

constexpr double kEps = 1e-15;

struct ChainCursor {
  int iter = 0;
  std::size_t next_step = 0;
};

enum class WorkerState { Idle, Busy, Blocked };

struct Worker {
  WorkerState state = WorkerState::Idle;
  int chain = -1;  ///< index into the rank's chains when Busy/Blocked
};

struct ComputeActivity {
  int rank;
  int worker;                   ///< owning worker
  std::vector<int> helpers;     ///< extra workers joined via fan-out
  int chain;
  trace::PhaseKind phase;
  int band;
  double t_start;
  double instructions_total;
  double remaining;
  double bpi;     ///< bytes per instruction
  double weight;  ///< concurrent threads working on it
  double rate = 0.0;
};

struct Transfer {
  std::vector<std::pair<int, int>> members;  ///< (rank, worker)
  std::vector<double> arrival;               ///< per member
  std::vector<std::size_t> bytes;            ///< per member payload
  std::vector<int> chain;                    ///< per member chain index
  int comm_group;
  int comm_size;
  int tag;
  double latency_left;     ///< stage 1
  double bytes_left;       ///< stage 2
  double rate = 0.0;       ///< bytes/s during stage 2
  bool started = false;    ///< all participants arrived
  bool retired = false;    ///< completed and accounted
};

struct PendingInstanceKey {
  int comm_group;
  int tag;
  std::size_t occurrence;
  auto operator<=>(const PendingInstanceKey&) const = default;
};

}  // namespace

SimResult simulate(const ProgramBundle& bundle, const MachineConfig& machine,
                   const SimConfig& cfg, trace::Tracer* tracer) {
  const int P = static_cast<int>(bundle.programs.size());
  const int W = cfg.threads_per_rank;
  FX_CHECK(P >= 1 && W >= 1);
  const bool requeue_between_steps = cfg.mode == fftx::PipelineMode::TaskPerStep;
  const double freq_hz = machine.freq_ghz * 1e9;
  const double mem_bw = machine.mem_bw_gbps * 1e9;
  const double net_bw = machine.net_bw_gbps * 1e9;
  const double link_bw = machine.link_bw_gbps * 1e9;

  // Per-rank scheduling state.
  std::vector<std::vector<Worker>> workers(
      static_cast<std::size_t>(P),
      std::vector<Worker>(static_cast<std::size_t>(W)));
  std::vector<std::vector<ChainCursor>> chains(static_cast<std::size_t>(P));
  std::vector<std::deque<int>> ready(static_cast<std::size_t>(P));
  // Requeue (TaskPerStep) mode bounds started-unfinished chains per rank
  // to the worker count, mirroring the task executor's blocking-depth rule
  // (deadlock freedom: see StreamExecutor::run and DESIGN.md section 17).
  std::vector<int> active_chains(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    const auto& prog = bundle.programs[static_cast<std::size_t>(r)];
    chains[static_cast<std::size_t>(r)].resize(prog.size());
    for (std::size_t c = 0; c < prog.size(); ++c) {
      chains[static_cast<std::size_t>(r)][c].iter = static_cast<int>(c);
      ready[static_cast<std::size_t>(r)].push_back(static_cast<int>(c));
    }
  }

  std::vector<ComputeActivity> running;
  std::vector<Transfer> transfers;
  std::map<PendingInstanceKey, std::size_t> pending;  // -> transfers index
  std::map<std::tuple<int, int, int>, std::size_t> occurrence;  // rank,grp,tag

  double now = 0.0;
  SimResult result;

  auto step_of = [&](int rank, int chain) -> const Step& {
    const auto& cur =
        chains[static_cast<std::size_t>(rank)][static_cast<std::size_t>(chain)];
    return bundle.programs[static_cast<std::size_t>(rank)]
        [static_cast<std::size_t>(cur.iter)][cur.next_step];
  };
  auto chain_done = [&](int rank, int chain) {
    const auto& cur =
        chains[static_cast<std::size_t>(rank)][static_cast<std::size_t>(chain)];
    return cur.next_step >= bundle.programs[static_cast<std::size_t>(rank)]
                                [static_cast<std::size_t>(cur.iter)]
                                    .size();
  };

  // Starts the next step of `chain` on `worker` of `rank`.
  std::function<void(int, int, int)> start_step = [&](int rank, int worker,
                                                      int chain) {
    auto& wk = workers[static_cast<std::size_t>(rank)]
                      [static_cast<std::size_t>(worker)];
    const Step& step = step_of(rank, chain);
    const int band =
        chains[static_cast<std::size_t>(rank)][static_cast<std::size_t>(chain)]
            .iter *
        bundle.ntg;

    if (step.kind == Step::Kind::Compute) {
      ComputeActivity act;
      act.rank = rank;
      act.worker = worker;
      act.chain = chain;
      act.phase = step.phase;
      act.band = band;
      act.t_start = now;
      act.instructions_total = std::max(step.instructions, 0.0);
      act.remaining = act.instructions_total;
      act.bpi = step.instructions > 0.0 ? step.bytes / step.instructions : 0.0;
      act.weight = 1.0;
      wk.state = WorkerState::Busy;
      wk.chain = chain;
      // Fan-out (taskloop): grab idle workers only when no chain is
      // waiting for a worker, mirroring FIFO task dispatch.
      if (step.parallelizable && step.chunks > 1 &&
          ready[static_cast<std::size_t>(rank)].empty()) {
        for (int h = 0; h < W && act.weight < static_cast<double>(step.chunks);
             ++h) {
          auto& cand = workers[static_cast<std::size_t>(rank)]
                              [static_cast<std::size_t>(h)];
          if (cand.state == WorkerState::Idle) {
            cand.state = WorkerState::Busy;
            cand.chain = chain;
            act.helpers.push_back(h);
            act.weight += 1.0;
          }
        }
      }
      running.push_back(std::move(act));
      return;
    }

    // Collective: join (or create) the matching instance.
    const auto okey = std::make_tuple(rank, step.comm_group, band);
    const std::size_t occ = occurrence[okey]++;
    const PendingInstanceKey key{step.comm_group, band, occ};
    auto it = pending.find(key);
    if (it == pending.end()) {
      Transfer tr;
      tr.comm_group = step.comm_group;
      tr.comm_size = static_cast<int>(
          bundle.comm_members[static_cast<std::size_t>(step.comm_group)]
              .size());
      tr.tag = band;
      tr.latency_left =
          machine.alpha_us * 1e-6 *
              std::ceil(std::log2(std::max(2, tr.comm_size))) +
          machine.per_member_us * 1e-6 * tr.comm_size;
      tr.bytes_left = 0.0;
      transfers.push_back(std::move(tr));
      it = pending.emplace(key, transfers.size() - 1).first;
    }
    Transfer& tr = transfers[it->second];
    tr.members.emplace_back(rank, worker);
    tr.arrival.push_back(now);
    tr.bytes.push_back(step.comm_bytes);
    tr.chain.push_back(chain);
    tr.bytes_left += static_cast<double>(step.comm_bytes);
    wk.state = WorkerState::Blocked;
    wk.chain = chain;
    if (static_cast<int>(tr.members.size()) == tr.comm_size) {
      tr.started = true;  // begins consuming latency then bandwidth
      pending.erase(it);  // no further participants will look it up
    }
  };

  auto dispatch = [&](int rank) {
    auto& rq = ready[static_cast<std::size_t>(rank)];
    for (int wkr = 0; wkr < W && !rq.empty(); ++wkr) {
      auto& wk = workers[static_cast<std::size_t>(rank)]
                        [static_cast<std::size_t>(wkr)];
      if (wk.state != WorkerState::Idle) continue;
      // FIFO pop, skipping not-yet-started chains while the window is full.
      auto it = rq.begin();
      if (requeue_between_steps &&
          active_chains[static_cast<std::size_t>(rank)] >= W) {
        while (it != rq.end() &&
               chains[static_cast<std::size_t>(rank)]
                     [static_cast<std::size_t>(*it)]
                         .next_step == 0) {
          ++it;
        }
      }
      if (it == rq.end()) return;
      const int chain = *it;
      rq.erase(it);
      if (chains[static_cast<std::size_t>(rank)]
                [static_cast<std::size_t>(chain)]
                    .next_step == 0) {
        ++active_chains[static_cast<std::size_t>(rank)];
      }
      start_step(rank, wkr, chain);
    }
  };
  for (int r = 0; r < P; ++r) dispatch(r);

  // Deterministic execution-time variation in [1 - amp, 1 + amp]: system
  // noise, core binning, and per-band data-dependent variability.  Keyed by
  // (rank, worker, band) so successive tasks of one worker drift randomly
  // -- the seed of the task version's de-synchronization (the original
  // version re-synchronizes at every iteration's collectives regardless).
  auto unit_hash = [](std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  };
  auto noise = [&](int rank, int worker, int band) {
    // Static component (core binning, placement) keyed by the stream,
    // plus a per-band component (data-dependent variability, OS jitter)
    // that makes successive tasks of one worker drift apart -- the seed of
    // the task version's de-synchronization.  The original version
    // re-synchronizes at every iteration's collectives either way.
    const double u_stream =
        unit_hash(static_cast<std::uint64_t>(rank) * 8191u +
                  static_cast<std::uint64_t>(worker) * 131071u + 0x9e37u);
    const double u_band =
        unit_hash(static_cast<std::uint64_t>(rank) * 8191u +
                  static_cast<std::uint64_t>(worker) * 131071u +
                  static_cast<std::uint64_t>(band + 7) * 524287u);
    const double frac = machine.noise_band_frac;
    return 1.0 + machine.noise_amp * ((1.0 - frac) * u_stream + frac * u_band);
  };

  auto recompute_rates = [&] {
    // Issue sharing plus mesh/coherence degradation across the node.
    double active_threads = 0.0;
    for (const auto& a : running) active_threads += a.weight;
    double issue =
        active_threads > machine.cores
            ? static_cast<double>(machine.cores) / active_threads *
                  machine.smt_eff
            : 1.0;
    const double active_cores =
        std::min(active_threads, static_cast<double>(machine.cores));
    issue /= 1.0 + machine.mesh_contention * std::max(0.0, active_cores - 1.0);

    // Same-phase interference (see MachineConfig::same_phase_contention).
    // Counted in *core* equivalents: hyper-threads of one core do not add
    // extra colliding access streams beyond the core's issue share.
    const double core_share =
        active_threads > 0.0 ? active_cores / active_threads : 1.0;
    std::array<double, trace::kNumPhaseKinds> phase_threads{};
    for (const auto& a : running) {
      phase_threads[static_cast<std::size_t>(a.phase)] += a.weight;
    }
    auto same_phase_factor = [&](trace::PhaseKind phase) {
      const double same =
          phase_threads[static_cast<std::size_t>(phase)] * core_share;
      return 1.0 /
             (1.0 + machine.same_phase_contention * std::max(0.0, same - 1.0));
    };

    // Max-min fair share of memory bandwidth over byte demands.
    struct Demand {
      std::size_t index;
      double demand;
    };
    std::vector<Demand> demands;
    demands.reserve(running.size());
    double total_demand = 0.0;
    for (std::size_t i = 0; i < running.size(); ++i) {
      const auto& a = running[i];
      const double nominal = a.weight * machine.base_ipc_of(a.phase) * issue *
                             same_phase_factor(a.phase) *
                             noise(a.rank, a.worker, a.band) * freq_hz;
      const double d = nominal * a.bpi;
      demands.push_back({i, d});
      total_demand += d;
    }
    std::vector<double> factor(running.size(), 1.0);
    if (total_demand > mem_bw && !demands.empty()) {
      std::ranges::sort(demands, [](const Demand& x, const Demand& y) {
        return x.demand < y.demand;
      });
      double remaining_bw = mem_bw;
      std::size_t left = demands.size();
      for (const auto& d : demands) {
        const double fair = remaining_bw / static_cast<double>(left);
        const double alloc = std::min(d.demand, fair);
        factor[d.index] = d.demand > 0.0 ? alloc / d.demand : 1.0;
        remaining_bw -= alloc;
        --left;
      }
    }
    for (std::size_t i = 0; i < running.size(); ++i) {
      auto& a = running[i];
      a.rate = a.weight * machine.base_ipc_of(a.phase) * issue *
               same_phase_factor(a.phase) * noise(a.rank, a.worker, a.band) *
               factor[i] * freq_hz;
      if (a.rate <= 0.0) a.rate = 1.0;  // zero-IPC guard
    }

    // Transfers in the payload stage share the node exchange bandwidth.
    std::size_t active_transfers = 0;
    for (const auto& t : transfers) {
      if (t.started && t.latency_left <= kEps && t.bytes_left > kEps) {
        ++active_transfers;
      }
    }
    for (auto& t : transfers) {
      if (t.started && t.latency_left <= kEps && t.bytes_left > kEps) {
        t.rate = std::min(net_bw / static_cast<double>(active_transfers),
                          static_cast<double>(t.comm_size) * link_bw);
      } else {
        t.rate = 0.0;
      }
    }
  };

  auto emit_compute = [&](const ComputeActivity& a) {
    result.total_compute += (now - a.t_start) * a.weight;
    if (tracer == nullptr) return;
    tracer->record_compute(trace::ComputeEvent{
        a.rank, a.worker, a.phase, a.band, a.t_start, now,
        a.instructions_total});
  };
  auto emit_transfer = [&](const Transfer& t) {
    if (tracer == nullptr) return;
    for (std::size_t i = 0; i < t.members.size(); ++i) {
      tracer->record_comm(trace::CommOpEvent{
          t.members[i].first, t.members[i].second, mpi::CommOpKind::Alltoallv,
          t.comm_group, t.comm_size, t.tag, t.bytes[i], t.arrival[i], now});
    }
  };

  // Advances one chain after its current step completed on (rank, worker).
  auto advance_chain = [&](int rank, int worker, int chain) {
    auto& cur =
        chains[static_cast<std::size_t>(rank)][static_cast<std::size_t>(chain)];
    ++cur.next_step;
    auto& wk = workers[static_cast<std::size_t>(rank)]
                      [static_cast<std::size_t>(worker)];
    wk.state = WorkerState::Idle;
    wk.chain = -1;
    if (!chain_done(rank, chain)) {
      if (requeue_between_steps) {
        ready[static_cast<std::size_t>(rank)].push_back(chain);
      } else {
        // Keep-chain modes: continue immediately on the same worker.
        start_step(rank, worker, chain);
        dispatch(rank);  // helpers freed above may serve waiting chains
        return;
      }
    } else {
      --active_chains[static_cast<std::size_t>(rank)];
    }
    dispatch(rank);
  };

  recompute_rates();
  const std::size_t kEventCap = 100'000'000;
  while (!running.empty() ||
         std::ranges::any_of(transfers, [](const Transfer& t) {
           return t.started && !t.retired;
         })) {
    FX_CHECK(result.events < kEventCap, "simulator runaway");

    // Next event time.
    double dt = std::numeric_limits<double>::infinity();
    for (const auto& a : running) {
      dt = std::min(dt, a.remaining / a.rate);
    }
    for (const auto& t : transfers) {
      if (!t.started || t.retired) continue;
      if (t.latency_left > kEps) {
        dt = std::min(dt, t.latency_left);
      } else if (t.bytes_left > kEps && t.rate > 0.0) {
        dt = std::min(dt, t.bytes_left / t.rate);
      } else {
        dt = 0.0;  // ready to retire this round
      }
    }
    FX_CHECK(std::isfinite(dt), "simulator stalled: blocked without events");
    dt = std::max(dt, 0.0);
    now += dt;
    ++result.events;

    // Progress everything.
    for (auto& a : running) a.remaining -= a.rate * dt;
    for (auto& t : transfers) {
      if (!t.started || t.retired) continue;
      if (t.latency_left > kEps) {
        t.latency_left -= dt;
      } else if (t.rate > 0.0) {
        t.bytes_left -= t.rate * dt;
        if (dt > 0.0) result.total_transfer += dt;
      }
    }

    // Complete compute activities.
    std::vector<ComputeActivity> finished;
    for (std::size_t i = 0; i < running.size();) {
      if (running[i].remaining <= kEps * std::max(1.0, running[i].instructions_total)) {
        finished.push_back(std::move(running[i]));
        running[i] = std::move(running.back());
        running.pop_back();
      } else {
        ++i;
      }
    }
    for (const auto& a : finished) {
      emit_compute(a);
      for (int h : a.helpers) {
        auto& helper = workers[static_cast<std::size_t>(a.rank)]
                              [static_cast<std::size_t>(h)];
        helper.state = WorkerState::Idle;
        helper.chain = -1;
      }
      advance_chain(a.rank, a.worker, a.chain);
    }

    // Complete transfers.  Mark retired first, then advance the blocked
    // chains (advancing may append new transfers; indices stay stable).
    const std::size_t transfer_count = transfers.size();
    for (std::size_t i = 0; i < transfer_count; ++i) {
      Transfer& t = transfers[i];
      if (t.retired || !t.started || t.latency_left > kEps ||
          t.bytes_left > kEps) {
        continue;
      }
      t.retired = true;
      emit_transfer(t);
      for (std::size_t m = 0; m < t.members.size(); ++m) {
        advance_chain(t.members[m].first, t.members[m].second, t.chain[m]);
      }
    }

    recompute_rates();
  }

  // Sanity: nothing left blocked.
  for (int r = 0; r < P; ++r) {
    for (int wkr = 0; wkr < W; ++wkr) {
      FX_ASSERT(workers[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(wkr)]
                           .state == WorkerState::Idle,
                "worker stuck at end of simulation");
    }
    FX_ASSERT(ready[static_cast<std::size_t>(r)].empty(),
              "undispatched chains at end of simulation");
  }

  result.makespan = now;
  return result;
}

}  // namespace fx::model
