#include "trace/analysis.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "core/error.hpp"

namespace fx::trace {

namespace {
/// Stable row id for a (rank, thread) stream.
std::int64_t row_of(int rank, int thread) {
  return static_cast<std::int64_t>(rank) * 4096 + thread;
}
}  // namespace

PopFactors pop_factors(double total_compute, double max_compute, int rows,
                       double runtime) {
  PopFactors f;
  if (max_compute > 0.0 && rows > 0) {
    f.load_balance = (total_compute / rows) / max_compute;
  }
  if (runtime > 0.0) {
    f.comm_efficiency = std::min(1.0, max_compute / runtime);
  }
  return f;
}

EfficiencySummary analyze_efficiency(const Tracer& tracer, double freq_ghz) {
  FX_CHECK(freq_ghz > 0.0, "frequency must be positive");
  EfficiencySummary s;

  // Per-row computation time.  ABFT spans are integrity *overhead*, not
  // useful computation: counting them as compute would flatter the load
  // balance (every rank checks in lockstep) and shift comm efficiency, so
  // Tables I/II reproductions would no longer isolate the algorithm.  The
  // rows still exist (a rank that only ran checks is still a stream).
  std::map<std::int64_t, double> compute;
  for (const auto& e : tracer.compute_events()) {
    compute.try_emplace(row_of(e.rank, e.thread), 0.0);
    if (e.phase == PhaseKind::Abft || e.phase == PhaseKind::TaskWait) continue;
    compute[row_of(e.rank, e.thread)] += e.t_end - e.t_begin;
    s.total_instructions += e.instructions;
  }
  // Rows that only communicate still count as rows.
  for (const auto& e : tracer.comm_events()) {
    compute.try_emplace(row_of(e.rank, e.thread), 0.0);
  }
  s.rows = static_cast<int>(compute.size());
  if (s.rows == 0) return s;

  for (const auto& [row, c] : compute) {
    s.total_compute += c;
    s.max_compute = std::max(s.max_compute, c);
  }
  s.avg_compute = s.total_compute / s.rows;
  s.runtime = tracer.t_max() - tracer.t_min();

  if (s.total_compute > 0.0) {
    s.avg_ipc = s.total_instructions / (s.total_compute * freq_ghz * 1e9);
  }
  const PopFactors pop =
      pop_factors(s.total_compute, s.max_compute, s.rows, s.runtime);
  s.load_balance = pop.load_balance;
  s.comm_efficiency = pop.comm_efficiency;

  // Transfer estimation: group collective events into instances by
  // (comm id, kind, tag, per-rank occurrence index); the time after the
  // last participant entered is transfer, the rest is synchronization wait.
  struct Key {
    int comm_id;
    int kind;
    int tag;
    std::size_t occurrence;
    auto operator<=>(const Key&) const = default;
  };
  std::map<std::tuple<std::int64_t, int, int, int>, std::size_t> occurrence;
  struct Instance {
    double max_enter = 0.0;
    std::vector<std::pair<std::int64_t, std::pair<double, double>>> events;
  };
  std::map<Key, Instance> instances;
  // Events are recorded in completion order; per (row, comm, kind, tag)
  // order matches issue order, which is what instance matching needs.
  for (const auto& e : tracer.comm_events()) {
    if (e.kind == mpi::CommOpKind::Send || e.kind == mpi::CommOpKind::Recv) {
      continue;  // point-to-point handled as pure transfer below
    }
    const std::int64_t row = row_of(e.rank, e.thread);
    const auto occ_key =
        std::make_tuple(row, e.comm_id, static_cast<int>(e.kind), e.tag);
    const std::size_t occ = occurrence[occ_key]++;
    Instance& inst =
        instances[Key{e.comm_id, static_cast<int>(e.kind), e.tag, occ}];
    inst.max_enter = std::max(inst.max_enter, e.t_begin);
    inst.events.emplace_back(row, std::make_pair(e.t_begin, e.t_end));
  }

  std::map<std::int64_t, double> transfer;
  for (const auto& [key, inst] : instances) {
    for (const auto& [row, span] : inst.events) {
      const double xfer = std::max(0.0, span.second - inst.max_enter);
      transfer[row] += xfer;
    }
  }
  for (const auto& e : tracer.comm_events()) {
    if (e.kind == mpi::CommOpKind::Send || e.kind == mpi::CommOpKind::Recv) {
      transfer[row_of(e.rank, e.thread)] += e.t_end - e.t_begin;
    }
  }

  double avg_transfer = 0.0;
  for (const auto& [row, x] : transfer) avg_transfer += x;
  avg_transfer /= s.rows;

  if (s.runtime > 0.0) {
    const double t_ideal = std::max(s.max_compute, s.runtime - avg_transfer);
    s.transfer_efficiency = std::min(1.0, t_ideal / s.runtime);
    s.sync_efficiency =
        s.transfer_efficiency > 0.0
            ? std::min(1.0, s.comm_efficiency / s.transfer_efficiency)
            : 1.0;
  }
  s.parallel_efficiency = s.load_balance * s.comm_efficiency;
  return s;
}

ScalabilityFactors scale_against(const EfficiencySummary& ref,
                                 const EfficiencySummary& run) {
  ScalabilityFactors f;
  if (run.total_instructions > 0.0) {
    f.instruction_scalability =
        ref.total_instructions / run.total_instructions;
  }
  if (ref.avg_ipc > 0.0) {
    f.ipc_scalability = run.avg_ipc / ref.avg_ipc;
  }
  if (run.total_compute > 0.0) {
    f.computation_scalability = ref.total_compute / run.total_compute;
  }
  f.global_efficiency = run.parallel_efficiency * f.computation_scalability;
  return f;
}

double mean_phase_ipc(const Tracer& tracer, PhaseKind kind, double freq_ghz) {
  double instructions = 0.0;
  double seconds = 0.0;
  for (const auto& e : tracer.compute_events()) {
    if (e.phase != kind) continue;
    instructions += e.instructions;
    seconds += e.t_end - e.t_begin;
  }
  if (seconds <= 0.0) return 0.0;
  return instructions / (seconds * freq_ghz * 1e9);
}

}  // namespace fx::trace
