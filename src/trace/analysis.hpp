// The POP efficiency model (Rosas, Gimenez, Labarta: "Scalability
// Prediction for Fundamental Performance Factors") computed from traces --
// the analysis behind the paper's Tables I and II.
//
// Hierarchy (all factors multiplicative):
//
//   Global efficiency   = Parallel efficiency x Computation scalability
//   Parallel efficiency = Load balance x Communication efficiency
//   Comm efficiency     = Synchronization efficiency x Transfer efficiency
//   Comp scalability    = IPC scalability x Instruction scalability
//
// Definitions (paper Sec. III): a "row" is one execution stream -- an MPI
// rank in the original version, a (rank, worker-thread) pair in the task
// versions.  C_i is row i's accumulated computation time; T the total
// runtime.
//
//   Load balance        = avg_i(C_i) / max_i(C_i)
//   Comm efficiency     = max_i(C_i) / T
//   Transfer efficiency = T_ideal / T, with T_ideal the runtime on an
//                         instantaneous network.  We estimate the transfer
//                         part of each collective as the time after the
//                         *last* participant arrived (the remainder being
//                         synchronization wait), and T_ideal = T minus the
//                         average per-row transfer time -- a first-order
//                         estimator of the same quantity POP obtains by
//                         ideal-network replay.
//   Sync efficiency     = Comm efficiency / Transfer efficiency
//
// Scalability factors compare a run against the smallest run of its sweep:
//
//   Instruction scal.   = total_instructions_ref / total_instructions_run
//   IPC scalability     = IPC_run / IPC_ref
//   Computation scal.   = (ref total compute time) / (run total compute
//                         time), equal to the product of the previous two
//                         when the frequency is fixed.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/tracer.hpp"

namespace fx::trace {

/// Per-run efficiency factors and aggregates.
struct EfficiencySummary {
  int rows = 0;                 ///< execution streams observed
  double runtime = 0.0;         ///< t_max - t_min of the trace
  double total_compute = 0.0;   ///< sum over rows of C_i
  double max_compute = 0.0;     ///< max_i C_i
  double avg_compute = 0.0;     ///< avg_i C_i
  double total_instructions = 0.0;
  double avg_ipc = 0.0;         ///< total_instructions/(total_compute*freq)

  double load_balance = 1.0;
  double comm_efficiency = 1.0;
  double sync_efficiency = 1.0;
  double transfer_efficiency = 1.0;
  double parallel_efficiency = 1.0;
};

/// Scalability of `run` against the sweep's smallest configuration `ref`.
struct ScalabilityFactors {
  double computation_scalability = 1.0;
  double ipc_scalability = 1.0;
  double instruction_scalability = 1.0;
  double global_efficiency = 1.0;
};

/// The two POP factors of Table I from per-row compute totals: load
/// balance avg_i(C_i) / max_i(C_i) and communication efficiency
/// max_i(C_i) / T (capped at 1).  analyze_efficiency applies it to a
/// whole trace and the observatory to one band iteration, so the two can
/// never disagree on the arithmetic.
struct PopFactors {
  double load_balance = 1.0;
  double comm_efficiency = 1.0;
};
PopFactors pop_factors(double total_compute, double max_compute, int rows,
                       double runtime);

/// Computes the per-run factors.  `freq_ghz` converts compute time to
/// cycles for the IPC aggregate (use the machine model's clock for model
/// traces; any consistent value works for relative real-trace analysis).
/// PhaseKind::Abft spans are classified as overhead, not computation: they
/// contribute neither to C_i nor to the instruction totals, so ABFT duty
/// cycles do not skew the factors.
EfficiencySummary analyze_efficiency(const Tracer& tracer, double freq_ghz);

/// Derives the cross-run factors of Tables I/II.
ScalabilityFactors scale_against(const EfficiencySummary& ref,
                                 const EfficiencySummary& run);

/// Duration-weighted mean IPC of one phase kind across the trace (the
/// paper's "main compute phase" IPC numbers in Sec. V use FftXy).
double mean_phase_ipc(const Tracer& tracer, PhaseKind kind, double freq_ghz);

}  // namespace fx::trace
