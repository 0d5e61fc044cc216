// Phase taxonomy and instruction/byte cost model.
//
// The FFT kernel's compute phases, as identified in the paper's Fig. 3
// timeline analysis (psi preparation, pack, FFT-Z, scatter, FFT-XY, VOFR,
// and their mirrors).  Each phase gets a first-order operation-count model:
// `instructions` feeds the instruction-scalability metric of the POP
// efficiency model, and `bytes` (memory traffic) feeds the KNL contention
// model -- phases with a high bytes/instruction ratio are the ones whose
// IPC collapses when every core runs them simultaneously.
//
// We have no hardware counters (and the model backend has no hardware at
// all), so instruction counts are *estimates from work descriptors*; they
// are consistent between both backends by construction, which is exactly
// what relative metrics need.
#pragma once

#include <cmath>
#include <cstddef>

namespace fx::trace {

/// Compute-phase kinds of the band-FFT pipeline.
enum class PhaseKind {
  PsiPrep,   ///< expanding packed coefficients into pencil buffers
  Pack,      ///< band redistribution across task groups (with Alltoallv)
  FftZ,      ///< 1D FFTs along Z on sticks
  Scatter,   ///< pencil<->plane data movement (with Alltoall(v))
  FftXy,     ///< 2D FFTs on owned planes
  Vofr,      ///< pointwise V(r) application
  Unpack,    ///< redistribution back + rescaling
  Other,
  // Appended (not inserted): the integer values above are serialized in
  // traces, so they must stay stable.
  Abft,      ///< checksum-band / Parseval / digest integrity checks
  TaskWait,  ///< ready-but-unscheduled queue wait (streaming scheduler)
};

/// Short stable name, e.g. "fft_z" (used by timelines and CSVs).
const char* to_string(PhaseKind kind);

/// Number of distinct PhaseKind values (for arrays indexed by phase).
inline constexpr int kNumPhaseKinds = 10;

/// First-order operation counts for one phase execution.
struct PhaseCost {
  double instructions;
  double bytes;  ///< memory traffic (read + write)
};

/// Cost of a batch of 1D FFTs: `points` total complex elements across all
/// transforms of length `len`.  Complex radix-2-equivalent work is about
/// 5*N*log2(N) flops per transform; we charge ~1.5 instructions per flop
/// (address arithmetic, loads/stores) and one read+write of the working
/// set per log-pass through the cache-unfriendly strides.
PhaseCost fft_cost(std::size_t points, std::size_t len);

/// Cost of a pure data-movement phase over `elems` complex elements
/// (pack/unpack/scatter local marshalling): few instructions, maximal
/// memory traffic -- the low-IPC phases of Fig. 3.
PhaseCost copy_cost(std::size_t elems);

/// Cost of the pointwise potential application over `elems` elements.
PhaseCost vofr_cost(std::size_t elems);

}  // namespace fx::trace
