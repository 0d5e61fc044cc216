#include "trace/phases.hpp"

namespace fx::trace {

const char* to_string(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::PsiPrep:
      return "psi_prep";
    case PhaseKind::Pack:
      return "pack";
    case PhaseKind::FftZ:
      return "fft_z";
    case PhaseKind::Scatter:
      return "scatter";
    case PhaseKind::FftXy:
      return "fft_xy";
    case PhaseKind::Vofr:
      return "vofr";
    case PhaseKind::Unpack:
      return "unpack";
    case PhaseKind::Other:
      return "other";
    case PhaseKind::Abft:
      return "abft";
    case PhaseKind::TaskWait:
      return "task_wait";
  }
  return "?";
}

PhaseCost fft_cost(std::size_t points, std::size_t len) {
  if (points == 0 || len <= 1) return {0.0, 0.0};
  const double p = static_cast<double>(points);
  const double lg = std::log2(static_cast<double>(len));
  const double flops = 5.0 * p * lg;
  const double instructions = 1.5 * flops;
  // One 16-byte complex read + write per element per pass; the butterflies
  // of one pass largely hit cache, so charge half a pass of DRAM traffic.
  const double bytes = 0.5 * 32.0 * p * lg;
  return {instructions, bytes};
}

PhaseCost copy_cost(std::size_t elems) {
  const double e = static_cast<double>(elems);
  // ~4 instructions per element (indexed load, store, pointer bookkeeping)
  // against a full 16-byte read + 16-byte write: bytes/instruction ~ 8,
  // the bandwidth-bound regime.
  return {4.0 * e, 32.0 * e};
}

PhaseCost vofr_cost(std::size_t elems) {
  const double e = static_cast<double>(elems);
  // Complex*real multiply: 2 flops + loads/stores; reads V (8B) and the
  // element (16B), writes 16B.
  return {6.0 * e, 40.0 * e};
}

}  // namespace fx::trace
