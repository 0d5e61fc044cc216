// FFT descriptor: the complete data layout of the two-layer distributed
// band FFT (QE's fft_type_descriptor analogue).
//
// World layout.  P = nproc world ranks process NB bands with T = ntg FFT
// task groups; R = P/T ranks form one group.  For world rank w:
//
//   group id        g = w % T     (which task group w belongs to)
//   group rank      b = w / T     (w's position inside its group)
//
// yielding the paper's two communicator layers (Sec. III):
//
//   pack comm    b: the T *neighboring* ranks {b*T .. b*T+T-1}, one from
//                   each group -- carries the band redistribution
//                   (MPI_Alltoallv in pack/unpack);
//   scatter comm g: the R *alternating* ranks {g, g+T, g+2T, ...} -- one
//                   task group, carries the pencil<->plane MPI_Alltoall(v).
//
// Stick layout.  The G sphere is split into Z sticks distributed over all P
// world ranks (the resting distribution of every band's coefficients).  At
// the *group* level, group rank b owns the union of the world sticks of its
// pack comm {b*T+m}; after the pack exchange, rank (b, g) holds band
// (iter + g) on exactly those sticks, so the group can transform the whole
// band among its R ranks.  Group-level planes are block-distributed over
// the R group ranks.
//
// The descriptor precomputes every index map the pipeline needs, so the hot
// path is pure copies and FFT calls:
//
//   world_g_index(w) : global stick-ordered G positions of rank w's sticks
//   pencil_index(b)  : group-G position -> offset in the Z-pencil buffer
//   stick_xy(s)      : folded (x, y) plane offset of global stick s
//   group_sticks(q)  : global stick ids owned by group rank q (m-major)
//
// All maps depend only on (cell, cutoff, P, T) -- identical on every rank
// and every task group by construction.
//
// The real-space potential V(r) is a per-descriptor constant, as QE's
// local potential is constant within one SCF step: potential(b) fills
// group rank b's slab on first use (once, thread-safe) and every pipeline
// built on the descriptor borrows it.  The T ranks sharing b share one
// slab; descriptors that never apply V never compute it.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "pw/grid.hpp"
#include "pw/gvectors.hpp"
#include "pw/lattice.hpp"
#include "pw/sticks.hpp"

namespace fx::fftx {

class Descriptor {
 public:
  /// Builds the full layout.  nproc must be divisible by ntg.
  Descriptor(const pw::Cell& cell, double ecutwfc_ry, int nproc, int ntg);

  /// Shrink rebuild: the same problem (cell, cutoff, grid, sphere, global
  /// stick order) redistributed over a different rank/group count.  Stick
  /// ownership is rebalanced, planes redistributed, every index map
  /// rebuilt; the packed *global* coefficient order is unchanged, so data
  /// checkpointed under `base` replays bit-for-bit under the new layout.
  Descriptor(const Descriptor& base, int nproc, int ntg);

  // --- Globals ---
  [[nodiscard]] const pw::Cell& cell() const { return cell_; }
  [[nodiscard]] const pw::GridDims& dims() const { return dims_; }
  [[nodiscard]] const pw::GSphere& sphere() const { return *sphere_; }
  [[nodiscard]] const pw::StickMap& world_sticks() const { return *sticks_; }
  [[nodiscard]] const pw::PlaneDist& planes() const { return *planes_; }
  [[nodiscard]] int nproc() const { return nproc_; }
  [[nodiscard]] int ntg() const { return ntg_; }
  /// R = nproc / ntg: ranks per task group == scatter comm size.
  [[nodiscard]] int group_size() const { return nproc_ / ntg_; }

  // --- World-rank decomposition ---
  [[nodiscard]] int group_of(int w) const { return w % ntg_; }
  [[nodiscard]] int group_rank_of(int w) const { return w / ntg_; }
  [[nodiscard]] int world_rank(int b, int g) const { return b * ntg_ + g; }

  /// Packed coefficient count of world rank w (sphere G on its sticks).
  [[nodiscard]] std::size_t ng_world(int w) const {
    return sticks_->ng_of(w);
  }
  /// Global stick-ordered G positions of world rank w, concatenated over
  /// its sticks in stick-index order (the packed storage order).
  [[nodiscard]] std::span<const std::size_t> world_g_index(int w) const {
    return world_g_index_[static_cast<std::size_t>(w)];
  }

  // --- Group-rank layout (identical across the T groups) ---
  [[nodiscard]] std::size_t ng_group(int b) const {
    return ng_group_[static_cast<std::size_t>(b)];
  }
  [[nodiscard]] std::size_t nsticks_group(int b) const {
    return group_sticks_[static_cast<std::size_t>(b)].size();
  }
  [[nodiscard]] std::size_t total_sticks() const {
    return sticks_->num_sticks();
  }
  /// Global stick ids owned by group rank q (pack-member-major order --
  /// the canonical group-stick enumeration used by every buffer).
  [[nodiscard]] std::span<const std::size_t> group_sticks(int q) const {
    return group_sticks_[static_cast<std::size_t>(q)];
  }
  /// Owned Z planes of group rank b.
  [[nodiscard]] std::size_t npz(int b) const { return planes_->count(b); }
  [[nodiscard]] std::size_t first_plane(int b) const {
    return planes_->first(b);
  }

  // --- Index maps ---
  /// For group rank b: offset into the Z-pencil buffer (slot*nz + fold(mz))
  /// of each group-level G coefficient, in pack-receive order.
  [[nodiscard]] std::span<const std::size_t> pencil_index(int b) const {
    return pencil_index_[static_cast<std::size_t>(b)];
  }
  /// Folded in-plane offset (fold(mx) + nx*fold(my)) of global stick s.
  [[nodiscard]] std::size_t stick_xy(std::size_t s) const {
    return stick_xy_[s];
  }

  /// Pack exchange counts for any pack comm: element count contributed by
  /// member m of pack comm b is ng_world(b*T + m).
  [[nodiscard]] std::size_t pack_count(int b, int m) const {
    return ng_world(world_rank(b, m));
  }

  /// Real-space potential slab of group rank b: npz(b) * nx * ny values,
  /// plane-major [iz][iy][ix].  Computed from pw::potential_value on the
  /// first call for b (concurrent first calls wait for the one fill);
  /// valid for the descriptor's lifetime.
  [[nodiscard]] std::span<const double> potential(int b) const;

  /// Total complex elements a group rank's pencil buffer holds.
  [[nodiscard]] std::size_t pencil_size(int b) const {
    return nsticks_group(b) * dims_.nz;
  }
  /// Total complex elements of group rank b's plane slab.
  [[nodiscard]] std::size_t plane_size(int b) const {
    return npz(b) * dims_.plane();
  }

 private:
  /// Builds every index map from dims_/sphere_/sticks_/planes_ (shared by
  /// both constructors).
  void build_layout();

  pw::Cell cell_;
  pw::GridDims dims_{};
  int nproc_;
  int ntg_;
  std::unique_ptr<pw::GSphere> sphere_;
  std::unique_ptr<pw::StickMap> sticks_;
  std::unique_ptr<pw::PlaneDist> planes_;

  std::vector<std::vector<std::size_t>> world_g_index_;  // per world rank
  std::vector<std::vector<std::size_t>> group_sticks_;   // per group rank
  std::vector<std::size_t> ng_group_;                    // per group rank
  std::vector<std::vector<std::size_t>> pencil_index_;   // per group rank
  std::vector<std::size_t> stick_xy_;                    // per global stick

  // Per group rank; each slab is filled by the first potential(b) call.
  struct PotentialSlab {
    std::once_flag filled;
    std::vector<double> v;
  };
  std::unique_ptr<PotentialSlab[]> potential_;
};

}  // namespace fx::fftx
