#include "fftx/descriptor.hpp"

#include "core/error.hpp"
#include "pw/wavefunction.hpp"

namespace fx::fftx {

namespace {

/// V(r) at every node of the `npz` planes from `first`, plane-major.
void fill_potential(std::span<double> v, std::size_t first, std::size_t npz,
                    const pw::GridDims& dims) {
  std::size_t pos = 0;
  for (std::size_t iz = 0; iz < npz; ++iz) {
    for (std::size_t iy = 0; iy < dims.ny; ++iy) {
      for (std::size_t ix = 0; ix < dims.nx; ++ix) {
        v[pos++] = pw::potential_value(ix, iy, first + iz, dims);
      }
    }
  }
}

}  // namespace

Descriptor::Descriptor(const pw::Cell& cell, double ecutwfc_ry, int nproc,
                       int ntg)
    : cell_(cell), nproc_(nproc), ntg_(ntg) {
  FX_CHECK(nproc >= 1 && ntg >= 1, "need positive rank/group counts");
  FX_CHECK(nproc % ntg == 0, "ntg must divide nproc");

  dims_ = pw::wave_grid(cell, ecutwfc_ry);
  sphere_ = std::make_unique<pw::GSphere>(cell, ecutwfc_ry);
  sticks_ = std::make_unique<pw::StickMap>(*sphere_, nproc);
  planes_ = std::make_unique<pw::PlaneDist>(dims_.nz, group_size());
  build_layout();
}

Descriptor::Descriptor(const Descriptor& base, int nproc, int ntg)
    : cell_(base.cell_), dims_(base.dims_), nproc_(nproc), ntg_(ntg) {
  FX_CHECK(nproc >= 1 && ntg >= 1, "need positive rank/group counts");
  FX_CHECK(nproc % ntg == 0, "ntg must divide nproc");

  sphere_ = std::make_unique<pw::GSphere>(*base.sphere_);
  // Rebalance the *same* sticks (global coefficient order preserved).
  sticks_ = std::make_unique<pw::StickMap>(*base.sticks_, nproc);
  planes_ = std::make_unique<pw::PlaneDist>(dims_.nz, group_size());
  build_layout();
}

void Descriptor::build_layout() {
  const int rgroup = group_size();
  const auto sticks = sticks_->sticks();
  const auto ordered = sticks_->stick_ordered_g();

  // Folded in-plane offsets of every stick.
  stick_xy_.resize(sticks.size());
  for (std::size_t s = 0; s < sticks.size(); ++s) {
    stick_xy_[s] = pw::GridDims::fold(sticks[s].mx, dims_.nx) +
                   dims_.nx * pw::GridDims::fold(sticks[s].my, dims_.ny);
  }

  // World-rank packed G order: concatenated stick runs in stick order.
  world_g_index_.resize(static_cast<std::size_t>(nproc_));
  for (int w = 0; w < nproc_; ++w) {
    auto& idx = world_g_index_[static_cast<std::size_t>(w)];
    idx.reserve(sticks_->ng_of(w));
    for (std::size_t s : sticks_->sticks_of(w)) {
      for (std::size_t i = 0; i < sticks[s].ng; ++i) {
        idx.push_back(sticks[s].g_offset + i);
      }
    }
  }

  // Group-level stick ownership and the pencil index map.  Group rank b
  // owns the world sticks of pack comm {b*T + m : m in [0, T)}; the
  // pack-receive order is m-major, then stick order, then ascending mz --
  // by construction identical to concatenating the members' packed G lists.
  group_sticks_.resize(static_cast<std::size_t>(rgroup));
  ng_group_.resize(static_cast<std::size_t>(rgroup));
  pencil_index_.resize(static_cast<std::size_t>(rgroup));
  for (int b = 0; b < rgroup; ++b) {
    auto& gsticks = group_sticks_[static_cast<std::size_t>(b)];
    auto& pidx = pencil_index_[static_cast<std::size_t>(b)];
    std::size_t ng = 0;
    for (int m = 0; m < ntg_; ++m) {
      const int w = world_rank(b, m);
      for (std::size_t s : sticks_->sticks_of(w)) {
        const std::size_t slot = gsticks.size();
        gsticks.push_back(s);
        for (std::size_t i = 0; i < sticks[s].ng; ++i) {
          const pw::GVector& g = ordered[sticks[s].g_offset + i];
          pidx.push_back(slot * dims_.nz +
                         pw::GridDims::fold(g.mz, dims_.nz));
        }
        ng += sticks[s].ng;
      }
    }
    ng_group_[static_cast<std::size_t>(b)] = ng;
    FX_ASSERT(pidx.size() == ng);
  }

  // Potential slabs stay empty until potential(b) first asks for one.
  potential_ =
      std::make_unique<PotentialSlab[]>(static_cast<std::size_t>(rgroup));
}

std::span<const double> Descriptor::potential(int b) const {
  FX_CHECK(b >= 0 && b < group_size(), "group rank out of range");
  PotentialSlab& slab = potential_[static_cast<std::size_t>(b)];
  std::call_once(slab.filled, [&] {
    slab.v.resize(npz(b) * dims_.plane());
    fill_potential(slab.v, first_plane(b), npz(b), dims_);
  });
  return slab.v;
}

}  // namespace fx::fftx
