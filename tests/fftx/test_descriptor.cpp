// Descriptor invariants: the two-layer layout must tile the sphere and the
// grid exactly, for every (nproc, ntg) combination.
#include "fftx/descriptor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "fftx/pipeline.hpp"
#include "pw/wavefunction.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::fftx::BandFftPipeline;
using fx::fftx::Descriptor;
using fx::fftx::PipelineConfig;
using fx::pw::Cell;

class LayoutSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {  // (P, T)
 protected:
  LayoutSweep()
      : desc_(Cell{8.0}, 8.0, std::get<0>(GetParam()), std::get<1>(GetParam())) {}
  Descriptor desc_;
};

TEST_P(LayoutSweep, BasicShape) {
  const auto [P, T] = GetParam();
  EXPECT_EQ(desc_.nproc(), P);
  EXPECT_EQ(desc_.ntg(), T);
  EXPECT_EQ(desc_.group_size(), P / T);
  for (int w = 0; w < P; ++w) {
    EXPECT_EQ(desc_.world_rank(desc_.group_rank_of(w), desc_.group_of(w)), w);
    EXPECT_LT(desc_.group_of(w), T);
    EXPECT_LT(desc_.group_rank_of(w), P / T);
  }
}

TEST_P(LayoutSweep, WorldIndicesPartitionTheSphere) {
  const auto [P, T] = GetParam();
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (int w = 0; w < P; ++w) {
    const auto idx = desc_.world_g_index(w);
    EXPECT_EQ(idx.size(), desc_.ng_world(w));
    for (std::size_t i : idx) {
      ASSERT_TRUE(seen.insert(i).second) << "duplicate G index " << i;
    }
    total += idx.size();
  }
  EXPECT_EQ(total, desc_.sphere().size());
}

TEST_P(LayoutSweep, GroupSticksAreTheUnionOfPackComm) {
  const auto [P, T] = GetParam();
  const int R = P / T;
  std::size_t total_sticks = 0;
  std::size_t total_ng = 0;
  for (int b = 0; b < R; ++b) {
    std::size_t ng = 0;
    std::set<std::size_t> mine;
    for (std::size_t s : desc_.group_sticks(b)) {
      ASSERT_TRUE(mine.insert(s).second);
      // The world owner of s must be a member of pack comm b.
      const int owner = desc_.world_sticks().owner(s);
      ASSERT_EQ(owner / T, b);
      ng += desc_.world_sticks().sticks()[s].ng;
    }
    EXPECT_EQ(ng, desc_.ng_group(b));
    EXPECT_EQ(mine.size(), desc_.nsticks_group(b));
    total_sticks += mine.size();
    total_ng += ng;
  }
  EXPECT_EQ(total_sticks, desc_.total_sticks());
  EXPECT_EQ(total_ng, desc_.sphere().size());
}

TEST_P(LayoutSweep, PencilIndexIsInjectivePerGroupRank) {
  const auto [P, T] = GetParam();
  const int R = P / T;
  for (int b = 0; b < R; ++b) {
    const auto pidx = desc_.pencil_index(b);
    EXPECT_EQ(pidx.size(), desc_.ng_group(b));
    std::set<std::size_t> seen;
    for (std::size_t off : pidx) {
      ASSERT_LT(off, desc_.pencil_size(b));
      ASSERT_TRUE(seen.insert(off).second) << "pencil aliasing";
    }
  }
}

TEST_P(LayoutSweep, PackCountsMatchWorldCounts) {
  const auto [P, T] = GetParam();
  const int R = P / T;
  for (int b = 0; b < R; ++b) {
    std::size_t sum = 0;
    for (int m = 0; m < T; ++m) {
      EXPECT_EQ(desc_.pack_count(b, m),
                desc_.ng_world(desc_.world_rank(b, m)));
      sum += desc_.pack_count(b, m);
    }
    EXPECT_EQ(sum, desc_.ng_group(b));
  }
}

TEST_P(LayoutSweep, PlanesPartitionTheGrid) {
  const auto [P, T] = GetParam();
  const int R = P / T;
  std::size_t planes = 0;
  for (int b = 0; b < R; ++b) planes += desc_.npz(b);
  EXPECT_EQ(planes, desc_.dims().nz);
}

TEST_P(LayoutSweep, StickXyOffsetsAreDistinctAndInPlane) {
  std::set<std::size_t> seen;
  for (std::size_t s = 0; s < desc_.total_sticks(); ++s) {
    const std::size_t xy = desc_.stick_xy(s);
    ASSERT_LT(xy, desc_.dims().plane());
    ASSERT_TRUE(seen.insert(xy).second) << "two sticks on one column";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LayoutSweep,
    ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1}, std::tuple{2, 2},
                      std::tuple{4, 1}, std::tuple{4, 2}, std::tuple{4, 4},
                      std::tuple{8, 2}, std::tuple{8, 4}, std::tuple{8, 8},
                      std::tuple{6, 3}, std::tuple{12, 4}));

TEST(Descriptor, PotentialSlabsTileTheGridConsistently) {
  const Descriptor desc(Cell{8.0}, 8.0, 4, 2);  // R = 2
  const auto& dims = desc.dims();
  std::vector<double> full;
  for (int b = 0; b < desc.group_size(); ++b) {
    const auto slab = desc.potential(b);
    full.insert(full.end(), slab.begin(), slab.end());
  }
  ASSERT_EQ(full.size(), dims.volume());
  std::size_t pos = 0;
  for (std::size_t iz = 0; iz < dims.nz; ++iz) {
    for (std::size_t iy = 0; iy < dims.ny; ++iy) {
      for (std::size_t ix = 0; ix < dims.nx; ++ix) {
        ASSERT_DOUBLE_EQ(full[pos++],
                         fx::pw::potential_value(ix, iy, iz, dims));
      }
    }
  }
}

TEST(Descriptor, PotentialIsComputedOncePerGroupRank) {
  // The serial layout, two task groups of two, and R = 3 group ranks over
  // nz = 7 planes (uneven slabs).
  for (const auto& [P, T] :
       {std::pair{1, 1}, std::pair{4, 2}, std::pair{6, 2}}) {
    SCOPED_TRACE(::testing::Message() << "P=" << P << " T=" << T);
    const auto desc = std::make_shared<const Descriptor>(Cell{8.0}, 8.0, P, T);
    const auto& dims = desc->dims();
    const int R = desc->group_size();
    if (P == 6) {
      ASSERT_NE(dims.nz % static_cast<std::size_t>(R), 0u);
    }

    // First use from every rank thread at once: the T ranks of a group
    // rank race into one fill (the TSan job checks it), then two more
    // calls and two pipelines must all see that same slab.
    const auto n = static_cast<std::size_t>(P);
    std::vector<const double*> first(n), again(n), pipe1(n), pipe2(n);
    fx::mpi::Runtime::run(P, [&](fx::mpi::Comm& world) {
      const auto w = static_cast<std::size_t>(world.rank());
      const int b = desc->group_rank_of(world.rank());
      world.barrier();
      first[w] = desc->potential(b).data();
      again[w] = desc->potential(b).data();
      PipelineConfig cfg;
      cfg.num_bands = T;
      const BandFftPipeline one(world, desc, cfg);
      const BandFftPipeline two(world, desc, cfg);
      pipe1[w] = one.potential().data();
      pipe2[w] = two.potential().data();
    });
    for (int w = 0; w < P; ++w) {
      const auto wu = static_cast<std::size_t>(w);
      const double* slab = desc->potential(desc->group_rank_of(w)).data();
      EXPECT_EQ(first[wu], slab) << "rank " << w;
      EXPECT_EQ(again[wu], slab) << "rank " << w;
      EXPECT_EQ(pipe1[wu], slab) << "rank " << w;
      EXPECT_EQ(pipe2[wu], slab) << "rank " << w;
    }

    // Bit for bit the generator's values, plane by plane.
    for (int b = 0; b < R; ++b) {
      std::vector<double> want;
      for (std::size_t iz = 0; iz < desc->npz(b); ++iz) {
        for (std::size_t iy = 0; iy < dims.ny; ++iy) {
          for (std::size_t ix = 0; ix < dims.nx; ++ix) {
            want.push_back(fx::pw::potential_value(
                ix, iy, desc->first_plane(b) + iz, dims));
          }
        }
      }
      const auto got = desc->potential(b);
      ASSERT_EQ(got.size(), want.size()) << "group rank " << b;
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(double)),
                0)
          << "group rank " << b;
    }
  }
}

TEST(Descriptor, RejectsBadConfigs) {
  EXPECT_THROW(Descriptor(Cell{8.0}, 8.0, 4, 3), fx::core::Error);  // 3 !| 4
  EXPECT_THROW(Descriptor(Cell{8.0}, 8.0, 0, 1), fx::core::Error);
}

TEST(Descriptor, LayoutIsIndependentOfNtgAtWorldLevel) {
  // World stick distribution depends only on P; ntg only regroups.
  const Descriptor a(Cell{8.0}, 8.0, 8, 1);
  const Descriptor d(Cell{8.0}, 8.0, 8, 4);
  for (int w = 0; w < 8; ++w) {
    EXPECT_EQ(a.ng_world(w), d.ng_world(w));
  }
  EXPECT_EQ(a.dims().nx, d.dims().nx);
}

}  // namespace
