// The SIMD-across-batch engine must be interchangeable with the scalar
// path: every (length, batch, layout) combination is checked against the
// scalar oracle within 1e-12 relative L2 error, against the naive
// reference DFT, and through round trips -- including batch sizes that
// leave partial tiles and the Bluestein fallback length -- and every
// mixed-radix length must match the scalar oracle bit for bit.
#include "fft/batch1d.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "fft/dft_ref.hpp"

namespace {

using fx::core::Rng;
using fx::fft::BatchKernel;
using fx::fft::BatchPlan1d;
using fx::fft::cplx;
using fx::fft::Direction;
using fx::fft::dft_reference;
using fx::fft::Fft1d;
using fx::fft::Workspace;

constexpr std::size_t kW = BatchPlan1d::kSimdWidth;

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

double rel_l2(const std::vector<cplx>& got, const std::vector<cplx>& want) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num += std::norm(got[i] - want[i]);
    den += std::norm(want[i]);
  }
  return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

struct BatchCase {
  std::size_t n;
  std::size_t batch;
  bool transposed;  ///< false: (istride 1, idist n); true: (istride batch, idist 1)
};

std::string case_name(const ::testing::TestParamInfo<BatchCase>& info) {
  return "n" + std::to_string(info.param.n) + "_b" +
         std::to_string(info.param.batch) +
         (info.param.transposed ? "_transposed" : "_contiguous");
}

class BatchSweep : public ::testing::TestWithParam<BatchCase> {
 protected:
  [[nodiscard]] std::size_t istride() const {
    return GetParam().transposed ? GetParam().batch : 1;
  }
  [[nodiscard]] std::size_t idist() const {
    return GetParam().transposed ? 1 : GetParam().n;
  }
};

TEST_P(BatchSweep, MatchesScalarOracleWithin1em12RelL2) {
  const auto [n, batch, transposed] = GetParam();
  const BatchPlan1d simd(n, Direction::Forward, BatchKernel::Simd);
  const Fft1d& oracle = simd.scalar_plan();
  Workspace ws;

  const auto in = random_signal(n * batch, 1000 + n * 7 + batch);
  std::vector<cplx> got(n * batch);
  std::vector<cplx> want(n * batch);
  simd.execute_many(batch, in.data(), istride(), idist(), got.data(),
                    istride(), idist(), ws);
  oracle.execute_many(batch, in.data(), istride(), idist(), want.data(),
                      istride(), idist(), ws);
  EXPECT_LT(rel_l2(got, want), 1e-12);
}

TEST_P(BatchSweep, MatchesReferenceDft) {
  const auto [n, batch, transposed] = GetParam();
  // The O(n^2) reference is slow; spot-check the first few transforms of
  // the batch (tile 0 plus the tail path is covered by batch <= kW + 1).
  const std::size_t check = std::min<std::size_t>(batch, kW + 1);
  const BatchPlan1d plan(n, Direction::Backward);
  Workspace ws;

  const auto in = random_signal(n * batch, 2000 + n * 13 + batch);
  std::vector<cplx> got(n * batch);
  plan.execute_many(batch, in.data(), istride(), idist(), got.data(),
                    istride(), idist(), ws);

  const double tol = 1e-11 * (1.0 + std::sqrt(static_cast<double>(n)) * 10.0);
  for (std::size_t b = 0; b < check; ++b) {
    std::vector<cplx> sig(n);
    std::vector<cplx> want(n);
    std::vector<cplx> out(n);
    for (std::size_t j = 0; j < n; ++j) {
      sig[j] = in[b * idist() + j * istride()];
      out[j] = got[b * idist() + j * istride()];
    }
    dft_reference(sig, want, Direction::Backward);
    EXPECT_LT(rel_l2(out, want), tol) << "b=" << b;
  }
}

TEST_P(BatchSweep, RoundTripIsScaledIdentity) {
  const auto [n, batch, transposed] = GetParam();
  const BatchPlan1d fwd(n, Direction::Forward);
  const BatchPlan1d bwd(n, Direction::Backward);
  Workspace ws;

  const auto in = random_signal(n * batch, 3000 + n * 17 + batch);
  std::vector<cplx> mid(n * batch);
  std::vector<cplx> back(n * batch);
  fwd.execute_many(batch, in.data(), istride(), idist(), mid.data(), istride(),
                   idist(), ws);
  bwd.execute_many(batch, mid.data(), istride(), idist(), back.data(),
                   istride(), idist(), ws);
  const double scale = static_cast<double>(n);
  std::vector<cplx> rescaled(back.size());
  for (std::size_t i = 0; i < back.size(); ++i) rescaled[i] = back[i] / scale;
  EXPECT_LT(rel_l2(rescaled, in), 1e-12);
}

TEST_P(BatchSweep, InPlaceMatchesOutOfPlace) {
  const auto [n, batch, transposed] = GetParam();
  const BatchPlan1d plan(n, Direction::Forward);
  Workspace ws;

  auto data = random_signal(n * batch, 4000 + n * 19 + batch);
  std::vector<cplx> want(n * batch);
  plan.execute_many(batch, data.data(), istride(), idist(), want.data(),
                    istride(), idist(), ws);
  plan.execute_many(batch, data.data(), istride(), idist(), data.data(),
                    istride(), idist(), ws);
  EXPECT_LT(rel_l2(data, want), 1e-15);
}

TEST_P(BatchSweep, ScalarKernelPlanMatchesSimdPlan) {
  const auto [n, batch, transposed] = GetParam();
  const BatchPlan1d simd(n, Direction::Forward, BatchKernel::Simd);
  const BatchPlan1d scalar(n, Direction::Forward, BatchKernel::Scalar);
  EXPECT_FALSE(scalar.simd_active());
  Workspace ws;

  const auto in = random_signal(n * batch, 5000 + n * 23 + batch);
  std::vector<cplx> a(n * batch);
  std::vector<cplx> b(n * batch);
  simd.execute_many(batch, in.data(), istride(), idist(), a.data(), istride(),
                    idist(), ws);
  scalar.execute_many(batch, in.data(), istride(), idist(), b.data(),
                      istride(), idist(), ws);
  EXPECT_LT(rel_l2(a, b), 1e-12);
}

std::vector<BatchCase> all_cases() {
  std::vector<BatchCase> cases;
  // Every odd prime radix runs through the tile path: 5 (20, 35, 60, 120,
  // 720), 7 (35, 77, 1001), 11 (77, 143, 1001) and 13 (143, 1001).
  for (std::size_t n : {20UL, 35UL, 60UL, 64UL, 77UL, 120UL, 143UL, 243UL,
                        720UL, 1001UL, 1009UL}) {
    for (std::size_t batch : {1UL, 3UL, kW, kW + 1, 64UL}) {
      cases.push_back({n, batch, false});
      cases.push_back({n, batch, true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Layouts, BatchSweep, ::testing::ValuesIn(all_cases()),
                         case_name);

TEST(BatchPlan1d, ScalarAndSimdAgreeBitwise) {
  // The pipeline's cross-mode bit-identity rests on this: a schedule may
  // run a transform through a SIMD tile in one mode and through the scalar
  // lone-tail path in another.  Batch 17 = two full tiles plus a lone tail.
  const std::size_t batch = 2 * kW + 1;
  Workspace ws;
  for (std::size_t n : {20UL, 35UL, 60UL, 64UL, 77UL, 120UL, 143UL, 243UL,
                        720UL, 1001UL}) {
    for (Direction dir : {Direction::Forward, Direction::Backward}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (dir == Direction::Forward ? " forward" : " backward"));
      const BatchPlan1d simd(n, dir, BatchKernel::Simd);
      ASSERT_TRUE(simd.simd_active());
      const auto in = random_signal(n * batch, 6000 + n);
      std::vector<cplx> got(n * batch);
      std::vector<cplx> want(n * batch);
      simd.execute_many(batch, in.data(), 1, n, got.data(), 1, n, ws);
      simd.scalar_plan().execute_many(batch, in.data(), 1, n, want.data(), 1,
                                      n, ws);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(cplx)),
                0);
    }
  }
}

TEST(BatchPlan1d, SimdActiveMatchesExpectations) {
  // Mixed-radix sizes that fit the L2 tile budget vectorize...
  EXPECT_TRUE(BatchPlan1d(60, Direction::Forward).simd_active());
  EXPECT_TRUE(BatchPlan1d(720, Direction::Forward).simd_active());
  // ...Bluestein lengths and degenerate sizes fall back to scalar.
  EXPECT_FALSE(BatchPlan1d(1009, Direction::Forward).simd_active());
  EXPECT_FALSE(BatchPlan1d(1, Direction::Forward).simd_active());
  EXPECT_TRUE(BatchPlan1d(1009, Direction::Forward).scalar_plan()
                  .uses_bluestein());
}

TEST(BatchPlan1d, RejectsIncompatiblyOverlappingBatches) {
  const std::size_t n = 16;
  const std::size_t batch = 4;
  const BatchPlan1d plan(n, Direction::Forward);
  Workspace ws;
  auto data = random_signal(n * batch + n, 99);

  // Shifted overlap: out = in + n with the same layout would let
  // transform 0's output clobber transform 1's input.
  EXPECT_THROW(plan.execute_many(batch, data.data(), 1, n, data.data() + n, 1,
                                 n, ws),
               fx::core::Error);
  // Same pointer but mismatched strides is equally invalid.
  EXPECT_THROW(plan.execute_many(batch, data.data(), 1, n, data.data(), batch,
                                 1, ws),
               fx::core::Error);
  // The scalar oracle enforces the same contract.
  EXPECT_THROW(plan.scalar_plan().execute_many(batch, data.data(), 1, n,
                                               data.data() + n, 1, n, ws),
               fx::core::Error);
}

TEST(BatchPlan1d, EmptyBatchIsANoOp) {
  const BatchPlan1d plan(32, Direction::Forward);
  Workspace ws;
  plan.execute_many(0, nullptr, 1, 32, nullptr, 1, 32, ws);
}

}  // namespace
