#include "fft/batch1d.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/env.hpp"
#include "core/error.hpp"

namespace fx::fft {

namespace {

constexpr std::size_t kW = BatchPlan1d::kSimdWidth;

/// Tile scratch budget.  A tile transforms kW lanes through 3 ping-pong
/// buffers of n packs of 2*kW doubles (gather, output, recursion scratch)
/// = 384*n bytes; keeping that under one KNL L2 slice (512 KiB per core of
/// the shared 1 MiB tile cache) is what makes the gather/scatter
/// transposes pay for themselves.  Longer transforms fall back to the
/// scalar path.
constexpr std::size_t kL2TileBytes = 512 * 1024;

detail::TileKernel tile_kernel([[maybe_unused]] detail::TileIsa isa) {
#if FX_FFT_TILE_AVX512
  if (isa == detail::TileIsa::Avx512) return tile_avx512::run_tile;
#endif
  return tile_baseline::run_tile;
}

/// The widest tile copy this CPU supports.
detail::TileIsa widest_tile_isa() {
  return detail::tile_isa_supported(detail::TileIsa::Avx512)
             ? detail::TileIsa::Avx512
             : detail::TileIsa::Baseline;
}

}  // namespace

namespace detail {

bool tile_isa_supported(TileIsa isa) {
  switch (isa) {
    case TileIsa::Baseline:
      return true;
    case TileIsa::Avx512:
#if FX_FFT_TILE_AVX512
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

}  // namespace detail

BatchKernel default_batch_kernel() {
  static const BatchKernel kernel = [] {
    bool scalar = false;
    core::env_flag("FFTX_FFT_SCALAR", scalar, "fft");
    return scalar ? BatchKernel::Scalar : BatchKernel::Simd;
  }();
  return kernel;
}

BatchPlan1d::BatchPlan1d(std::size_t n, Direction dir, BatchKernel kernel)
    : BatchPlan1d(n, dir, kernel, widest_tile_isa()) {}

BatchPlan1d::BatchPlan1d(std::size_t n, Direction dir, BatchKernel kernel,
                         detail::TileIsa isa)
    : base_(n, dir), kernel_(kernel), isa_(isa), tile_(tile_kernel(isa)) {
  FX_CHECK(detail::tile_isa_supported(isa),
           "tile kernel copy not compiled in or not supported by this CPU");
  const std::size_t tile_bytes = 3 * n * 2 * kW * sizeof(double);
  simd_ok_ = kernel_ == BatchKernel::Simd && n >= 2 &&
             !base_.uses_bluestein() && tile_bytes <= kL2TileBytes;
  // The tile kernels handle exactly factorize()'s radices.
  for (const std::size_t r : base_.factors_) {
    FX_ASSERT(r == 2 || r == 3 || r == 4 || r == 5 || r == 7 || r == 11 ||
                  r == 13,
              "radix outside factorize()'s set");
  }
}

void BatchPlan1d::execute_many(std::size_t howmany, const cplx* in,
                               std::size_t istride, std::size_t idist,
                               cplx* out, std::size_t ostride,
                               std::size_t odist, Workspace& ws) const {
  if (howmany == 0) return;
  detail::check_batch_aliasing(base_.size(), howmany, in, istride, idist, out,
                               ostride, odist);
  if (!simd_ok_ || howmany == 1) {
    base_.execute_many(howmany, in, istride, idist, out, ostride, odist, ws);
    return;
  }
  const std::size_t n = base_.size();
  // [complex.numbers.general] guarantees the double-array reinterpretation
  // of cplx storage: (re, im) pairs.
  const detail::TilePlan plan{
      n, base_.factors_.data(),
      reinterpret_cast<const double*>(base_.twiddle_.data()),
      sign_of(base_.direction())};
  // A lone tail transform runs through the scalar engine (the pack
  // transposes would cost more than they vectorize), after the tile lease
  // is returned: the pool hands out buffers last in, first out and never
  // shrinks them, so nesting the tail's leases inside would reorder the
  // pool and let more of its buffers grow to the largest lease size.
  const std::size_t tiled = howmany % kW == 1 ? howmany - 1 : howmany;
  {
    // One lease for every tile, carved by the kernel into its 3 buffers;
    // cvec storage is 64-byte aligned and each buffer spans n packs (a
    // multiple of 64 bytes), so every pack is aligned.
    Workspace::Buffer work(ws, 3 * n * kW);
    for (std::size_t b = 0; b < tiled; b += kW) {
      tile_(plan, std::min(kW, tiled - b),
            reinterpret_cast<const double*>(in + b * idist), istride, idist,
            reinterpret_cast<double*>(out + b * odist), ostride, odist,
            reinterpret_cast<double*>(work.data()));
    }
  }
  if (tiled < howmany) {
    base_.execute_strided(in + tiled * idist, istride, out + tiled * odist,
                          ostride, ws);
  }
}

void BatchPlan1d::execute_many(std::size_t howmany, const cplx* in,
                               std::size_t istride, std::size_t idist,
                               cplx* out, std::size_t ostride,
                               std::size_t odist) const {
  execute_many(howmany, in, istride, idist, out, ostride, odist,
               thread_workspace());
}

}  // namespace fx::fft
