#include "fft/batch1d.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/env.hpp"
#include "core/error.hpp"

namespace fx::fft {

namespace {

constexpr std::size_t kW = BatchPlan1d::kSimdWidth;

/// Doubles per lane pack: kW real parts followed by kW imaginary parts.
constexpr std::size_t kPack = 2 * kW;

/// Tile scratch budget.  A tile transforms kW lanes through 3 ping-pong
/// buffers of n packs (gather, output, recursion scratch) = 384*n bytes;
/// keeping that under one KNL L2 slice (512 KiB per core of the shared
/// 1 MiB tile cache) is what makes the gather/scatter transposes pay for
/// themselves.  Longer transforms fall back to the scalar path.
constexpr std::size_t kL2TileBytes = 512 * 1024;

/// Pack-granular mirror of odd_prime_dft (plan1d.cpp), the symmetric
/// butterfly for an odd prime radix R = 2H+1: the same operations in the
/// same order, each an 8-lane loop, so a tile and a scalar lone tail round
/// identically.  z packs are zp doubles apart, out packs op apart.
template <std::size_t R>
void odd_prime_pack(const double* z, std::size_t zp, double* out,
                    std::size_t op, const cplx* twiddle, std::size_t step) {
  constexpr std::size_t H = R / 2;
  // cw[t-1][q-1] + i*sw[t-1][q-1] = w_R^{tq}, hoisted out of the lane loops.
  double cw[H][H];
  double sw[H][H];
  for (std::size_t t = 1; t <= H; ++t) {
    for (std::size_t q = 1; q <= H; ++q) {
      const cplx w = twiddle[((t * q) % R) * step];
      cw[t - 1][q - 1] = w.real();
      sw[t - 1][q - 1] = w.imag();
    }
  }
  // a_q = z_q + z_{R-q}, b_q = z_q - z_{R-q}: one pack each per q.
  alignas(64) double a[H * kPack];
  alignas(64) double b[H * kPack];
  for (std::size_t q = 1; q <= H; ++q) {
    const double* zq = z + q * zp;
    const double* zm = z + (R - q) * zp;
    double* aq = a + (q - 1) * kPack;
    double* bq = b + (q - 1) * kPack;
#pragma omp simd
    for (std::size_t d = 0; d < kPack; ++d) {
      aq[d] = zq[d] + zm[d];
      bq[d] = zq[d] - zm[d];
    }
  }
#pragma omp simd
  for (std::size_t d = 0; d < kPack; ++d) {
    double acc = z[d];
    for (std::size_t q = 0; q < H; ++q) acc += a[q * kPack + d];
    out[d] = acc;
  }
  for (std::size_t t = 1; t <= H; ++t) {
    const double* c = cw[t - 1];
    const double* s = sw[t - 1];
    double* ot = out + t * op;
    double* om = out + (R - t) * op;
#pragma omp simd
    for (std::size_t l = 0; l < kW; ++l) {
      double cr = z[l] + c[0] * a[l];
      double ci = z[kW + l] + c[0] * a[kW + l];
      double sr = s[0] * b[l];
      double si = s[0] * b[kW + l];
      for (std::size_t q = 1; q < H; ++q) {
        cr += c[q] * a[q * kPack + l];
        ci += c[q] * a[q * kPack + kW + l];
        sr += s[q] * b[q * kPack + l];
        si += s[q] * b[q * kPack + kW + l];
      }
      ot[l] = cr - si;
      ot[kW + l] = ci + sr;
      om[l] = cr + si;
      om[kW + l] = ci - sr;
    }
  }
}

}  // namespace

BatchKernel default_batch_kernel() {
  static const BatchKernel kernel = [] {
    bool scalar = false;
    core::env_flag("FFTX_FFT_SCALAR", scalar, "fft");
    return scalar ? BatchKernel::Scalar : BatchKernel::Simd;
  }();
  return kernel;
}

BatchPlan1d::BatchPlan1d(std::size_t n, Direction dir, BatchKernel kernel)
    : base_(n, dir), kernel_(kernel) {
  const std::size_t tile_bytes = 3 * n * kPack * sizeof(double);
  simd_ok_ = kernel_ == BatchKernel::Simd && n >= 2 &&
             !base_.uses_bluestein() && tile_bytes <= kL2TileBytes;
}

void BatchPlan1d::execute_many(std::size_t howmany, const cplx* in,
                               std::size_t istride, std::size_t idist,
                               cplx* out, std::size_t ostride,
                               std::size_t odist, Workspace& ws) const {
  if (howmany == 0) return;
  detail::check_batch_aliasing(base_.size(), howmany, in, istride, idist, out,
                               ostride, odist);
  if (!simd_ok_) {
    base_.execute_many(howmany, in, istride, idist, out, ostride, odist, ws);
    return;
  }
  std::size_t b = 0;
  while (b < howmany) {
    const std::size_t lanes = std::min(kW, howmany - b);
    if (lanes == 1) {
      // A lone tail transform: the pack transposes would cost more than
      // they vectorize, so run it through the scalar engine.
      base_.execute_strided(in + b * idist, istride, out + b * odist, ostride,
                            ws);
    } else {
      execute_tile(lanes, in + b * idist, istride, idist, out + b * odist,
                   ostride, odist, ws);
    }
    b += lanes;
  }
}

void BatchPlan1d::execute_many(std::size_t howmany, const cplx* in,
                               std::size_t istride, std::size_t idist,
                               cplx* out, std::size_t ostride,
                               std::size_t odist) const {
  execute_many(howmany, in, istride, idist, out, ostride, odist,
               thread_workspace());
}

void BatchPlan1d::execute_tile(std::size_t lanes, const cplx* in,
                               std::size_t istride, std::size_t idist,
                               cplx* out, std::size_t ostride,
                               std::size_t odist, Workspace& ws) const {
  const std::size_t n = base_.size();
  // One lease carved into the 3 tile buffers; cvec storage is 64-byte
  // aligned and each buffer spans n*kPack doubles (a multiple of 64
  // bytes), so every pack below is aligned.  [complex.numbers.general]
  // guarantees the double-array reinterpretation of cplx storage.
  Workspace::Buffer lease(ws, 3 * n * kW);
  auto* raw = reinterpret_cast<double*>(lease.data());
  double* gathered = raw;
  double* result = raw + n * kPack;
  double* scratch = raw + 2 * n * kPack;

  // Gather: element j of lane l comes from in[l*idist + j*istride].  Lanes
  // beyond the batch tail are zero-filled so they stay finite (their
  // results are discarded by the scatter).
  for (std::size_t j = 0; j < n; ++j) {
    double* re = gathered + j * kPack;
    double* im = re + kW;
    const cplx* src = in + j * istride;
    for (std::size_t l = 0; l < lanes; ++l) {
      re[l] = src[l * idist].real();
      im[l] = src[l * idist].imag();
    }
    for (std::size_t l = lanes; l < kW; ++l) {
      re[l] = 0.0;
      im[l] = 0.0;
    }
  }

  brecurse(n, 0, gathered, 1, result, scratch);

  // Scatter: lane l's element k goes to out[l*odist + k*ostride].  Reading
  // happened entirely in the gather, so fully in-place batches are safe.
  for (std::size_t k = 0; k < n; ++k) {
    const double* re = result + k * kPack;
    const double* im = re + kW;
    cplx* dst = out + k * ostride;
    for (std::size_t l = 0; l < lanes; ++l) {
      dst[l * odist] = cplx{re[l], im[l]};
    }
  }
}

void BatchPlan1d::brecurse(std::size_t n, std::size_t factor_index,
                           const double* in, std::size_t istride, double* out,
                           double* scratch) const {
  if (n == 1) {
#pragma omp simd
    for (std::size_t d = 0; d < kPack; ++d) out[d] = in[d];
    return;
  }
  const std::size_t r = base_.factors_[factor_index];
  const std::size_t m = n / r;

  if (m == 1) {
    // Leaf: one small DFT straight from the (pack-strided) input.
    bsmall_dft(r, in, istride, out, 1);
    return;
  }

  // Decimation in time, exactly as the scalar engine: r interleaved
  // sub-transforms into `scratch`, ping-ponging with `out`.
  for (std::size_t q = 0; q < r; ++q) {
    brecurse(m, factor_index + 1, in + q * istride * kPack, istride * r,
             scratch + q * m * kPack, out + q * m * kPack);
  }

  // Combine.  Every lane of a pack shares the twiddle w_n^{j*q} -- the
  // lanes are the same element index of different transforms -- so the
  // complex multiply broadcasts one (wr, wi) pair over 8 lanes.
  const std::size_t step = base_.size() / n;
  alignas(64) double z[13 * kPack];
  for (std::size_t j = 0; j < m; ++j) {
    const double* s0 = scratch + j * kPack;
#pragma omp simd
    for (std::size_t d = 0; d < kPack; ++d) z[d] = s0[d];
    for (std::size_t q = 1; q < r; ++q) {
      const cplx w = base_.twiddle_[j * q * step];
      const double wr = w.real();
      const double wi = w.imag();
      const double* sre = scratch + (q * m + j) * kPack;
      const double* sim = sre + kW;
      double* zre = z + q * kPack;
      double* zim = zre + kW;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        zre[l] = sre[l] * wr - sim[l] * wi;
        zim[l] = sre[l] * wi + sim[l] * wr;
      }
    }
    bsmall_dft(r, z, 1, out + j * kPack, m);
  }
}

void BatchPlan1d::bsmall_dft(std::size_t r, const double* z, std::size_t zs,
                             double* out, std::size_t os) const {
  // Pack-granular mirror of Fft1d::small_dft: out[t*os] = sum_q z[q*zs] *
  // w_r^{t*q}, with every +-*/ an 8-lane loop.  z and out never alias
  // (z is either the gathered tile or a local combine buffer).
  const double s = sign_of(base_.direction());
  const std::size_t zp = zs * kPack;
  const std::size_t op = os * kPack;
  const cplx* tw = base_.twiddle_.data();
  switch (r) {
    case 1:
#pragma omp simd
      for (std::size_t d = 0; d < kPack; ++d) out[d] = z[d];
      return;
    case 2: {
      const double* are = z;
      const double* aim = z + kW;
      const double* bre = z + zp;
      const double* bim = z + zp + kW;
      double* o0 = out;
      double* o1 = out + op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double xr = are[l];
        const double xi = aim[l];
        const double yr = bre[l];
        const double yi = bim[l];
        o0[l] = xr + yr;
        o0[kW + l] = xi + yi;
        o1[l] = xr - yr;
        o1[kW + l] = xi - yi;
      }
      return;
    }
    case 3: {
      // w = -1/2 + i*s*sqrt(3)/2, as in the scalar kernel.
      constexpr double kHalfSqrt3 = 0.86602540378443864676;
      const double* z0 = z;
      const double* z1 = z + zp;
      const double* z2 = z + 2 * zp;
      double* o0 = out;
      double* o1 = out + op;
      double* o2 = out + 2 * op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double tr = z1[l] + z2[l];
        const double ti = z1[kW + l] + z2[kW + l];
        const double ur = z0[l] - 0.5 * tr;
        const double ui = z0[kW + l] - 0.5 * ti;
        const double dr = z1[l] - z2[l];
        const double di = z1[kW + l] - z2[kW + l];
        const double vr = -s * kHalfSqrt3 * di;
        const double vi = s * kHalfSqrt3 * dr;
        o0[l] = z0[l] + tr;
        o0[kW + l] = z0[kW + l] + ti;
        o1[l] = ur + vr;
        o1[kW + l] = ui + vi;
        o2[l] = ur - vr;
        o2[kW + l] = ui - vi;
      }
      return;
    }
    case 4: {
      const double* z0 = z;
      const double* z1 = z + zp;
      const double* z2 = z + 2 * zp;
      const double* z3 = z + 3 * zp;
      double* o0 = out;
      double* o1 = out + op;
      double* o2 = out + 2 * op;
      double* o3 = out + 3 * op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double t0r = z0[l] + z2[l];
        const double t0i = z0[kW + l] + z2[kW + l];
        const double t1r = z0[l] - z2[l];
        const double t1i = z0[kW + l] - z2[kW + l];
        const double t2r = z1[l] + z3[l];
        const double t2i = z1[kW + l] + z3[kW + l];
        const double t3r = z1[l] - z3[l];
        const double t3i = z1[kW + l] - z3[kW + l];
        const double it3r = -s * t3i;
        const double it3i = s * t3r;
        o0[l] = t0r + t2r;
        o0[kW + l] = t0i + t2i;
        o1[l] = t1r + it3r;
        o1[kW + l] = t1i + it3i;
        o2[l] = t0r - t2r;
        o2[kW + l] = t0i - t2i;
        o3[l] = t1r - it3r;
        o3[kW + l] = t1i - it3i;
      }
      return;
    }
    case 5:
      odd_prime_pack<5>(z, zp, out, op, tw, base_.size() / 5);
      return;
    case 7:
      odd_prime_pack<7>(z, zp, out, op, tw, base_.size() / 7);
      return;
    case 11:
      odd_prime_pack<11>(z, zp, out, op, tw, base_.size() / 11);
      return;
    case 13:
      odd_prime_pack<13>(z, zp, out, op, tw, base_.size() / 13);
      return;
    default:
      FX_ASSERT(false, "radix outside factorize()'s set");
  }
}

}  // namespace fx::fft
