// google-benchmark microbenches of the FFT engine substrate, plus the
// scalar-vs-batched A/B harness that records bench/out/fft_engine_batched.csv
// (items/sec and GFLOP/s via the 5*n*log2(n) mixed-radix flop model).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/csv.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "fft/batch1d.hpp"
#include "fft/plan1d.hpp"
#include "fft/plan2d.hpp"
#include "fft/plan3d.hpp"

namespace {

using fx::fft::BatchKernel;
using fx::fft::BatchPlan1d;
using fx::fft::cplx;
using fx::fft::Direction;

std::vector<cplx> random_signal(std::size_t n) {
  fx::core::Rng rng(n);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

void BM_Fft1d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fx::fft::Fft1d plan(n, Direction::Forward);
  fx::fft::Workspace ws;
  const auto in = random_signal(n);
  std::vector<cplx> out(n);
  for (auto _ : state) {
    plan.execute(in.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// Powers of two, QE grid sizes (60, 120), mixed radix, Bluestein primes.
BENCHMARK(BM_Fft1d)->Arg(64)->Arg(60)->Arg(120)->Arg(128)->Arg(243)->Arg(256)
    ->Arg(720)->Arg(1024)->Arg(1009 /* prime: Bluestein */);

/// Shared body for the stick-batch benches: length-nz transforms, batch of
/// state.range(0) sticks, in place, contiguous layout -- the pipeline's
/// Z-stick workload -- through the scalar or SIMD kernel.
void run_stick_batch(benchmark::State& state, BatchKernel kernel) {
  const std::size_t nz = 60;
  const auto nsticks = static_cast<std::size_t>(state.range(0));
  const BatchPlan1d plan(nz, Direction::Backward, kernel);
  fx::fft::Workspace ws;
  auto data = random_signal(nz * nsticks);
  for (auto _ : state) {
    plan.execute_many(nsticks, data.data(), 1, nz, data.data(), 1, nz, ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nz * nsticks));
}

void BM_Fft1dBatchedSticks(benchmark::State& state) {
  run_stick_batch(state, BatchKernel::Simd);
}
BENCHMARK(BM_Fft1dBatchedSticks)->Arg(32)->Arg(320)->Arg(2550);

void BM_Fft1dScalarSticks(benchmark::State& state) {
  run_stick_batch(state, BatchKernel::Scalar);
}
BENCHMARK(BM_Fft1dScalarSticks)->Arg(32)->Arg(320)->Arg(2550);

void BM_Fft2dPlane(benchmark::State& state) {
  // One real-space plane of the paper's 60^3 grid (and a bigger one).
  const auto n = static_cast<std::size_t>(state.range(0));
  const fx::fft::Fft2d plan(n, n, Direction::Backward);
  fx::fft::Workspace ws;
  auto data = random_signal(n * n);
  for (auto _ : state) {
    plan.execute(data.data(), data.data(), ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Fft2dPlane)->Arg(60)->Arg(120);

void BM_Fft3dGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fx::fft::Fft3d plan(n, n, n, Direction::Backward);
  fx::fft::Workspace ws;
  auto data = random_signal(n * n * n);
  for (auto _ : state) {
    plan.execute(data.data(), data.data(), ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Fft3dGrid)->Arg(20)->Arg(60);

// --- Scalar-vs-batched CSV harness -------------------------------------

/// Seconds per call of f, measured over enough repetitions to fill
/// ~100 ms (after one warmup call).
template <typename F>
double seconds_per_call(F&& f) {
  f();
  int reps = 1;
  for (;;) {
    fx::core::WallTimer timer;
    for (int i = 0; i < reps; ++i) f();
    const double s = timer.seconds();
    if (s > 0.1 || reps > (1 << 24)) {
      return s / static_cast<double>(reps);
    }
    reps = s <= 0.005 ? reps * 10
                      : static_cast<int>(static_cast<double>(reps) *
                                         (0.15 / s)) + 1;
  }
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Times one (n, batch, layout) cell through the scalar oracle and the
/// SIMD engine, in place, and appends a CSV row.  items/sec counts
/// transformed elements (n per transform); GFLOP/s uses the 5*n*log2(n)
/// flop model per transform.
void csv_cell(fx::core::CsvWriter& csv, std::size_t n, std::size_t batch,
              bool transposed) {
  const BatchPlan1d simd(n, Direction::Backward, BatchKernel::Simd);
  const BatchPlan1d scalar(n, Direction::Backward, BatchKernel::Scalar);
  fx::fft::Workspace ws;
  auto data = random_signal(n * batch);
  const std::size_t istride = transposed ? batch : 1;
  const std::size_t idist = transposed ? 1 : n;

  const double t_scalar = seconds_per_call([&] {
    scalar.execute_many(batch, data.data(), istride, idist, data.data(),
                        istride, idist, ws);
  });
  const double t_simd = seconds_per_call([&] {
    simd.execute_many(batch, data.data(), istride, idist, data.data(),
                      istride, idist, ws);
  });

  const double elems = static_cast<double>(n * batch);
  const double flops = 5.0 * static_cast<double>(n) *
                       std::log2(static_cast<double>(n)) *
                       static_cast<double>(batch);
  csv.row({std::to_string(n), std::to_string(batch),
           transposed ? "transposed" : "contiguous", fmt(elems / t_scalar),
           fmt(elems / t_simd), fmt(t_scalar / t_simd),
           fmt(flops / t_scalar / 1e9), fmt(flops / t_simd / 1e9)});
}

void write_batched_csv() {
  fx::core::CsvWriter csv("bench/out/fft_engine_batched.csv");
  csv.row({"n", "batch", "layout", "scalar_items_per_s", "batched_items_per_s",
           "speedup", "scalar_gflops", "batched_gflops"});
  // 20 is the service grid, 60 and 120 the QE grids, 1009 a Bluestein prime.
  for (std::size_t n :
       {20UL, 60UL, 64UL, 120UL, 128UL, 243UL, 720UL, 1009UL}) {
    for (std::size_t batch : {8UL, 64UL, 512UL}) {
      csv_cell(csv, n, batch, /*transposed=*/false);
      csv_cell(csv, n, batch, /*transposed=*/true);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The A/B comparison runs first so `bench_fft_engine` from the repo root
  // always refreshes bench/out/fft_engine_batched.csv (the bench/out/ tree
  // is created relative to the CWD); pass --no-csv to skip it.
  bool csv = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-csv") {
      csv = false;
      argv[i] = argv[argc - 1];
      --argc;
      break;
    }
  }
  if (csv) {
    try {
      write_batched_csv();
      std::fprintf(stderr, "wrote bench/out/fft_engine_batched.csv\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "skipping batched CSV: %s\n", e.what());
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
