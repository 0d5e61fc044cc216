// Kernel layers, each timed on the workload's own shapes and thread count:
// pw (descriptor build), fft (stick and plane batches), simmpi (pack and
// scatter exchanges against a memcpy of the same bytes, barrier, and the
// nonblocking post/test path) and tasking (task, edge and waitable costs).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/aligned.hpp"
#include "core/timer.hpp"
#include "fft/plan_cache.hpp"
#include "fft/workspace.hpp"
#include "fftx/descriptor.hpp"
#include "ledger.hpp"
#include "simmpi/runtime.hpp"
#include "tasking/runtime.hpp"

namespace ledger {
namespace {

using fx::core::WallTimer;
using fx::fft::cplx;
using fx::fft::Direction;
using fx::fftx::Descriptor;
using CplxVec = fx::core::aligned_vector<cplx>;

constexpr int kRepeats = 3;  ///< medians over this many timed blocks

CplxVec test_signal(std::size_t n) {
  CplxVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = cplx{std::sin(0.37 * static_cast<double>(i)),
                std::cos(0.11 * static_cast<double>(i))};
  }
  return v;
}

double fft_flops(std::size_t n) {
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

/// Both directions of the batched stick transform on group rank 0's
/// sticks, single-threaded; GFLOP/s at 5 n log2 n per transform.
double z_gflops(const Descriptor& d, double min_s) {
  const std::size_t nz = d.dims().nz;
  const std::size_t nst = d.nsticks_group(0);
  const CplxVec src = test_signal(nst * nz);
  CplxVec buf(src.size());
  const auto bw = fx::fft::PlanCache::global().batch1d(nz, Direction::Backward);
  const auto fw = fx::fft::PlanCache::global().batch1d(nz, Direction::Forward);
  auto& ws = fx::fft::thread_workspace();
  double t = 0.0;
  double flops = 0.0;
  while (t < min_s || flops == 0.0) {
    std::copy(src.begin(), src.end(), buf.begin());
    const WallTimer timer;
    bw->execute_many(nst, buf.data(), 1, nz, buf.data(), 1, nz, ws);
    fw->execute_many(nst, buf.data(), 1, nz, buf.data(), 1, nz, ws);
    t += timer.seconds();
    flops += 2.0 * static_cast<double>(nst) * fft_flops(nz);
  }
  return flops / t / 1e9;
}

/// Both directions of the plane transform on group rank 0's planes.
double xy_gflops(const Descriptor& d, double min_s) {
  const std::size_t nx = d.dims().nx;
  const std::size_t ny = d.dims().ny;
  const std::size_t npz = std::max<std::size_t>(1, d.npz(0));
  const CplxVec src = test_signal(npz * nx * ny);
  CplxVec buf(src.size());
  const auto bw = fx::fft::PlanCache::global().plan2d(nx, ny, Direction::Backward);
  const auto fw = fx::fft::PlanCache::global().plan2d(nx, ny, Direction::Forward);
  auto& ws = fx::fft::thread_workspace();
  double t = 0.0;
  double flops = 0.0;
  while (t < min_s || flops == 0.0) {
    std::copy(src.begin(), src.end(), buf.begin());
    const WallTimer timer;
    for (std::size_t iz = 0; iz < npz; ++iz) {
      cplx* plane = buf.data() + iz * nx * ny;
      bw->execute(plane, plane, ws);
      fw->execute(plane, plane, ws);
    }
    t += timer.seconds();
    flops += 2.0 * static_cast<double>(npz) * fft_flops(nx * ny);
  }
  return flops / t / 1e9;
}

/// Exchange and memcpy rates of the workload's pack and scatter, measured
/// by the workload's own rank threads on the descriptor's exact counts and
/// views (the pipeline's staged pack, fused scatter).
struct CommRates {
  double pack_gbps = 0.0;
  double scatter_gbps = 0.0;
  double copy_gbps = 0.0;
  double barrier_us = 0.0;
  double ipost_us = 0.0;
  double itest_ns = 0.0;
  double pack_bytes = 0.0;     ///< per rank and exchange (rank 0)
  double scatter_bytes = 0.0;  ///< per rank and exchange (rank 0)
};

CommRates comm_rates(const Descriptor& d, int nranks, bool smoke) {
  const int reps = smoke ? 5 : 200;
  const int barriers = smoke ? 100 : 4000;
  const int polls = 100;
  double pack_total = 0.0;
  double scatter_total = 0.0;
  for (int w = 0; w < nranks; ++w) {
    pack_total += static_cast<double>(d.ntg()) *
                  static_cast<double>(d.ng_world(w)) * sizeof(cplx);
    scatter_total += static_cast<double>(
                         d.pencil_size(d.group_rank_of(w))) *
                     sizeof(cplx);
  }
  CommRates out;
  fx::mpi::Runtime::run(nranks, [&](fx::mpi::Comm& world) {
    const int w = world.rank();
    const int g = d.group_of(w);
    const int b = d.group_rank_of(w);
    const int ntg = d.ntg();
    const int rg = d.group_size();
    fx::mpi::Comm pack = world.split(b, g);
    fx::mpi::Comm scat = world.split(g, b);
    const bool lead = w == 0;
    auto timed = [&](const auto& body, int n) {
      std::vector<double> t;
      for (int rep = 0; rep < kRepeats; ++rep) {
        world.barrier();
        const WallTimer timer;
        for (int i = 0; i < n; ++i) body();
        world.barrier();
        t.push_back(timer.seconds() / n);
      }
      return quantile(t, 0.5);
    };

    // Pack: ng_w to every member, ng_world(b*T + m) back from member m.
    const std::size_t ng_w = d.ng_world(w);
    std::vector<std::size_t> sc(static_cast<std::size_t>(ntg), ng_w);
    std::vector<std::size_t> sd(static_cast<std::size_t>(ntg));
    std::vector<std::size_t> rc(static_cast<std::size_t>(ntg));
    std::vector<std::size_t> rd(static_cast<std::size_t>(ntg));
    std::size_t off = 0;
    for (int m = 0; m < ntg; ++m) {
      const auto mu = static_cast<std::size_t>(m);
      sd[mu] = mu * ng_w;
      rc[mu] = d.pack_count(b, m);
      rd[mu] = off;
      off += rc[mu];
    }
    const CplxVec psend = test_signal(static_cast<std::size_t>(ntg) * ng_w);
    CplxVec precv(off);
    const double t_pack = timed(
        [&] {
          pack.alltoallv(psend.data(), sc.data(), sd.data(), precv.data(),
                         rc.data(), rd.data(), 0);
        },
        reps);

    // Scatter: the fused pencil -> plane views.
    const std::size_t nz = d.dims().nz;
    const std::size_t nxny = d.dims().plane();
    const std::size_t nst_b = d.nsticks_group(b);
    const std::size_t npz_b = d.npz(b);
    std::vector<std::vector<fx::mpi::SegRun>> sruns(static_cast<std::size_t>(rg));
    std::vector<std::vector<fx::mpi::SegRun>> rruns(static_cast<std::size_t>(rg));
    std::vector<fx::mpi::SegView> sv(static_cast<std::size_t>(rg));
    std::vector<fx::mpi::SegView> rv(static_cast<std::size_t>(rg));
    for (int p = 0; p < rg; ++p) {
      const auto pu = static_cast<std::size_t>(p);
      for (std::size_t s = 0; s < nst_b; ++s) {
        sruns[pu].push_back({s * nz + d.first_plane(p), d.npz(p), 1});
      }
      for (std::size_t s : d.group_sticks(p)) {
        rruns[pu].push_back({d.stick_xy(s), npz_b, nxny});
      }
      sv[pu] = fx::mpi::SegView(sruns[pu]);
      rv[pu] = fx::mpi::SegView(rruns[pu]);
    }
    const CplxVec pencil = test_signal(d.pencil_size(b));
    CplxVec planes(std::max<std::size_t>(1, d.plane_size(b)));
    const double t_scatter = timed(
        [&] {
          scat.alltoallv_view(pencil.data(), sv, planes.data(), rv,
                              sizeof(cplx), 0);
        },
        reps);

    // The same bytes through memcpy, by the same threads at once.
    CplxVec copy(pencil.size());
    const double t_copy = timed(
        [&] {
          std::memcpy(copy.data(), pencil.data(), pencil.size() * sizeof(cplx));
        },
        reps);
    if (copy.empty() || copy.back() != pencil.back()) {
      throw std::runtime_error("ledger: memcpy probe lost its data");
    }

    const double t_barrier = timed([&] { world.barrier(); }, barriers);

    std::vector<double> post;
    for (int i = 0; i < reps; ++i) {
      world.barrier();
      const WallTimer timer;
      fx::mpi::Request req = scat.ialltoallv_view(
          pencil.data(), sv, planes.data(), rv, sizeof(cplx), 1);
      post.push_back(timer.seconds());
      req.wait();
    }

    // Polls of a posted exchange whose peers have not posted yet (on a
    // one-rank scatter communicator the first poll completes it).
    double t_test = 0.0;
    const int test_reps = smoke ? 2 : 50;
    for (int i = 0; i < test_reps; ++i) {
      world.barrier();
      if (lead) {
        fx::mpi::Request req = scat.ialltoallv_view(
            pencil.data(), sv, planes.data(), rv, sizeof(cplx), 2);
        const WallTimer timer;
        for (int k = 0; k < polls; ++k) (void)req.test();
        t_test += timer.seconds();
        world.barrier();
        req.wait();
      } else {
        world.barrier();
        scat.ialltoallv_view(pencil.data(), sv, planes.data(), rv,
                             sizeof(cplx), 2)
            .wait();
      }
    }

    if (lead) {
      out.pack_gbps = pack_total / t_pack / 1e9;
      out.scatter_gbps = scatter_total / t_scatter / 1e9;
      out.copy_gbps = scatter_total / t_copy / 1e9;
      out.barrier_us = 1e6 * t_barrier;
      out.ipost_us = 1e6 * quantile(post, 0.5);
      out.itest_ns = 1e9 * t_test / (test_reps * polls);
      out.pack_bytes =
          static_cast<double>(ntg) * static_cast<double>(ng_w) * sizeof(cplx);
      out.scatter_bytes = static_cast<double>(pencil.size()) * sizeof(cplx);
    }
  });
  return out;
}

/// Task-runtime costs at the workload's worker count.
struct TaskCosts {
  double task_ns = 0.0;
  double edge_ns = 0.0;
  double waitable_ns = 0.0;
};

TaskCosts task_costs(int nthreads, bool smoke) {
  const int n = smoke ? 2000 : 20000;
  fx::task::TaskRuntime rt(nthreads);
  auto per_task_ns = [&](const auto& submit_all) {
    std::vector<double> t;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const WallTimer timer;
      submit_all();
      rt.taskwait();
      t.push_back(1e9 * timer.seconds() / n);
    }
    return quantile(t, 0.5);
  };
  int anchor = 0;
  TaskCosts c;
  c.task_ns = per_task_ns([&] {
    for (int i = 0; i < n; ++i) rt.submit("t", [] {});
  });
  const double chain_ns = per_task_ns([&] {
    for (int i = 0; i < n; ++i) {
      rt.submit("c", {fx::task::inout(anchor)}, [] {});
    }
  });
  c.edge_ns = chain_ns - c.task_ns;
  // Parks once (the first poll reports "not yet"), then retires.
  c.waitable_ns = per_task_ns([&] {
    for (int i = 0; i < n; ++i) {
      rt.submit_waitable("w", {}, [polls = 0](bool last) mutable {
        return last || ++polls > 1;
      });
    }
  });
  return c;
}

}  // namespace

void kernel_layers(const Preset& p, const Options& o, Report& r, Spans& spans,
                   int parent) {
  const double min_s = o.smoke ? 0.02 : 0.3;
  std::unique_ptr<Descriptor> d;
  {
    const Span s(spans, "ledger.layer.pw", parent);
    std::vector<double> t;
    for (int rep = 0; rep < (o.smoke ? 1 : kRepeats); ++rep) {
      const WallTimer timer;
      d = std::make_unique<Descriptor>(fx::pw::Cell{p.alat_bohr}, p.ecut_ry,
                                       p.nranks, p.ntg);
      t.push_back(timer.seconds());
    }
    r.set("pw.descriptor_s", quantile(t, 0.5), "s");
  }
  {
    const Span s(spans, "ledger.layer.fft", parent);
    const double per_carried = p.real_bands ? 2.0 : 1.0;
    const auto& dims = d->dims();
    r.set("fft.z.gflops", z_gflops(*d, min_s), "GFLOP/s");
    r.set("fft.xy.gflops", xy_gflops(*d, min_s), "GFLOP/s");
    r.set("fft.z.flops_per_band",
          2.0 * static_cast<double>(d->total_sticks()) * fft_flops(dims.nz) /
              per_carried,
          "count");
    r.set("fft.xy.flops_per_band",
          2.0 * static_cast<double>(dims.nz) * fft_flops(dims.plane()) /
              per_carried,
          "count");
  }
  {
    const Span s(spans, "ledger.layer.simmpi", parent);
    const CommRates c = comm_rates(*d, p.nranks, o.smoke);
    r.set("simmpi.pack.gbps", c.pack_gbps, "GB/s");
    r.set("simmpi.scatter.gbps", c.scatter_gbps, "GB/s");
    r.set("mem.copy_gbps", c.copy_gbps, "GB/s");
    r.set("simmpi.copy_ratio", c.scatter_gbps / c.copy_gbps, "ratio");
    r.set("simmpi.pack.bytes", c.pack_bytes, "bytes");
    r.set("simmpi.scatter.bytes", c.scatter_bytes, "bytes");
    r.set("simmpi.barrier_us", c.barrier_us, "us");
    r.set("simmpi.ipost_us", c.ipost_us, "us");
    r.set("simmpi.itest_ns", c.itest_ns, "ns");
  }
  {
    const Span s(spans, "ledger.layer.tasking", parent);
    const TaskCosts c = task_costs(p.nthreads, o.smoke);
    r.set("tasking.task_ns", c.task_ns, "ns");
    r.set("tasking.edge_ns", c.edge_ns, "ns");
    r.set("tasking.waitable_ns", c.waitable_ns, "ns");
  }
}

}  // namespace ledger
