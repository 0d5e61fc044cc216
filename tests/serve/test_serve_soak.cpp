// Overload soak: several tenants submit well past sustainable throughput
// into small bounded queues while faults (rank kill + payload corruption)
// are live.  The acceptance criteria from the service design:
//
//   - queue depth stays bounded (admission control sheds the excess),
//   - the world never hangs or deadlocks (watchdog-guarded),
//   - every admitted request reaches EXACTLY one terminal state
//     (double-fulfillment is an FX_CHECK abort inside the frontend),
//   - deadline-cancelled requests leave the communicator usable,
//   - shedding and degradation demonstrably engage.
//
// The rank count honors FFTX_SERVE_SOAK_RANKS (CI sweeps 2/4/8) and the
// fault plan honors a preset FFTX_FAULT_* environment; when the
// environment injects nothing, a built-in kill + corruption plan keeps the
// soak chaotic by default.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "serve/frontend.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::mpi::Comm;
using fx::mpi::CommOpKind;
using fx::mpi::RunOptions;
using fx::mpi::Runtime;
using fx::serve::Frontend;
using fx::serve::Overloaded;
using fx::serve::Request;
using fx::serve::Response;
using fx::serve::ServeConfig;
using fx::serve::Status;
using fx::serve::Ticket;

TEST(ServeSoak, OverloadWithFaultsKeepsEveryGuarantee) {
  int nranks = 4;
  fx::core::env_int_in("FFTX_SERVE_SOAK_RANKS", nranks, 2, 64, "soak");

  RunOptions opts = RunOptions::from_env();
  opts.watchdog.window_ms = 60000.0;
  if (opts.faults.kill_rank < 0 && opts.faults.corrupt_rank < 0) {
    opts.faults.kill_rank = 1;
    opts.faults.kill_op = 40;  // mid-soak, inside some group's exchanges
    opts.faults.corrupt_rank = 0;
    opts.faults.corrupt_op = 10;
    opts.faults.corrupt_count = 2;
    opts.faults.only_kind = static_cast<int>(CommOpKind::Alltoallv);
  }

  ServeConfig cfg;
  cfg.queue_depth = 4;  // tiny: overload must shed, not queue
  cfg.coalesce_bands = 8;
  cfg.starvation_ms = 250.0;
  cfg.degrade_watermark = 0.5;
  cfg.breaker_strikes = 0;  // no quarantine: this test measures shedding
  cfg.idle_poll_ms = 1.0;
  cfg.pipeline.guard_exchanges = true;  // corruption must be survivable
  cfg.pipeline.fused_exchange = false;
  cfg.recovery.enabled = true;
  cfg.recovery.checkpoint_bands = 2;
  cfg.recovery.retry.base_delay_ms = 0.1;

  auto& reg = fx::core::MetricsRegistry::global();
  const auto shed0 = reg.counter("fftx.serve.shed.queue_full").value();
  const auto peak_gauge = [&] {
    return reg.gauge("fftx.serve.queue_depth_peak").value();
  };
  const double peak0 = peak_gauge();

  Frontend fe(cfg);
  constexpr int kTenants = 3;
  constexpr int kPerTenant = 40;  // 120 submissions against 12 queue slots
  std::vector<std::vector<Ticket>> admitted(kTenants);
  std::atomic<int> shed{0};

  std::vector<std::thread> clients;
  clients.reserve(kTenants);
  std::thread stopper;
  std::atomic<int> clients_done{0};
  for (int c = 0; c < kTenants; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerTenant; ++i) {
        Request r;
        r.tenant = "tenant" + std::to_string(c);
        r.num_bands = 2 + (i % 3);
        if (i % 4 == 0) r.deadline_s = 0.25;  // some cancel under load
        try {
          admitted[static_cast<std::size_t>(c)].push_back(fe.submit(r));
        } catch (const Overloaded&) {
          shed.fetch_add(1);
        }
        // No pacing: submit as fast as the frontend admits -- this is the
        // ">= 4x sustainable throughput" leg of the acceptance criteria.
      }
      if (clients_done.fetch_add(1) + 1 == kTenants) {
        // Last client out waits for the backlog, then stops the service.
        const double t0 = fx::core::WallTimer::now();
        for (const auto& per_tenant : admitted) {
          for (const auto& t : per_tenant) {
            while (!t.done() &&
                   fx::core::WallTimer::now() - t0 < 120.0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
        }
        fe.request_stop();
      }
    });
  }
  Runtime::run(nranks, opts, [&](Comm& world) { fe.serve(world); });
  for (auto& c : clients) c.join();
  const int leftovers = fe.fail_pending("soak: world terminated");

  // Every admitted request reached exactly one terminal state; wait() here
  // can no longer block (everything is done or was just failed).
  int completed = 0, degraded = 0, cancelled = 0, failed = 0;
  int total_admitted = 0;
  for (auto& per_tenant : admitted) {
    for (auto& t : per_tenant) {
      ++total_admitted;
      ASSERT_TRUE(t.done()) << "ticket left unresolved";
      const Response r = t.wait();
      switch (r.status) {
        case Status::Completed:
          ++completed;
          break;
        case Status::CompletedDegraded:
          ++degraded;
          break;
        case Status::DeadlineCancelled:
          ++cancelled;
          break;
        case Status::Failed:
          ++failed;
          break;
      }
    }
  }
  EXPECT_EQ(completed + degraded + cancelled + failed, total_admitted);
  EXPECT_EQ(total_admitted + shed.load(), kTenants * kPerTenant);

  // Overload handling engaged: the excess was shed at the door, not queued.
  EXPECT_GT(shed.load(), 0) << "soak never overloaded the frontend";
  EXPECT_GT(completed + degraded, 0) << "service made no progress";
  EXPECT_EQ(leftovers, 0) << "serve loop exited with unresolved tickets";

  // Bounded queues: the observed peak depth never exceeded the configured
  // bound (per tenant) summed over tenants.
  EXPECT_GT(reg.counter("fftx.serve.shed.queue_full").value(), shed0);
  EXPECT_LE(peak_gauge(), std::max(peak0, 1.0 * kTenants * cfg.queue_depth));
}

}  // namespace
