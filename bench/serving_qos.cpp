// serving_qos: probe tail latency under a saturating batch-class
// background load, probes in the interactive class (ON) vs the batch
// class (OFF).
//
// The QoS question for the serving engine (src/serve/): when throughput
// traffic keeps the admission queue non-empty, what happens to the tail
// latency of a small latency-sensitive request? Setup:
//
//   background  B closed-loop clients submitting batch-class requests of a
//               chunky solve (each client: submit, wait, repeat — so the
//               queue always holds ~B batch requests);
//   probes      one client submitting a request of a tiny solve every
//               `think` ms, measuring submit -> response.
//
// Both modes run the identical workload; the only difference is the
// probes' class (the row label `priority_classes` names it):
//
//   OFF  batch-class probes: one FIFO class, so every probe waits behind
//        ~B queued batch solves;
//   ON   interactive probes pop first: a probe waits only for the run
//        already on the executor (the engine never preempts a running
//        solve — cancellation is cooperative and deadline-driven, not a
//        scheduler hook), then jumps every queued batch request.
//
// Expected shape: probe p99 strictly lower with interactive probes
// — roughly (residual of one background solve + probe solve) vs (~B
// background solves). Batch-class throughput is unaffected to first order
// (the probes are a negligible fraction of total work).
//
// Env: REPRO_SCALE scales input sizes, PP_SEED the base seed. The final
// line prints PASS/FAIL on "p99 on < p99 off".
//
// With --json, a single envelope is printed instead. Latencies are
// environment noise, so the committed baseline BENCH_serving_qos.json locks
// only the deterministic fields (the config echo, and per-mode: every probe
// completed, nothing expired, nothing failed — the QoS layer must never
// trade correctness for latency); the p99 comparison stays a human-mode
// assertion. Regenerate with
// `bench/serving_qos --json > BENCH_serving_qos.json`.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/json.h"
#include "core/registry.h"
#include "serve/engine.h"

namespace {

constexpr const char* kSolver = "lis/parallel";

struct qos_result {
  std::vector<double> probe_ms;  // per-probe submit -> response latency
  uint64_t background_done = 0;
  pp::serve::engine_stats stats;
};

double pct(std::vector<double> xs, size_t p) {  // nearest-rank percentile
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t rank = (xs.size() * p + 99) / 100;
  return xs[rank == 0 ? 0 : rank - 1];
}

qos_result run_mode(bool priority_on, size_t n_bg, size_t n_probe, size_t probes,
                    unsigned bg_clients, const pp::context& base) {
  using namespace std::chrono;
  pp::serve::engine_options opt;
  opt.max_inflight_runs = 1;  // one executor: the contended resource
  opt.workers_per_run = 2;
  // Coalescing off: with one shared solver, FIFO-mode gathers would pull a
  // probe into a background flush and blur the comparison — this bench
  // isolates pure pop-order QoS (serving_async covers batching).
  opt.batch_window = microseconds{0};
  opt.max_batch = 1;
  opt.queue_capacity = 256;
  opt.ctx = base;
  pp::serve::engine eng(opt);

  auto& reg = pp::registry::instance();
  auto bg_in = reg.make_input("lis", n_bg, base.seed + 1);
  auto probe_in = reg.make_input("lis", n_probe, base.seed + 2);

  qos_result out;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bg_done{0};
  std::vector<std::thread> bg;
  for (unsigned c = 0; c < bg_clients; ++c) {
    bg.emplace_back([&, c] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        pp::serve::request req;
        req.solver = kSolver;
        req.input = bg_in;
        req.seed = 1000 + c * 1'000'000 + i++;
        req.prio = pp::serve::priority::batch;
        auto fut = eng.submit(std::move(req));
        if (!fut.valid()) break;
        fut.get();
        bg_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let the background fill the queue before probing.
  std::this_thread::sleep_for(milliseconds(100));
  for (size_t p = 0; p < probes; ++p) {
    pp::serve::request req;
    req.solver = kSolver;
    req.input = probe_in;
    req.seed = 9000 + p;
    req.prio = priority_on ? pp::serve::priority::interactive : pp::serve::priority::batch;
    auto t0 = steady_clock::now();
    auto fut = eng.submit(std::move(req));
    pp::serve::response r = fut.get();
    double ms = duration<double, std::milli>(steady_clock::now() - t0).count();
    if (r.ok()) out.probe_ms.push_back(ms);
    std::this_thread::sleep_for(milliseconds(10));  // probe think time
  }

  stop.store(true);
  for (auto& t : bg) t.join();
  out.stats = eng.stats();
  eng.stop(/*drain=*/false);
  out.background_done = bg_done.load();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::has_flag(argc, argv, "--json");
  pp::context ctx = bench::env_context().with_backend(pp::backend_kind::native);
  const size_t n_bg = bench::scaled(1'500);    // chunky background solve
  const size_t n_probe = bench::scaled(150);   // tiny interactive solve
  const size_t probes = 30;
  const unsigned bg_clients = 4;

  if (!json) {
    std::printf("serving_qos: interactive p99 under saturating batch load (%s, %u bg clients,\n"
                "             bg n=%zu, probe n=%zu, %zu probes)\n",
                kSolver, bg_clients, n_bg, n_probe, probes);
    std::printf("%-16s %10s %10s %10s %12s %10s\n", "priority_classes", "p50_ms", "p99_ms",
                "max_ms", "bg_done", "batches");
  }

  double p99[2] = {0, 0};
  std::vector<qos_result> rows;
  for (int on = 0; on <= 1; ++on) {
    auto r = run_mode(on != 0, n_bg, n_probe, probes, bg_clients, ctx);
    p99[on] = pct(r.probe_ms, 99);
    if (!json) {
      std::printf("%-16s %10.2f %10.2f %10.2f %12llu %10llu\n", on ? "on" : "off",
                  pct(r.probe_ms, 50), p99[on],
                  r.probe_ms.empty() ? 0.0
                                     : *std::max_element(r.probe_ms.begin(), r.probe_ms.end()),
                  static_cast<unsigned long long>(r.background_done),
                  static_cast<unsigned long long>(r.stats.batches));
    }
    rows.push_back(std::move(r));
  }

  if (json) {
    // The deterministic contract of the QoS layer: both modes answer every
    // probe, drop nothing to deadlines, fail nothing. The p99 ordering is
    // timing and stays out of the baseline.
    bool pass = true;
    for (const auto& r : rows)
      pass = pass && r.probe_ms.size() == probes && r.stats.expired == 0 && r.stats.failed == 0;
    pp::json::writer w;
    bench::begin_envelope(w, "serving_qos",
                          {"solver", "bg_clients", "n_bg", "n_probe", "probes", "pass"},
                          {"priority_classes", "probes_completed", "expired", "failed"});
    w.member("solver", kSolver).member("bg_clients", static_cast<uint64_t>(bg_clients));
    w.member("n_bg", static_cast<uint64_t>(n_bg)).member("n_probe", static_cast<uint64_t>(n_probe));
    w.member("probes", static_cast<uint64_t>(probes)).member("pass", pass);
    w.key("rows").begin_array();
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      w.begin_object();
      w.member("priority_classes", i == 1);
      w.member("probes_completed", static_cast<uint64_t>(r.probe_ms.size()));
      w.member("expired", r.stats.expired).member("failed", r.stats.failed);
      // Environment-dependent — reported, never baseline-compared.
      w.member("p50_ms", pct(r.probe_ms, 50)).member("p99_ms", pct(r.probe_ms, 99));
      w.member("background_done", r.background_done).member("batches", r.stats.batches);
      w.end_object();
    }
    w.end_array().end_object();
    std::printf("%s\n", w.str().c_str());
    return pass ? 0 : 1;
  }

  bool pass = p99[1] < p99[0];
  std::printf("interactive p99: %.2f ms (on) vs %.2f ms (off) -> %s\n", p99[1], p99[0],
              pass ? "PASS (the interactive class cuts the probe tail)" : "FAIL");
  return pass ? 0 : 1;
}
