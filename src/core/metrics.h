// pp::metrics — process-wide named counters, gauges, and fixed-bucket
// log-scale histograms, rendered in Prometheus text exposition format.
//
// Complement to the tracer (core/trace.h): traces answer "where did THIS
// run's time go", metrics answer "what is the process doing right now /
// since start". Every metric is a plain relaxed atomic — an increment is
// one fetch_add, there are no locks and no per-call allocation, so the
// serving hot path can bump them unconditionally.
//
// The full catalog is one list, PP_METRICS below: each metric's member,
// Prometheus name and help, written once (this file is the only place
// metric name literals live, which is what lets tools/pplint.py's
// metrics-coverage rule cross-check the README catalog and the test golden
// against the code). The list declares the catalog's members and registers
// them eagerly, so render_prometheus() always emits every metric, zeroed or
// not, and scrapers see a stable schema from the first scrape.
//
// Exposed by ppserve as `{"metrics": true}` request lines (text carried
// in the JSON response) and as a loopback HTTP `GET /metrics` responder
// (`--metrics-port`).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fields.h"

namespace pp::metrics {

class counter {
 public:
  counter(const char* name, const char* help) : name_(name), help_(help) {}
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }
  const char* name() const { return name_; }
  const char* help() const { return help_; }

 private:
  const char* name_;
  const char* help_;
  std::atomic<uint64_t> v_{0};
};

class gauge {
 public:
  gauge(const char* name, const char* help) : name_(name), help_(help) {}
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }
  const char* name() const { return name_; }
  const char* help() const { return help_; }

 private:
  const char* name_;
  const char* help_;
  std::atomic<int64_t> v_{0};
};

// Fixed log-scale buckets: finite upper bounds 2^0, 2^1, ..., 2^30, then
// +Inf. One histogram shape for every unit (batch sizes, microsecond
// latencies) keeps observe() branch-free beyond the bucket index.
class histogram {
 public:
  static constexpr int kFiniteBuckets = 31;  // le = 1, 2, 4, ..., 2^30

  histogram(const char* name, const char* help) : name_(name), help_(help) {}

  void observe(uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // Raw (non-cumulative) count of bucket i; i == kFiniteBuckets is +Inf.
  uint64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }
  uint64_t count() const {
    uint64_t c = 0;
    for (const auto& b : buckets_) c += b.load(std::memory_order_relaxed);
    return c;
  }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }
  const char* name() const { return name_; }
  const char* help() const { return help_; }

  // Smallest i with v <= 2^i, saturating into the +Inf bucket (index
  // kFiniteBuckets; finite bucket indices are 0..kFiniteBuckets-1).
  static int bucket_index(uint64_t v) {
    if (v <= 1) return 0;
    int w = 64 - std::countl_zero(v - 1);  // ceil(log2(v))
    return w >= kFiniteBuckets ? kFiniteBuckets : w;
  }

 private:
  const char* name_;
  const char* help_;
  std::atomic<uint64_t> buckets_[kFiniteBuckets + 1]{};
  std::atomic<uint64_t> sum_{0};
};

// The serving engine's request counters, in engine_stats order. Each is an
// engine_stats field and a per-engine atomic (src/serve/engine.h); a
// CATALOGUED one is also the process-wide counter serve_<name> below, and
// one engine::count() call bumps both.
//   CATALOGUED(uint64_t, name, "prometheus name", "help")
//   ENGINE_ONLY(uint64_t, name)
#define PP_SERVE_COUNTERS(CATALOGUED, ENGINE_ONLY)                                          \
  CATALOGUED(uint64_t, submitted, "pp_serve_submitted_total",                               \
             "Requests admitted to the engine queue as entries")                            \
  CATALOGUED(uint64_t, completed, "pp_serve_completed_total",                               \
             "Responses delivered ok (cache hits and fanned-out waiters included)")         \
  CATALOGUED(uint64_t, failed, "pp_serve_failed_total",                                     \
             "Responses delivered with a non-QoS error")                                    \
  CATALOGUED(uint64_t, expired, "pp_serve_expired_total",                                   \
             "Requests dropped because their deadline passed while queued")                 \
  CATALOGUED(uint64_t, cancelled, "pp_serve_cancelled_total",                               \
             "Requests whose solve was cancelled mid-run by a blown deadline")              \
  ENGINE_ONLY(uint64_t, batches) /* run_batch flushes (== pool leases taken) */             \
  ENGINE_ONLY(uint64_t, batched) /* requests that shared a flush with >= 1 other */         \
  CATALOGUED(uint64_t, cache_hits, "pp_serve_cache_hits_total",                             \
             "Requests answered from the result cache at admission")                        \
  CATALOGUED(uint64_t, cache_misses, "pp_serve_cache_misses_total",                         \
             "Cache lookups that held no entry for the key")                                \
  CATALOGUED(uint64_t, deduped, "pp_serve_deduped_total",                                   \
             "Requests collapsed onto an identical in-flight execution")

// Every process-wide metric: METRIC(kind, member, "prometheus name", "help"),
// and the catalogued serve counters as members serve_<name>. Within each
// kind, list order is registration and render order.
#define PP_METRICS(SERVE_COUNTER, METRIC)                                                   \
  PP_SERVE_COUNTERS(SERVE_COUNTER, PP_FIELD_NONE)                                            \
  METRIC(gauge, serve_queue_depth, "pp_serve_queue_depth",                                  \
         "Requests waiting in the admission queue")                                         \
  METRIC(gauge, serve_inflight, "pp_serve_inflight_runs",                                   \
         "run_batch flushes executing right now")                                           \
  METRIC(histogram, serve_batch_size, "pp_serve_batch_size",                                \
         "Coalesced requests per run_batch flush")                                          \
  METRIC(histogram, serve_latency_interactive, "pp_serve_latency_interactive_usec",         \
         "Submit-to-delivery latency, interactive class (microseconds)")                    \
  METRIC(histogram, serve_latency_batch, "pp_serve_latency_batch_usec",                     \
         "Submit-to-delivery latency, batch class (microseconds)")                          \
  /* tracer ring buffers (core/trace.h) */                                                  \
  METRIC(counter, trace_ring_overwrites, "pp_trace_ring_overwrites_total",                  \
         "Trace records lost to per-thread ring wraparound (a nonzero "                     \
         "value means a timeline dump is missing its oldest spans)")                        \
  /* scheduler (src/parallel/scheduler.cpp) */                                              \
  METRIC(counter, pool_leases, "pp_pool_leases_total",                                      \
         "Work-stealing pool lease acquisitions")                                           \
  /* relaxed k-MultiQueue (src/parallel/multiqueue.h) */                                    \
  METRIC(counter, mq_popped, "pp_mq_popped_total",                                          \
         "Elements claimed from relaxed k-MultiQueues")                                     \
  METRIC(counter, mq_wasted, "pp_mq_wasted_total",                                          \
         "MultiQueue pops that were stale or already decided (relaxation cost)")            \
  METRIC(counter, mq_retries, "pp_mq_retries_total",                                        \
         "MultiQueue empty best-of-two draws and not-yet-ready re-inserts")

// The process catalog. Leaky singleton (same lifetime rule as the solver
// registry): emission points from any thread, at any point of shutdown,
// may still touch it.
struct catalog {
#define PP_SERVE_COUNTER_MEMBER(type, name, prom, help) counter serve_##name{prom, help};
#define PP_METRIC_MEMBER(kind, name, prom, help) kind name{prom, help};
  PP_METRICS(PP_SERVE_COUNTER_MEMBER, PP_METRIC_MEMBER)
#undef PP_SERVE_COUNTER_MEMBER
#undef PP_METRIC_MEMBER

  static catalog& get();

  // Registration-ordered views the renderer iterates.
  const std::vector<counter*>& counters() const { return counters_; }
  const std::vector<gauge*>& gauges() const { return gauges_; }
  const std::vector<histogram*>& histograms() const { return histograms_; }

 private:
  catalog();
  void add(counter& m) { counters_.push_back(&m); }
  void add(gauge& m) { gauges_.push_back(&m); }
  void add(histogram& m) { histograms_.push_back(&m); }
  std::vector<counter*> counters_;
  std::vector<gauge*> gauges_;
  std::vector<histogram*> histograms_;
};

// Prometheus text exposition format (# HELP / # TYPE + samples; histogram
// as cumulative _bucket{le=...} series plus _sum/_count).
std::string render_prometheus();

// Zero every metric (tests only — production metrics are monotonic).
void reset_for_tests();

}  // namespace pp::metrics
