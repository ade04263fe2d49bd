// Example: revenue-maximal batch-job scheduling on an exclusive resource.
//
// A queue of batch jobs (submission window [start, end), payment weight)
// competes for one exclusive machine; we pick the non-overlapping subset
// maximizing total payment — weighted activity selection (Sec. 4.1). The
// example compares the sequential DP with both parallel variants and
// reconstructs the winning schedule from the dp array.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "algos/activity.h"
#include "core/context.h"

namespace {

double secs(std::function<void()> f) {
  auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Walk the dp array backwards to extract one optimal schedule.
std::vector<size_t> reconstruct(std::span<const pp::activity> acts,
                                std::span<const int64_t> dp) {
  if (acts.empty()) return {};
  size_t cur = 0;
  for (size_t i = 1; i < acts.size(); ++i)
    if (dp[i] > dp[cur]) cur = i;
  std::vector<size_t> picked = {cur};
  int64_t need = dp[cur] - acts[cur].weight;
  int64_t bound = acts[cur].start;
  for (size_t i = cur; i-- > 0 && need > 0;) {
    if (acts[i].end <= bound && dp[i] == need) {
      picked.push_back(i);
      need -= acts[i].weight;
      bound = acts[i].start;
    }
  }
  std::reverse(picked.begin(), picked.end());
  return picked;
}

}  // namespace

int main() {
  // One day of jobs: bursty arrivals, durations 1-30 min, payments 1-1000.
  constexpr size_t n_jobs = 500'000;
  auto jobs = pp::random_activities(n_jobs, 24 * 3600, 8 * 60.0, 6 * 60.0, 1000, 2024);
  std::printf("scheduling %zu candidate jobs on one machine\n", jobs.size());

  const pp::context ctx = pp::default_context();
  pp::activity_result seq, par1, par2;
  double ts = secs([&] { seq = pp::activity_select_seq(jobs, ctx); });
  double t1 = secs([&] { par1 = pp::activity_select_type1(jobs, ctx); });
  double t2 = secs([&] { par2 = pp::activity_select_type2(jobs, ctx); });

  std::printf("best total payment: %lld (seq %.3fs | type1 %.3fs | type2 %.3fs)\n",
              (long long)seq.best, ts, t1, t2);
  std::printf("agreement: %s; rank of the day's schedule: %zu rounds\n",
              (seq.best == par1.best && seq.best == par2.best) ? "all equal" : "MISMATCH",
              par1.stats.rounds);

  auto picked = reconstruct(jobs, par1.dp);
  int64_t total = 0;
  for (auto i : picked) total += jobs[i].weight;
  std::printf("reconstructed schedule: %zu jobs, total %lld (matches best: %s)\n",
              picked.size(), (long long)total, total == seq.best ? "yes" : "NO");
  std::printf("first three slots:\n");
  for (size_t k = 0; k < std::min<size_t>(3, picked.size()); ++k) {
    auto& j = jobs[picked[k]];
    std::printf("  job #%zu  [%5lld s .. %5lld s)  pays %lld\n", picked[k], (long long)j.start,
                (long long)j.end, (long long)j.weight);
  }
  return 0;
}
