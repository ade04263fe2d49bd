// Execution statistics for phase-parallel algorithms: the quantities the
// paper reports (number of rounds == rank of the input, wake-up attempts
// per object — Table 2 / Lemma 5.5) and that the tests/benches verify.
#pragma once

#include <cstddef>

#include "core/fields.h"
#include "core/trace.h"

namespace pp {

// The counters in JSON order (core/fields.h). Relaxed k-MultiQueue runs
// (parallel/multiqueue.h) fill popped/wasted/retries; phase runs leave them 0.
#define PP_PHASE_STATS_FIELDS(F, P, D)                                                  \
  F(size_t, rounds)          /* parallel rounds executed (== rank(S) for exact ranks) */ \
  F(size_t, processed)       /* objects processed in total */                            \
  F(size_t, wakeup_attempts) /* Type-2: readiness checks performed */                    \
  F(size_t, max_frontier)    /* largest single-round frontier */                         \
  F(size_t, substeps)        /* inner iterations (e.g. Delta-stepping substeps) */       \
  F(size_t, relaxations)     /* SSSP edge relaxations */                                 \
  F(size_t, popped)          /* elements claimed from the MultiQueue */                  \
  F(size_t, wasted)          /* pops that were stale/already decided */                  \
  F(size_t, retries)         /* empty best-of-two draws + not-yet-ready re-inserts */    \
  D("avg_wakeups", r.avg_wakeups()) /* the paper's wake-ups per object, Table 2 */

struct phase_stats {
  PP_DECLARE_FIELDS(PP_PHASE_STATS_FIELDS)

  void record_frontier(size_t size) {
    // Per-round trace event (round index + frontier size); one relaxed
    // atomic load + branch when tracing is off.
    trace::instant("phase/round", "round", rounds, "frontier", size);
    rounds++;
    processed += size;
    if (size > max_frontier) max_frontier = size;
  }

  double avg_wakeups() const {
    return processed == 0 ? 0.0 : static_cast<double>(wakeup_attempts) / static_cast<double>(processed);
  }
};

void write_fields(json::writer& w, const phase_stats& r);

}  // namespace pp
