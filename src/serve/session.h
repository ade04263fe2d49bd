// pp::serve sessions — a versioned instance store for stateful serving.
//
// Every request through the engine used to carry its whole problem_input by
// value and re-solve from scratch. The workloads the paper's solvers model
// mutate ONE instance and re-query: edges arrive in a road graph, points
// append to a price series. A session gives that shape a first-class home:
//
//   pp::serve::session_table tab(/*max_sessions=*/64);
//   tab.create("road", registry::instance().make_input("sssp", n, seed));
//   tab.apply("road", delta);               // writer installs version v+1
//   snapshot_input s = tab.snapshot("road");  // immutable view of version v+1
//   eng.submit({.solver="sssp/incremental", .input=s});
//
// Versioning model (immutable CSR versions):
//
//  * Every version is an immutable `version_state` held by shared_ptr —
//    the reader refcount. snapshot() pins the current head; a solve in
//    flight keeps reading version v while the writer installs v+1.
//  * A version is live while it is the head or pinned. The last pin
//    *returns* its input to the session's spare slot instead of freeing it
//    (the deleter of the input's shared_ptr, which runs on whichever thread
//    drops that pin and holds only a weak_ptr to the slot). The writer
//    takes the spare under writer_m and builds the next version into its
//    storage, so a delta writes into warm pages it already owns. A pinned
//    version is never touched; at most one retired version is kept, and
//    dropping the session frees it.
//  * A version's edge set is its solver-facing CSR and nothing else; each
//    vertex's run is sorted by target and deduplicated. A delta resolves to
//    one final state per touched edge, and each such edge's old weight is
//    a binary search in the parent's CSR (O(log m) per edge op). The
//    child's CSR is then built in one pass: the parent's runs between
//    touched vertices are copied in bulk with their offsets shifted by a
//    constant, and only the touched vertices' runs are merged element by
//    element with the resolved ops — no intermediate edge list, no re-sort,
//    paid once per delta, never per solve.
//  * One writer per session (`writer_m`): deltas serialize against each
//    other, but hold only the session's writer lock while they build the
//    new version. Readers take `head_m` just long enough to copy shared
//    pointers, so concurrent solves on version v never block the writer
//    installing v+1 (asserted under TSan by tests/test_session.cpp).
//
// Fingerprints are maintained incrementally: a version's fp is the XOR of
// a header hash (kind, n, source, delta) with one content hash per element
// (edge or sequence position). Applying a delta XORs out the old element
// hashes and XORs in the new — per-version fp = parent fp ⊕ delta fp — so
// the engine's result cache and in-flight dedup address each version in
// O(delta) instead of rehashing the instance (registry.cpp canonicalizes a
// snapshot to exactly these two words). The fp is a pure function of
// content: two sessions (or two delta histories) reaching the same
// instance share cache entries.
//
// Supported instance kinds: "sssp" (add/remove/reweight directed edges,
// move the source) and "lis" (append/update sequence elements). The store
// also tracks incremental-solve hints for sssp: after note_solve() feeds a
// version's exact distances back, later snapshots carry them plus every
// edge inserted since, and sssp/incremental re-settles only the affected
// subgraph. Removals, weight increases, and source moves invalidate the
// labels (they stop being upper bounds); insertions and decreases keep
// them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/annotations.h"
#include "core/fields.h"
#include "core/fingerprint.h"
#include "core/registry.h"
#include "graph/csr.h"

namespace pp::serve {

// Session verbs fail by throwing this (unknown session, duplicate create,
// malformed delta); ppserve turns it into an error envelope per line.
struct session_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// One batch of mutations, applied atomically as one new version. Graph
// fields drive "sssp" sessions, sequence fields drive "lis" sessions;
// mixing kinds is a session_error.
struct session_delta {
  // Insert (u,v,w), or change the weight if the edge exists. Inserting an
  // edge that already holds the same weight is a no-op.
  std::vector<wgraph::wedge> add_edges;
  // Remove (u,v); removing an absent edge is a no-op.
  std::vector<edge> remove_edges;
  // Move the SSSP source vertex.
  std::optional<vertex_t> source;
  // Append values to the sequence (unit weights).
  std::vector<int64_t> append;
  struct elem_update {
    size_t index;
    int64_t value;
  };
  // Overwrite existing positions; an out-of-range index is a session_error.
  std::vector<elem_update> update;

  bool empty() const {
    return add_edges.empty() && remove_edges.empty() && !source && append.empty() &&
           update.empty();
  }
};

// What a session verb reports back (the wire-level response payload), in
// JSON order (core/fields.h).
#define PP_SESSION_DESC_FIELDS(F, P, D)                                        \
  F(std::string, name)                                                         \
  F(std::string, problem) /* "sssp" or "lis" */                                \
  F(uint64_t, version)                                                         \
  P(fingerprint, fp)      /* this version's content address */                 \
  D("fingerprint", r.fp.hex())                                                 \
  F(size_t, elems)        /* directed edges / sequence length */               \
  F(bool, hints)          /* incremental labels available for the NEXT solve */

struct session_desc {
  PP_DECLARE_FIELDS(PP_SESSION_DESC_FIELDS)
};

// Machine-readable descriptor (core/json.h writer): the "session" member
// every ppserve session verb's response line carries.
void write_fields(json::writer& w, const session_desc& r);
std::string to_json(const session_desc& d);

class session_table {
 public:
  // max_sessions = 0 means unbounded; otherwise creating session N+1
  // evicts the least-recently-used instance (in-flight solves keep their
  // pinned snapshots alive; only the table's reference is dropped).
  explicit session_table(size_t max_sessions);

  session_table(const session_table&) = delete;
  session_table& operator=(const session_table&) = delete;

  // Create a named instance at version 0 from an explicit base input
  // (sssp_input or unit-weight sequence_input). Throws session_error on a
  // duplicate name or an unsupported kind.
  session_desc create(const std::string& name, problem_input base);

  // Apply one delta, installing version v+1. Concurrent apply() calls on
  // one session serialize; readers of version v are never blocked.
  session_desc apply(const std::string& name, const session_delta& d);

  // Pin the current head as an immutable snapshot_input (O(1): shared
  // pointers only). Carries incremental hints when a prior solve's labels
  // are still valid. When `pinned` is set it receives the pinned version's
  // descriptor, read under the same lock as the pin.
  snapshot_input snapshot(const std::string& name, session_desc* pinned = nullptr);

  // Current metadata without pinning.
  session_desc describe(const std::string& name) const;

  // Remove the instance; false if the name is unknown. Pinned snapshots
  // survive until their solves finish.
  bool drop(const std::string& name);

  // Feed a solve's exact distances back as incremental labels for
  // `version` (sssp sessions only; ignored when stale — an older solve
  // must never clobber newer labels).
  void note_solve(const std::string& name, uint64_t version,
                  const std::vector<int64_t>& dist);

  size_t size() const;
  uint64_t evictions() const;
  std::vector<session_desc> list() const;

 private:
  // One immutable version. Built by exactly one writer, then only read.
  // Its size, source and delta parameter are read from `input`.
  struct version_state {
    uint64_t version = 0;
    fingerprint elem_acc{};  // XOR of per-element content hashes
    fingerprint fp{};        // header hash ⊕ elem_acc (the content address)
    std::shared_ptr<const problem_input> input;  // sssp_input or sequence_input
  };

  // Where a retired version's input waits to be rebuilt into the next
  // version (see the versioning model above).
  struct spare_slot {
    sync::mutex m;
    std::unique_ptr<problem_input> input PP_GUARDED_BY(m);

    // Own `in` as a version's input. When its last pin drops, it comes
    // back to `slot`, or is freed if the session is gone.
    static std::shared_ptr<const problem_input> adopt(const std::shared_ptr<spare_slot>& slot,
                                                      std::unique_ptr<problem_input> in);
    // The retired input, or nullptr when none has come back.
    std::unique_ptr<problem_input> take();
  };

  struct entry {
    std::string name;
    std::string problem;

    // Serializes writers (apply) on this session. Never taken by readers.
    sync::mutex writer_m;
    const std::shared_ptr<spare_slot> spare = std::make_shared<spare_slot>();

    // Guards the head pointer and the incremental-label state; every
    // critical section under it is a handful of shared_ptr copies, so
    // readers cannot stall a writer (and vice versa) for longer than that.
    mutable sync::mutex head_m;
    std::shared_ptr<const version_state> head PP_GUARDED_BY(head_m);
    // Exact distances from a completed solve, valid for labels_version.
    std::shared_ptr<const std::vector<int64_t>> labels PP_GUARDED_BY(head_m);
    uint64_t labels_version PP_GUARDED_BY(head_m) = 0;
    // Every edge inserted (or decreased) since labels_version — the
    // relaxation seeds sssp/incremental starts from. A superset is safe
    // (seeding with any edge already in g is a no-op relaxation), which is
    // what keeps the mid-flight-delta race benign; see note_solve().
    std::shared_ptr<const std::vector<wgraph::wedge>> inserted_since
        PP_GUARDED_BY(head_m);

    uint64_t last_touch = 0;  // guarded by session_table::m_

    // The head version's descriptor.
    session_desc describe_head() const PP_REQUIRES(head_m);
  };

  std::shared_ptr<entry> find_and_touch(const std::string& name);
  std::shared_ptr<entry> find_const(const std::string& name) const;
  static session_desc describe_entry(const entry& e);

  const size_t max_sessions_;

  mutable sync::mutex m_;
  std::map<std::string, std::shared_ptr<entry>> sessions_ PP_GUARDED_BY(m_);
  uint64_t touch_seq_ PP_GUARDED_BY(m_) = 0;
  uint64_t evictions_ PP_GUARDED_BY(m_) = 0;
};

}  // namespace pp::serve
