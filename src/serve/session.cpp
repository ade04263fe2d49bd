#include "serve/session.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <variant>

#include "core/json.h"

namespace pp::serve {

namespace {

uint64_t edge_key(vertex_t u, vertex_t v) {
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
}

// ---- Incremental fingerprint pieces -----------------------------------------
//
// A version's fp is header ^ XOR(elem hashes). Each piece is a full
// length-strengthened digest of a tagged stream, so a delta updates the fp
// by XORing a handful of digests — the parent-fp ⊕ delta-fp law the engine
// cache relies on — while collisions stay as unlikely as for the flat
// canonical stream.

fingerprint fp_xor(fingerprint a, fingerprint b) { return {a.hi ^ b.hi, a.lo ^ b.lo}; }

fingerprint hash_edge(uint64_t key, uint32_t w) {
  fingerprint_stream s;
  s.tag(0xed6e);  // session graph element
  s.u64(key);
  s.u32(w);
  return s.digest();
}

fingerprint hash_elem(size_t i, int64_t v) {
  fingerprint_stream s;
  s.tag(0x5e9e);  // session sequence element
  s.size(i);
  s.i64(v);
  return s.digest();
}

fingerprint graph_header(vertex_t n, vertex_t source, uint32_t delta) {
  fingerprint_stream s;
  s.tag(0x6a5e);  // session graph header
  s.u32(n);
  s.u32(source);
  s.u32(delta);
  return s.digest();
}

fingerprint seq_header(size_t n) {
  fingerprint_stream s;
  s.tag(0x5e0e);  // session sequence header
  s.size(n);
  return s.digest();
}

// Every buffer a session allocates carries 1/32 spare capacity. A buffer
// cycles through the versions of an instance that deltas may grow, so a
// retired version's storage is a few edges short of the version built into
// it; without slack every such delta would reallocate into fresh pages,
// which is the cost recycling exists to avoid. 1/32 is about 100k edges
// (a thousand-odd 64-edge deltas) on a 3.2M-edge instance, for 3% memory.
size_t with_headroom(size_t n) { return n + n / 32; }

// Size `v` to n elements in the storage it owns. Short storage is replaced,
// not grown: the caller overwrites every element, so nothing in it is worth
// copying, and the old block is freed before the new one is taken.
template <typename T>
void fit(std::vector<T>& v, size_t n) {
  if (v.capacity() < n) {
    v = std::vector<T>();
    v.reserve(with_headroom(n));
  }
  v.resize(n);
}

// The input to build the next version into: the retired one the spare slot
// handed back, else a fresh one. A session never changes kind.
template <typename In>
In& recycled(std::unique_ptr<problem_input>& node) {
  if (node == nullptr) node = std::make_unique<problem_input>(In{});
  return std::get<In>(*node);
}

// Version 0's CSR in one pass over the input's. from_edges sorts each
// vertex's run by target but does not dedup, so duplicate (u, v) pairs
// resolve min-weight-wins here — deterministic under any input edge order,
// and distance-preserving for SSSP (relaxation only ever uses the cheapest
// parallel edge).
wgraph dedup_min_weight(const wgraph& g) {
  const vertex_t n = g.num_vertices();
  std::vector<size_t> offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<vertex_t> adj;
  std::vector<uint32_t> wts;
  adj.reserve(with_headroom(g.num_edges()));
  wts.reserve(with_headroom(g.num_edges()));
  for (vertex_t u = 0; u < n; ++u) {
    offsets[u] = adj.size();
    auto nbrs = g.out_neighbors(u);
    auto ws = g.out_weights(u);
    assert(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (adj.size() > offsets[u] && adj.back() == nbrs[i]) {
        wts.back() = std::min(wts.back(), ws[i]);
      } else {
        adj.push_back(nbrs[i]);
        wts.push_back(ws[i]);
      }
    }
  }
  offsets[n] = adj.size();
  return wgraph::from_csr(n, std::move(offsets), std::move(adj), std::move(wts));
}

fingerprint edges_acc(const wgraph& g) {
  fingerprint acc{};
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = g.out_neighbors(u);
    auto ws = g.out_weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i)
      acc = fp_xor(acc, hash_edge(edge_key(u, nbrs[i]), ws[i]));
  }
  return acc;
}

// g's weight on (u, v), if the edge exists: a binary search in u's run,
// which is sorted by target and deduplicated.
std::optional<uint32_t> weight_of(const wgraph& g, vertex_t u, vertex_t v) {
  auto nbrs = g.out_neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return std::nullopt;
  return g.out_weights(u)[static_cast<size_t>(it - nbrs.begin())];
}

size_t elems_of(const problem_input& in) {
  if (const auto* s = std::get_if<sssp_input>(&in)) return s->g.num_edges();
  return std::get<sequence_input>(in).a.size();
}

}  // namespace

void write_fields(json::writer& w, const session_desc& r) {
  PP_WRITE_FIELDS(PP_SESSION_DESC_FIELDS)
}

std::string to_json(const session_desc& d) { return json::writer().value(d).str(); }

// ---- session_table ----------------------------------------------------------

std::shared_ptr<const problem_input> session_table::spare_slot::adopt(
    const std::shared_ptr<spare_slot>& slot, std::unique_ptr<problem_input> in) {
  // Runs on whichever thread drops the last pin. The refcount orders every
  // reader's last access before it, and the slot's mutex orders it before
  // the writer's take().
  auto give_back = [home = std::weak_ptr<spare_slot>(slot)](problem_input* p) {
    std::unique_ptr<problem_input> back(p);
    if (auto s = home.lock()) {
      sync::lock_guard<sync::mutex> lk(s->m);
      std::swap(back, s->input);  // an older spare is freed after unlocking
    }
  };
  return std::shared_ptr<const problem_input>(in.release(), std::move(give_back));
}

std::unique_ptr<problem_input> session_table::spare_slot::take() {
  sync::lock_guard<sync::mutex> lk(m);
  return std::move(input);
}

session_table::session_table(size_t max_sessions) : max_sessions_(max_sessions) {}

session_desc session_table::entry::describe_head() const {
  session_desc d;
  d.name = name;
  d.problem = problem;
  d.version = head->version;
  d.fp = head->fp;
  d.elems = elems_of(*head->input);
  d.hints = labels != nullptr;
  return d;
}

session_desc session_table::describe_entry(const entry& e) {
  sync::lock_guard<sync::mutex> lk(e.head_m);
  return e.describe_head();
}

std::shared_ptr<session_table::entry> session_table::find_and_touch(const std::string& name) {
  sync::lock_guard<sync::mutex> lk(m_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) throw session_error("unknown session: " + name);
  it->second->last_touch = ++touch_seq_;
  return it->second;
}

std::shared_ptr<session_table::entry> session_table::find_const(const std::string& name) const {
  sync::lock_guard<sync::mutex> lk(m_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) throw session_error("unknown session: " + name);
  return it->second;
}

session_desc session_table::create(const std::string& name, problem_input base) {
  auto e = std::make_shared<entry>();
  e->name = name;
  auto v = std::make_shared<version_state>();
  v->version = 0;

  if (auto* s = std::get_if<sssp_input>(&base)) {
    e->problem = "sssp";
    const vertex_t n = s->g.num_vertices();
    if (s->source >= n && n > 0) throw session_error("source out of range");
    sssp_input in;
    in.g = dedup_min_weight(s->g);
    in.source = s->source;
    in.delta = s->delta;
    v->elem_acc = edges_acc(in.g);
    v->fp = fp_xor(graph_header(n, in.source, in.delta), v->elem_acc);
    v->input = spare_slot::adopt(e->spare, std::make_unique<problem_input>(std::move(in)));
  } else if (auto* q = std::get_if<sequence_input>(&base)) {
    e->problem = "lis";
    if (!q->weights.empty())
      throw session_error("sequence sessions support unit weights only");
    fingerprint acc{};
    for (size_t i = 0; i < q->a.size(); ++i) acc = fp_xor(acc, hash_elem(i, q->a[i]));
    v->elem_acc = acc;
    v->fp = fp_xor(seq_header(q->a.size()), acc);
    v->input = spare_slot::adopt(e->spare, std::make_unique<problem_input>(std::move(base)));
  } else {
    throw session_error("unsupported session kind (want sssp_input or sequence_input)");
  }

  {
    sync::lock_guard<sync::mutex> hlk(e->head_m);
    e->head = std::move(v);
  }

  sync::lock_guard<sync::mutex> lk(m_);
  if (sessions_.count(name)) throw session_error("session exists: " + name);
  e->last_touch = ++touch_seq_;
  sessions_.emplace(name, e);
  while (max_sessions_ > 0 && sessions_.size() > max_sessions_) {
    // Evict the least-recently-used instance. In-flight solves keep their
    // pinned snapshots alive; only the table's reference goes away.
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it)
      if (victim == sessions_.end() || it->second->last_touch < victim->second->last_touch)
        victim = it;
    sessions_.erase(victim);
    ++evictions_;
  }
  return describe_entry(*e);
}

session_desc session_table::apply(const std::string& name, const session_delta& d) {
  auto e = find_and_touch(name);

  // Single writer per session: the whole version build happens under
  // writer_m without touching head_m, so readers pinning the current head
  // are never behind this work.
  sync::lock_guard<sync::mutex> wlk(e->writer_m);

  std::shared_ptr<const version_state> prev;
  {
    sync::lock_guard<sync::mutex> hlk(e->head_m);
    prev = e->head;
  }

  auto v = std::make_shared<version_state>();
  v->version = prev->version + 1;
  bool invalidate = false;                       // labels stop being upper bounds
  std::vector<wgraph::wedge> fresh_inserts;      // seeds for sssp/incremental

  if (const auto* prev_in = std::get_if<sssp_input>(prev->input.get())) {
    if (!d.append.empty() || !d.update.empty())
      throw session_error("sequence delta on a graph session");
    const wgraph& pg = prev_in->g;
    const vertex_t n = pg.num_vertices();
    vertex_t source = prev_in->source;
    if (d.source) {
      if (*d.source >= n) throw session_error("source out of range");
      if (*d.source != source) invalidate = true;
      source = *d.source;
    }

    // Resolve the delta to one final state per touched key (in-delta order:
    // adds first, then removes; later ops on one key win).
    std::map<uint64_t, std::optional<uint32_t>> ops;
    for (const auto& ae : d.add_edges) {
      if (ae.u >= n || ae.v >= n) throw session_error("edge endpoint out of range");
      if (ae.w == 0) throw session_error("edge weights must be positive");
      ops[edge_key(ae.u, ae.v)] = ae.w;
    }
    for (const auto& re : d.remove_edges) {
      if (re.u >= n || re.v >= n) throw session_error("edge endpoint out of range");
      ops[edge_key(re.u, re.v)] = std::nullopt;
    }

    // Fingerprint updates: each op's old weight is a binary search in the
    // parent's CSR, so resolving k ops costs O(k log m). `m` counts the
    // child's edges.
    fingerprint acc = prev->elem_acc;
    size_t m = pg.num_edges();
    for (auto& [key, nw] : ops) {
      const wgraph::wedge we{static_cast<vertex_t>(key >> 32), static_cast<vertex_t>(key),
                             nw.value_or(0)};
      std::optional<uint32_t> old = weight_of(pg, we.u, we.v);
      if (nw && !old) ++m;
      if (old && !nw) --m;
      if (old) {
        if (nw && *nw == *old) continue;  // no-op add
        acc = fp_xor(acc, hash_edge(key, *old));
        if (nw) {
          acc = fp_xor(acc, hash_edge(key, *nw));
          if (*nw > *old) {
            invalidate = true;  // weight increase: old labels may undershoot
          } else {
            fresh_inserts.push_back(we);
          }
        } else {
          invalidate = true;  // removal: old labels may use the dead edge
        }
      } else {
        if (!nw) continue;  // no-op remove
        acc = fp_xor(acc, hash_edge(key, *nw));
        fresh_inserts.push_back(we);
      }
    }

    // Materialize into a retired version's storage when one has come back.
    // Runs of untouched vertices are copied in bulk, their offsets shifted
    // by a constant; only a touched vertex's run is merged with its ops,
    // element by element. The parent's runs are sorted and deduplicated by
    // construction and the ops are key-ordered, so the child's runs are too.
    std::unique_ptr<problem_input> node = e->spare->take();
    sssp_input& in = recycled<sssp_input>(node);
    std::vector<size_t> offsets;
    std::vector<vertex_t> adj;
    std::vector<uint32_t> wts;
    std::move(in.g).release(offsets, adj, wts);
    fit(offsets, static_cast<size_t>(n) + 1);
    fit(adj, m);
    fit(wts, m);
    const auto po = pg.offsets();
    const auto pa = pg.adj();
    const auto pw = pg.wts();
    size_t out = 0;  // the next child slot
    auto emit = [&](size_t from, size_t to) {  // parent slots [from, to)
      std::copy(pa.begin() + from, pa.begin() + to, adj.begin() + out);
      std::copy(pw.begin() + from, pw.begin() + to, wts.begin() + out);
      out += to - from;
    };
    auto copy_runs = [&](vertex_t lo, vertex_t hi) {  // untouched vertices [lo, hi)
      for (vertex_t x = lo; x < hi; ++x) offsets[x] = po[x] - po[lo] + out;
      emit(po[lo], po[hi]);
    };
    vertex_t next = 0;  // the first vertex whose run is not written yet
    for (auto oit = ops.begin(); oit != ops.end();) {
      const auto u = static_cast<vertex_t>(oit->first >> 32);
      copy_runs(next, u);
      offsets[u] = out;
      size_t i = po[u];
      for (; oit != ops.end() && (oit->first >> 32) == u; ++oit) {
        const auto t = static_cast<vertex_t>(oit->first);
        const size_t j = static_cast<size_t>(
            std::lower_bound(pa.begin() + i, pa.begin() + po[u + 1], t) - pa.begin());
        emit(i, j);
        i = (j < po[u + 1] && pa[j] == t) ? j + 1 : j;  // the op replaces a parent edge
        if (oit->second) {  // insert or reweight; removals emit nothing
          adj[out] = t;
          wts[out] = *oit->second;
          ++out;
        }
      }
      emit(i, po[u + 1]);
      next = u + 1;
    }
    copy_runs(next, n);
    offsets[n] = out;
    assert(out == m);

    in.g = wgraph::from_csr(n, std::move(offsets), std::move(adj), std::move(wts));
    in.source = source;
    in.delta = prev_in->delta;
    v->elem_acc = acc;
    v->fp = fp_xor(graph_header(n, source, in.delta), acc);
    v->input = spare_slot::adopt(e->spare, std::move(node));
  } else {
    if (!d.add_edges.empty() || !d.remove_edges.empty() || d.source)
      throw session_error("graph delta on a sequence session");
    const auto& prev_seq = std::get<sequence_input>(*prev->input);
    const size_t len = prev_seq.a.size();
    for (const auto& up : d.update)
      if (up.index >= len) throw session_error("update index out of range");

    // Copy-on-write per version, into a retired version's storage when one
    // has come back.
    std::unique_ptr<problem_input> node = e->spare->take();
    sequence_input& next = recycled<sequence_input>(node);
    fit(next.a, len + d.append.size());
    std::copy(prev_seq.a.begin(), prev_seq.a.end(), next.a.begin());
    fingerprint acc = prev->elem_acc;
    for (const auto& up : d.update) {
      if (next.a[up.index] == up.value) continue;
      acc = fp_xor(acc, hash_elem(up.index, next.a[up.index]));
      acc = fp_xor(acc, hash_elem(up.index, up.value));
      next.a[up.index] = up.value;
    }
    for (size_t j = 0; j < d.append.size(); ++j) {
      acc = fp_xor(acc, hash_elem(len + j, d.append[j]));
      next.a[len + j] = d.append[j];
    }
    v->elem_acc = acc;
    v->fp = fp_xor(seq_header(next.a.size()), acc);
    v->input = spare_slot::adopt(e->spare, std::move(node));
  }

  // Install v+1 and maintain the incremental-label state. Short section:
  // readers copying the old head concurrently are unaffected.
  sync::lock_guard<sync::mutex> hlk(e->head_m);
  e->head = std::move(v);
  if (invalidate) {
    e->labels = nullptr;
    e->inserted_since = nullptr;
  } else if (e->labels && !fresh_inserts.empty()) {
    auto grown = e->inserted_since
                     ? std::make_shared<std::vector<wgraph::wedge>>(*e->inserted_since)
                     : std::make_shared<std::vector<wgraph::wedge>>();
    grown->insert(grown->end(), fresh_inserts.begin(), fresh_inserts.end());
    e->inserted_since = std::move(grown);
  }
  return e->describe_head();
}

snapshot_input session_table::snapshot(const std::string& name, session_desc* pinned) {
  auto e = find_and_touch(name);
  snapshot_input s;
  sync::lock_guard<sync::mutex> lk(e->head_m);
  s.base = e->head->input;
  s.version = e->head->version;
  s.fp = e->head->fp;
  if (e->labels) {  // only graph sessions take labels (note_solve)
    s.prior_dist = e->labels;
    s.inserted_edges = e->inserted_since;  // null when labels are current
  }
  if (pinned != nullptr) *pinned = e->describe_head();
  return s;
}

session_desc session_table::describe(const std::string& name) const {
  return describe_entry(*find_const(name));
}

bool session_table::drop(const std::string& name) {
  sync::lock_guard<sync::mutex> lk(m_);
  return sessions_.erase(name) > 0;
}

void session_table::note_solve(const std::string& name, uint64_t version,
                               const std::vector<int64_t>& dist) {
  std::shared_ptr<entry> e;
  try {
    e = find_const(name);
  } catch (const session_error&) {
    return;  // dropped/evicted while the solve ran — nothing to improve
  }
  // The copy is built before head_m is taken, and whatever labels it
  // replaces are freed after head_m is released (both are declared before
  // the lock, so they outlive it).
  std::shared_ptr<const std::vector<int64_t>> labels =
      std::make_shared<const std::vector<int64_t>>(dist);
  std::shared_ptr<const std::vector<wgraph::wedge>> seeds;
  sync::lock_guard<sync::mutex> lk(e->head_m);
  const auto* head = std::get_if<sssp_input>(e->head->input.get());
  if (head == nullptr || dist.size() != head->g.num_vertices()) return;
  if (e->labels && version <= e->labels_version) return;  // stale solve
  if (version == e->head->version) {
    // Labels are exact for the head: restart the insertion accumulator.
    std::swap(e->labels, labels);
    e->labels_version = version;
    std::swap(e->inserted_since, seeds);
  } else if (e->labels && e->labels_version <= version) {
    // Labels for an older pinned version. Accept only when the existing
    // accumulator already covers labels_version -> head: it is then a
    // superset of version -> head, and superset seeds are harmless
    // (re-relaxing an edge already in g is a no-op). No invalidating delta
    // intervened, else labels would be null or newer.
    std::swap(e->labels, labels);
    e->labels_version = version;
  }
}

size_t session_table::size() const {
  sync::lock_guard<sync::mutex> lk(m_);
  return sessions_.size();
}

uint64_t session_table::evictions() const {
  sync::lock_guard<sync::mutex> lk(m_);
  return evictions_;
}

std::vector<session_desc> session_table::list() const {
  std::vector<std::shared_ptr<entry>> es;
  {
    sync::lock_guard<sync::mutex> lk(m_);
    es.reserve(sessions_.size());
    for (const auto& [name, e] : sessions_) es.push_back(e);
  }
  std::vector<session_desc> out;
  out.reserve(es.size());
  for (const auto& e : es) out.push_back(describe_entry(*e));
  return out;
}

}  // namespace pp::serve
