#include "serve/protocol.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/registry.h"

namespace pp::serve {
namespace {

constexpr size_t kDefaultN = 20'000;
// Capped at 24h: a larger value would overflow the ms -> steady_clock (ns)
// conversion into a time_point in the past.
constexpr int64_t kMaxDeadlineMs = 86'400'000;
constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();

// A request the protocol refuses; the message becomes its "error" member.
struct bad_request : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string quoted(std::string_view key) { return std::string("\"").append(key).append("\""); }

// `v` as an integer in [lo, hi] (uint64 values above the int64 range
// compare as its max). Wrong types are errors, not silent fallbacks or
// truncation: a client that sent {"n": "500000"} or {"n": 2000.7} must not
// get an ok result for a different computation than it asked for.
int64_t checked_int(const json::value& v, const std::string& what, int64_t lo = kIntMin,
                    int64_t hi = kIntMax) {
  const double* d = std::get_if<double>(&v.raw());
  bool integral = d != nullptr ? std::isfinite(*d) && *d == std::floor(*d) : v.is_number();
  if (!integral || v.as_int64() < lo || v.as_int64() > hi) {
    std::string range = lo == kIntMin && hi == kIntMax
                            ? ""
                            : " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    throw bad_request("request " + what + " must be an integer" + range);
  }
  return v.as_int64();
}

// Member `key` of `doc`, checked by checked_int; nullptr when absent.
const json::value* int_member(const json::value& doc, std::string_view key,
                              int64_t lo = kIntMin, int64_t hi = kIntMax) {
  const json::value* v = doc.find(key);
  if (v != nullptr) checked_int(*v, quoted(key), lo, hi);
  return v;
}

// Member `key` as rows of cols.size() integers, column j in cols[j];
// empty when absent.
std::vector<std::array<int64_t, 3>> int_rows(
    const json::value& doc, std::string_view key,
    std::initializer_list<std::pair<int64_t, int64_t>> cols) {
  std::vector<std::array<int64_t, 3>> out;
  const json::value* v = doc.find(key);
  if (v == nullptr) return out;
  const std::string what = quoted(key);
  if (!v->is_array()) throw bad_request("request " + what + " must be an array of arrays");
  for (const auto& row : v->as_array()) {
    if (!row.is_array() || row.as_array().size() != cols.size())
      throw bad_request("request " + what + " entries must be arrays of " +
                        std::to_string(cols.size()) + " integers");
    std::array<int64_t, 3> r{0, 0, 0};
    size_t j = 0;
    for (const auto& [lo, hi] : cols) {
      r[j] = checked_int(row.as_array()[j], what + " cell", lo, hi);
      ++j;
    }
    out.push_back(r);
  }
  return out;
}

// Whether `doc` carries the switch `key`, which must be `true` if present.
bool flag(const json::value& doc, std::string_view key) {
  const json::value* v = doc.find(key);
  if (v == nullptr) return false;
  if (!v->is_bool() || !v->as_bool()) throw bad_request("request " + quoted(key) + " must be true");
  return true;
}

// Re-serialize a parsed JSON value (the verbatim-echo path for request
// ids: numbers, strings, bools, even structured ids survive unchanged).
void write_value(const json::value& v, json::writer& w) {
  if (v.is_null()) {
    w.value_raw("null");
  } else if (v.is_bool()) {
    w.value(v.as_bool());
  } else if (v.is_string()) {
    w.value(v.as_string());
  } else if (v.is_number()) {
    if (const int64_t* i = std::get_if<int64_t>(&v.raw()))
      w.value(*i);
    else if (const uint64_t* u = std::get_if<uint64_t>(&v.raw()))
      w.value(*u);
    else
      w.value(v.as_double());
  } else if (v.is_array()) {
    w.begin_array();
    for (const auto& e : v.as_array()) write_value(e, w);
    w.end_array();
  } else {
    w.begin_object();
    for (const auto& [k, e] : v.as_object()) {
      w.key(k);
      write_value(e, w);
    }
    w.end_object();
  }
}

json::writer response_head(const std::string& id, bool ok) {
  json::writer w;
  w.begin_object();
  w.key("id").value_raw(id);
  w.member("ok", ok);
  return w;
}

std::string error_line(const std::string& id, const std::string& err) {
  json::writer w = response_head(id, false);
  w.member("error", err);
  w.end_object();
  return w.str();
}

// An ok response whose payload is one pre-serialized JSON member.
std::string ok_line(const std::string& id, std::string_view key, std::string_view json_text) {
  json::writer w = response_head(id, true);
  w.key(key).value_raw(json_text);
  w.end_object();
  return w.str();
}

// A delta's rows, every slot type- and range-checked here so the table
// only ever validates semantics (endpoint bounds, kind mismatches).
session_delta delta_of(const json::value& doc) {
  constexpr int64_t kVertMax = std::numeric_limits<vertex_t>::max();
  constexpr int64_t kWeightMax = std::numeric_limits<uint32_t>::max();
  session_delta d;
  for (const auto& r : int_rows(doc, "add_edges", {{0, kVertMax}, {0, kVertMax}, {1, kWeightMax}}))
    d.add_edges.push_back({static_cast<vertex_t>(r[0]), static_cast<vertex_t>(r[1]),
                           static_cast<uint32_t>(r[2])});
  for (const auto& r : int_rows(doc, "remove_edges", {{0, kVertMax}, {0, kVertMax}}))
    d.remove_edges.push_back({static_cast<vertex_t>(r[0]), static_cast<vertex_t>(r[1])});
  if (const json::value* v = int_member(doc, "source", 0, kVertMax))
    d.source = static_cast<vertex_t>(v->as_int64());
  if (const json::value* v = doc.find("append")) {
    if (!v->is_array()) throw bad_request("request \"append\" must be an array of integers");
    for (const auto& cell : v->as_array()) d.append.push_back(checked_int(cell, "\"append\" cell"));
  }
  for (const auto& r : int_rows(doc, "update", {{0, kIntMax}, {kIntMin, kIntMax}}))
    d.update.push_back({static_cast<size_t>(r[0]), r[1]});
  return d;
}

}  // namespace

connection::connection(engine& eng, session_table& sessions, size_t max_n)
    : eng_(eng), tab_(sessions), max_n_(max_n) {}

void connection::feed_line(std::string_view line) {
  if (line.find_first_not_of(" \t\r") == std::string_view::npos) return;
  // The default id is the request's position among real requests, so it
  // is drawn only after the blank-line check.
  entry e{std::to_string(index_++), std::string()};
  try {
    json::value doc;
    std::string err;
    if (!json::parse(line, doc, &err)) throw bad_request("bad request JSON: " + err);
    if (const json::value* v = doc.find("id")) {
      json::writer w;
      write_value(*v, w);
      e.id = w.str();
    }
    e.out = answer(e.id, doc);
  } catch (const std::exception& ex) {
    e.out = error_line(e.id, ex.what());
  }
  {
    sync::lock_guard<sync::mutex> lk(m_);
    out_.push_back(std::move(e));
  }
  cv_.notify_one();
}

void connection::finish() {
  {
    sync::lock_guard<sync::mutex> lk(m_);
    done_ = true;
  }
  cv_.notify_all();
}

std::optional<connection::reply> connection::next() {
  entry e;
  {
    sync::unique_lock<sync::mutex> lk(m_);
    // Loop, not wait(lk, pred): the predicate reads m_-guarded state,
    // which -Wthread-safety only accepts inside the locked scope.
    while (!done_ && out_.empty()) cv_.wait(lk);
    if (out_.empty()) return std::nullopt;
    e = std::move(out_.front());
    out_.pop_front();
  }
  std::string line = std::holds_alternative<pending>(e.out)
                         ? finish_solve(e.id, std::get<pending>(e.out))
                         : std::move(std::get<std::string>(e.out));
  return reply{std::move(e.id), std::move(line)};
}

// Everything but a solve is answered here, at parse time: a stats
// snapshot, for one, reflects exactly the requests read before it.
connection::body connection::answer(const std::string& id, const json::value& doc) {
  if (flag(doc, "stats")) return ok_line(id, "stats", to_json(eng_.stats()));
  if (flag(doc, "metrics")) {
    // Prometheus text is not JSON: it rides as a string member.
    json::writer text;
    text.value(metrics::render_prometheus());
    return ok_line(id, "metrics", text.str());
  }
  if (const json::value* v = doc.find("session")) {
    if (!v->is_string())
      throw bad_request("request \"session\" must be a verb string (create/delta/solve/drop)");
    return session_verb(id, v->as_string(), doc);
  }
  size_t n = n_of(doc);
  request req = run_fields(doc);
  // Input seed = execution seed, the rule ppdriver batch uses. The input
  // is built here, on the reader: factory cost is the client's, solve cost
  // is the server's.
  req.input = registry::instance().make_input(registry::instance().info(req.solver)->problem, n,
                                              *req.seed);
  pending p;
  p.fut = eng_.submit(std::move(req));
  return p;
}

// Session verbs against the shared session_table. create/delta/drop
// answer at once (the table is the source of truth, no solve happens);
// solve pins the current version and rides the normal engine path.
connection::body connection::session_verb(const std::string& id, const std::string& verb,
                                          const json::value& doc) {
  const json::value* nv = doc.find("name");
  if (nv == nullptr || !nv->is_string() || nv->as_string().empty())
    throw bad_request("session requests need a non-empty string \"name\" member");
  const std::string& name = nv->as_string();
  if (verb == "create") {
    std::string problem = "sssp";
    if (const json::value* v = doc.find("problem")) {
      if (!v->is_string()) throw bad_request("request \"problem\" must be a string");
      problem = v->as_string();
    }
    size_t n = n_of(doc);
    problem_input base = registry::instance().make_input(problem, n, seed_of(doc));
    return ok_line(id, "session", to_json(tab_.create(name, std::move(base))));
  }
  if (verb == "delta") return ok_line(id, "session", to_json(tab_.apply(name, delta_of(doc))));
  if (verb == "solve") {
    request req = run_fields(doc);
    // Pin the head: the solve reads THIS version even if deltas land
    // while it is queued, and answers with that version's descriptor,
    // read under the same lock as the pin.
    session_desc desc;
    snapshot_input snap = tab_.snapshot(name, &desc);
    pending p{{}, name, snap.version, to_json(desc)};
    req.input = std::move(snap);
    p.fut = eng_.submit(std::move(req));
    return p;
  }
  if (verb == "drop") {
    json::writer w;
    w.begin_object();
    w.member("name", name);
    w.member("dropped", tab_.drop(name));
    w.end_object();
    return ok_line(id, "session", w.str());
  }
  throw bad_request("unknown session verb '" + verb + "' (want create/delta/solve/drop)");
}

// The run fields one-shot and session solves share. The anonymous seed is
// drawn last, so a refused request never consumes one.
request connection::run_fields(const json::value& doc) {
  request req;
  const json::value* solver = doc.find("solver");
  if (solver == nullptr || !solver->is_string())
    throw bad_request("request needs a string \"solver\" member");
  req.solver = solver->as_string();
  if (registry::instance().info(req.solver) == nullptr)
    throw bad_request("unknown solver '" + req.solver + "'");
  if (const json::value* v = int_member(doc, "deadline_ms", 1, kMaxDeadlineMs))
    req.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(v->as_int64());
  if (const json::value* v = doc.find("priority")) {
    auto p = v->is_string() ? parse_priority(v->as_string()) : std::nullopt;
    if (!p) throw bad_request("request \"priority\" must be \"interactive\" or \"batch\"");
    req.prio = *p;
  }
  req.seed = seed_of(doc);
  return req;
}

// The request's "seed", or the next anonymous one from the engine's
// daemon-wide counter — never this connection's line index, which would
// collide across concurrent connections.
uint64_t connection::seed_of(const json::value& doc) {
  const json::value* v = int_member(doc, "seed");
  return v != nullptr ? v->as_uint64() : eng_.reserve_anonymous_seed();
}

size_t connection::n_of(const json::value& doc) const {
  const int64_t cap = static_cast<int64_t>(std::min<uint64_t>(max_n_, kIntMax));
  const json::value* v = int_member(doc, "n", 1, cap);
  return v != nullptr ? static_cast<size_t>(v->as_int64()) : kDefaultN;
}

std::string connection::finish_solve(const std::string& id, pending& p) {
  response r = p.fut.get();
  json::writer w = response_head(id, r.ok());
  if (r.ok()) {
    // Always present on solver responses, so clients can assert on it
    // without membership checks: true only when the result cache answered.
    w.member("cached", r.cached);
    w.key("result").value_raw(to_json(r.result));
    // Feed exact distances back as incremental labels for the version
    // this solve pinned (the table ignores stale feeds, and a drop or
    // eviction mid-flight is a no-op inside).
    if (const auto* sr = std::get_if<sssp_result>(&r.result.value); sr && !p.session.empty())
      tab_.note_solve(p.session, p.version, sr->dist);
  } else {
    w.member("error", r.error);
  }
  if (!p.session_json.empty()) w.key("session").value_raw(p.session_json);
  w.end_object();
  return w.str();
}

}  // namespace pp::serve
