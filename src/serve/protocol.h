// ppserve's wire protocol as a library: a pp::serve::connection turns
// newline-delimited JSON request lines into response lines, in request
// order. Transports (stdin/stdout, TCP, ...) are thin loops around it: a
// reader calls feed_line() per line and finish() at end of input, and a
// writer thread calls next() until it returns nullopt.
//
//   pp::serve::connection c(eng, sessions, /*max_n=*/10'000'000);
//   std::thread writer([&] { while (auto r = c.next()) puts(r->line.c_str()); });
//   while (read(line)) c.feed_line(line);
//   c.finish();
//   writer.join();
//
// The reader parses and submits, so pipelined lines coalesce in the
// engine; the writer waits on each response in turn, so an interactive
// client still gets each response as soon as its batch lands.
//
//   $ echo '{"solver":"lis/parallel","n":20000,"seed":3}' | ppserve
//   {"id": 0, "ok": true, "cached": false, "result": {"solver": "lis/parallel", ...}}
//
// Request fields:
//   solver       (required unless "stats"/"metrics"/"session") registry
//                name, e.g. "lis/parallel"
//   n            input size for the problem's default factory (default
//                20000, must be in [1, max_n] — the cap keeps one greedy
//                request line from OOMing the daemon)
//   seed         execution + input seed; omitted = derive_seed(base, k) for
//                the k-th anonymous request ENGINE-wide (the engine's
//                admission counter, shared by every connection) — so an
//                anonymous stream is reproducible from the base seed alone
//                and two concurrent connections can never collide on a seed
//   id           echoed back verbatim, whatever its JSON type (default: the
//                request's position among this connection's non-blank lines)
//   deadline_ms  integer in [1, 86400000]; the request expires this many ms
//                after it is parsed. Expired-while-queued requests resolve
//                with an "expired" error without taking a pool lease; a
//                deadline blown mid-run cancels the solve at the next phase
//                boundary ("cancelled" error)
//   priority     "interactive" (default) or "batch": interactive requests
//                pop first and batch requests never share their flushes
//   stats        true: respond with the engine_stats counters (submitted /
//                completed / failed / expired / cancelled / batches / ...)
//                instead of running a solver
//   metrics      true: respond with the process-wide pp::metrics registry
//                rendered in Prometheus text exposition format, carried as
//                a JSON string member "metrics"
//
// Response fields: id, ok, and either "result" (the run_result envelope
// pp::to_json emits), "stats", "metrics", "session" or "error". Solver
// responses also carry "cached": true when the engine answered from its
// result cache (a repeat (solver, input-fingerprint, seed) triple — zero
// pool leases), false when the solve actually executed. A malformed line
// answers "ok": false with an error naming the offending field; it never
// ends the stream.
//
// Stateful sessions (src/serve/session.h): a "session" member selects a
// verb instead of the one-shot solver path. All verbs answer with a
// "session" object ({name, problem, version, fingerprint, elems, hints} —
// pp::serve::to_json(session_desc); drop answers {name, dropped}):
//
//   {"session":"create","name":"g","problem":"sssp","n":200000,"seed":7}
//       build the problem's default instance and register it at version 0
//       ("sssp" and "lis" instances are session-able)
//   {"session":"delta","name":"g","add_edges":[[u,v,w],...],
//    "remove_edges":[[u,v],...],"source":S,"append":[x,...],
//    "update":[[i,x],...]}
//       apply one atomic delta, installing version v+1 (graph fields on
//       sssp sessions, append/update on lis sessions). In-flight solves
//       keep reading the version they pinned.
//   {"session":"solve","name":"g","solver":"sssp/incremental", ...}
//       solve the CURRENT version (seed / deadline_ms / priority as for a
//       one-shot solve) and report the version it pinned: the solve reads
//       that version even when later deltas land while it is queued. The
//       engine may run a connection's solves in any order; the connection
//       hands out their replies, and feeds an ok sssp solve's distances
//       back as incremental labels for later sssp/incremental solves, in
//       request order.
//   {"session":"drop","name":"g"}
//       forget the instance ("dropped": false when the name was unknown)
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "core/annotations.h"
#include "core/json.h"
#include "serve/engine.h"
#include "serve/session.h"

namespace pp::serve {

class connection {
 public:
  // `max_n` caps a request's "n" (and a session create's): the input
  // factories allocate O(n), so without a cap one request line could ask
  // for hundreds of GB.
  connection(engine& eng, session_table& sessions, size_t max_n);

  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  // Reader side: parse one request line and queue its response. Blank
  // lines are ignored and consume no default id.
  void feed_line(std::string_view line);
  // Reader side: no more lines; next() returns nullopt once drained.
  void finish();

  struct reply {
    std::string id;    // the request id as raw JSON text
    std::string line;  // the response line, without the newline
  };
  // Writer side: block until the next response in request order is
  // ready; nullopt after finish() once every response was handed out.
  std::optional<reply> next();

 private:
  // A solve in flight. A session solve also carries what it pinned: the
  // response's "session" member and, for the label feedback, the version.
  struct pending {
    std::future<response> fut;
    std::string session;  // empty = one-shot solve
    uint64_t version = 0;
    std::string session_json;
  };
  // A response body: its finished line, or a solve still in flight.
  using body = std::variant<std::string, pending>;
  struct entry {
    std::string id;  // raw JSON text
    body out;
  };

  body answer(const std::string& id, const json::value& doc);
  body session_verb(const std::string& id, const std::string& verb, const json::value& doc);
  request run_fields(const json::value& doc);
  uint64_t seed_of(const json::value& doc);
  size_t n_of(const json::value& doc) const;
  std::string finish_solve(const std::string& id, pending& p);

  engine& eng_;
  session_table& tab_;
  const size_t max_n_;
  uint64_t index_ = 0;  // reader side only
  sync::mutex m_;
  std::condition_variable_any cv_;
  std::deque<entry> out_ PP_GUARDED_BY(m_);
  bool done_ PP_GUARDED_BY(m_) = false;
};

}  // namespace pp::serve
