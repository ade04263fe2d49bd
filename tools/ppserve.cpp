// ppserve: JSON serving daemon over pp::serve::engine.
//
// Speaks newline-delimited JSON: one response line per request line, in
// request order per connection. The protocol (request and response
// fields, session verbs) is pp::serve::connection in src/serve/protocol.h;
// this file holds only flag parsing and the transports around it.
//
//   $ echo '{"solver":"lis/parallel","n":20000,"seed":3}' | ppserve
//   {"id": 0, "ok": true, "cached": false, "result": {"solver": "lis/parallel", ...}}
//
// Modes:
//   default       serve stdin, write stdout, exit at EOF
//   --port P      additionally accept TCP connections on P (NDJSON, one
//                 engine shared by all connections). Stdin EOF does NOT
//                 end the process in this mode: the daemon keeps serving
//                 TCP until it is killed, so  ppserve --port P < /dev/null
//                 runs a TCP-only server.
//   --metrics-port P
//                 loopback HTTP scrape endpoint: GET /metrics answers 200
//                 with the Prometheus text rendering of the pp::metrics
//                 registry; any other request answers 404. One request per
//                 connection (Connection: close).
//   --trace-dir DIR
//                 enable the in-process tracer (core/trace.h) and, as each
//                 response line is written, dump a Chrome trace-event JSON
//                 snapshot to DIR/<id>.json (id sanitized to
//                 [A-Za-z0-9._-]; later requests with the same id
//                 overwrite). Each file is the tracer's ring-buffer
//                 content at response time — in a concurrent daemon it
//                 shows the server timeline around that request, not that
//                 request alone. Load in Perfetto / chrome://tracing.
//
// Engine knobs: --max-inflight R, --workers-per-run W, --batch-window-us U,
// --max-batch K, --queue N, --backend B, --seed S (base of the anonymous
// request seeds), --relax-k K (k-MultiQueue relaxation factor for
// relaxed-paradigm solvers), --cache-entries N (result-cache capacity,
// default 256), --cache-off (disable the result cache; in-flight dedup
// stays on). Request bounds: --max-n N (largest accepted "n", default
// 10000000), --max-sessions N (session-table size, default 64; creating
// instance N+1 evicts the least-recently-used one).
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>

#include "cli_flags.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/session.h"

#if defined(__unix__) || defined(__APPLE__)
#define PPSERVE_HAS_TCP 1
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define PPSERVE_HAS_TCP 0
#endif

namespace {

struct daemon_options {
  pp::serve::engine_options eng;
  int port = -1;          // -1 = stdin/stdout only
  int metrics_port = -1;  // -1 = no HTTP scrape endpoint
  std::string trace_dir;  // empty = tracer off
  // Largest accepted request "n". The input factories allocate O(n) (the
  // graph ones ~8n edges); without a cap one request line could ask for
  // hundreds of GB and get the daemon OOM-killed instead of answering
  // "ok": false.
  size_t max_n = 10'000'000;
  // Session-table bound: creating instance N+1 evicts the LRU one.
  size_t max_sessions = 64;
};

// Request ids become trace file names; ids are client-controlled raw JSON
// text, so strip the quotes of string ids and reduce to [A-Za-z0-9._-]
// (no separators, no traversal, no dotfiles).
std::string sanitize_id(std::string id) {
  if (id.size() >= 2 && id.front() == '"' && id.back() == '"')
    id = id.substr(1, id.size() - 2);
  if (id.empty()) id = "request";
  if (id.size() > 80) id.resize(80);
  for (char& c : id)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' && c != '_' && c != '.')
      c = '_';
  if (id[0] == '.') id[0] = '_';
  return id;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--metrics-port P] [--trace-dir DIR]\n"
               "          [--max-inflight R] [--workers-per-run W]\n"
               "          [--batch-window-us U] [--max-batch K] [--queue N]\n"
               "          [--backend native|sequential] [--seed S] [--max-n N]\n"
               "          [--relax-k K] [--cache-entries N] [--cache-off]\n"
               "          [--max-sessions N]\n"
               "reads newline-delimited JSON requests on stdin (and TCP port P),\n"
               "writes one JSON response line per request.\n",
               argv0);
  return 2;
}

// One connection's transport: a reader loop feeding `in` to a
// pp::serve::connection, and a writer thread printing its responses to
// `out` as each lands (plus the --trace-dir dump).
void serve_stream(pp::serve::engine& eng, pp::serve::session_table& tab,
                  const daemon_options& opt, FILE* in, FILE* out) {
  pp::serve::connection conn(eng, tab, opt.max_n);
  std::thread writer([&] {
    while (auto r = conn.next()) {
      std::fprintf(out, "%s\n", r->line.c_str());
      std::fflush(out);
      if (!opt.trace_dir.empty())
        pp::trace::write_chrome_json(opt.trace_dir + "/" + sanitize_id(r->id) + ".json");
    }
  });
  std::string line;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') {
      conn.feed_line(line);
      line.clear();
    } else {
      line += static_cast<char>(c);
    }
  }
  if (!line.empty()) conn.feed_line(line);
  conn.finish();
  writer.join();
}

#if PPSERVE_HAS_TCP
// Listen on 127.0.0.1:`port` and hand each accepted client fd to
// `on_client`, which then owns it.
void accept_loop(int port, const char* what, const std::function<void(int)>& on_client) {
  // A client that disconnects before reading its response must not kill
  // the daemon: writes to its closed socket should fail with EPIPE, not
  // raise SIGPIPE (default disposition: terminate the whole process).
  std::signal(SIGPIPE, SIG_IGN);
  auto fail = [what](const char* op) {
    std::fprintf(stderr, "ppserve: %s %s: %s\n", what, op, std::strerror(errno));
  };
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    fail("socket");
    return;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    fail("bind/listen");
    ::close(fd);
    return;
  }
  std::fprintf(stderr, "ppserve: %s on 127.0.0.1:%d\n", what, port);
  for (;;) {
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      // Transient failures (fd exhaustion under a connection burst, a
      // connection aborted before accept, a signal) must not permanently
      // kill a surface of an otherwise healthy daemon.
      if (errno == EINTR || errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) {
        fail("accept (transient)");
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      fail("accept");
      break;
    }
    on_client(client);
  }
  ::close(fd);
}

// One NDJSON client on its own thread. Every fd has exactly one owner on
// every path: a failed fdopen must not strand `client` (or the dup) open,
// or fd exhaustion becomes permanent instead of transient.
void serve_tcp_client(pp::serve::engine& eng, pp::serve::session_table& tab,
                      const daemon_options& opt, int client) {
  FILE* in = ::fdopen(client, "r");
  if (in == nullptr) {
    ::close(client);
    return;
  }
  int wfd = ::dup(client);
  FILE* out = wfd >= 0 ? ::fdopen(wfd, "w") : nullptr;
  if (out == nullptr) {
    if (wfd >= 0) ::close(wfd);
    std::fclose(in);
    return;
  }
  serve_stream(eng, tab, opt, in, out);
  std::fclose(in);
  std::fclose(out);
}

// Minimal HTTP/1.0 scrape: GET /metrics -> 200 with the Prometheus text
// rendering, anything else -> 404. Served on the accept thread, one
// request per connection: a scrape is a few KB of formatting, and
// Prometheus polls on the order of seconds.
void answer_scrape(int client) {
  // The request line fits in one read for any real scraper; everything
  // past it (headers) is irrelevant to routing.
  char buf[2048];
  ssize_t got = ::recv(client, buf, sizeof(buf) - 1, 0);
  std::string head(buf, got > 0 ? static_cast<size_t>(got) : 0);
  bool found = head.rfind("GET /metrics", 0) == 0;
  std::string body = found ? pp::metrics::render_prometheus() : "not found\n";
  char hdr[256];
  std::snprintf(hdr, sizeof(hdr),
                "HTTP/1.0 %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                found ? "200 OK" : "404 Not Found",
                found ? "text/plain; version=0.0.4; charset=utf-8" : "text/plain",
                body.size());
  (void)::send(client, hdr, std::strlen(hdr), 0);
  (void)::send(client, body.data(), body.size(), 0);
  ::close(client);
}
#endif

}  // namespace

int main(int argc, char** argv) {
  daemon_options opt;
  opt.eng.ctx = pp::default_context();
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      opt.port = static_cast<int>(parse_int(argv[0], "--port", need("--port"), 1, 65535));
    } else if (std::strcmp(argv[i], "--metrics-port") == 0) {
      opt.metrics_port = static_cast<int>(
          parse_int(argv[0], "--metrics-port", need("--metrics-port"), 1, 65535));
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      opt.trace_dir = need("--trace-dir");
      if (opt.trace_dir.empty()) {
        std::fprintf(stderr, "%s: --trace-dir needs a non-empty directory\n", argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-inflight") == 0) {
      // 0 is clamped to one executor HERE, visibly, instead of relying on
      // the engine constructor's silent fixup.
      long long v = parse_int(argv[0], "--max-inflight", need("--max-inflight"), 0,
                              std::numeric_limits<unsigned>::max());
      if (v == 0) {
        std::fprintf(stderr, "%s: --max-inflight 0 clamped to 1 (at least one executor)\n",
                     argv[0]);
        v = 1;
      }
      opt.eng.max_inflight_runs = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--workers-per-run") == 0) {
      // 0 keeps the engine's "partition the machine evenly" default.
      opt.eng.workers_per_run = static_cast<unsigned>(
          parse_int(argv[0], "--workers-per-run", need("--workers-per-run"), 0,
                    std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(argv[i], "--batch-window-us") == 0) {
      // 0 = flush immediately (valid); negative windows are nonsense.
      opt.eng.batch_window = std::chrono::microseconds(parse_int(
          argv[0], "--batch-window-us", need("--batch-window-us"), 0, 60'000'000));
    } else if (std::strcmp(argv[i], "--max-batch") == 0) {
      opt.eng.max_batch = static_cast<size_t>(
          parse_int(argv[0], "--max-batch", need("--max-batch"), 1, 1'000'000));
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      opt.eng.queue_capacity = static_cast<size_t>(
          parse_int(argv[0], "--queue", need("--queue"), 1, 100'000'000));
    } else if (std::strcmp(argv[i], "--cache-entries") == 0) {
      // Minimum 1: "0 entries" is spelled --cache-off, so a negative or
      // zero count here is a mistake, not a disable request.
      opt.eng.cache_entries = static_cast<size_t>(
          parse_int(argv[0], "--cache-entries", need("--cache-entries"), 1, 100'000'000));
    } else if (std::strcmp(argv[i], "--cache-off") == 0) {
      opt.eng.cache_entries = 0;  // dedup of in-flight duplicates stays on
    } else if (std::strcmp(argv[i], "--max-sessions") == 0) {
      // Minimum 1: a session-less daemon is the default behavior already,
      // and 0 would mean "every create immediately evicts itself".
      opt.max_sessions = static_cast<size_t>(
          parse_int(argv[0], "--max-sessions", need("--max-sessions"), 1, 1'000'000));
    } else if (std::strcmp(argv[i], "--max-n") == 0) {
      opt.max_n = static_cast<size_t>(parse_int(argv[0], "--max-n", need("--max-n"), 1,
                                                std::numeric_limits<long long>::max()));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.eng.ctx.seed = parse_u64(argv[0], "--seed", need("--seed"));
    } else if (std::strcmp(argv[i], "--relax-k") == 0) {
      // k-MultiQueue relaxation factor for relaxed-paradigm solvers; phase
      // and sequential solvers ignore it. Zero shards is nonsense -> min 1.
      opt.eng.ctx.relax_k = static_cast<unsigned>(
          parse_int(argv[0], "--relax-k", need("--relax-k"), 1,
                    std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      const char* b = need("--backend");
      auto kind = pp::parse_backend(b);
      if (!kind) {
        std::fprintf(stderr, "%s: unknown backend '%s'\n", argv[0], b);
        return 2;
      }
      opt.eng.ctx.backend = *kind;
    } else {
      return usage(argv[0]);
    }
  }

  if (!opt.trace_dir.empty()) pp::trace::set_enabled(true);
  pp::serve::engine eng(opt.eng);
  pp::serve::session_table tab(opt.max_sessions);

#if PPSERVE_HAS_TCP
  std::thread tcp;
  if (opt.port >= 0) {
    tcp = std::thread([&] {
      accept_loop(opt.port, "requests", [&](int client) {
        std::thread([&eng, &tab, &opt, client] { serve_tcp_client(eng, tab, opt, client); })
            .detach();
      });
    });
  }
  // Detached: the scrape endpoint reads process-wide metrics only, and the
  // daemon must still exit at stdin EOF when --port was not given.
  if (opt.metrics_port >= 0)
    std::thread([p = opt.metrics_port] { accept_loop(p, "metrics", answer_scrape); }).detach();
#else
  if (opt.port >= 0 || opt.metrics_port >= 0) {
    std::fprintf(stderr, "%s: --port/--metrics-port not supported on this platform\n", argv[0]);
    return 2;
  }
#endif

  serve_stream(eng, tab, opt, stdin, stdout);

#if PPSERVE_HAS_TCP
  if (tcp.joinable()) {
    // stdin closed: a TCP-mode daemon keeps serving until killed.
    tcp.join();
  }
#endif
  eng.stop(/*drain=*/true);
  return 0;
}
