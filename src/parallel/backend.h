// Parallel backend kinds.
//
// The paper's computational model is the binary-forking model (Sec. 2): a
// thread may fork two children and is suspended until both finish. The
// native backend implements this directly with a work-stealing scheduler
// (scheduler.h); the sequential backend runs everything serially (useful
// for debugging, as the 1-thread baseline when measuring self-speedup, and
// as the reference the cross-backend checks compare against).
//
// Which backend a computation uses is carried by pp::context
// (core/context.h); this header only defines the enumeration and its
// string names so it can be included anywhere without pulling in the
// context machinery.
//
// Worker-count semantics per backend (see pp::num_workers in
// parallel/api.h): `context::workers` is the width the run executes on.
// 0 means "backend default" — PP_THREADS, else the hardware concurrency,
// for the native backend (resolve_native_workers in parallel/scheduler.h).
// The sequential backend is always 1.
// On the native backend each width gets its own work-stealing pool from a
// process-wide pool cache, so the request is honored exactly rather than
// clamped to a first-use singleton.
#pragma once

#include <optional>
#include <string_view>

namespace pp {

enum class backend_kind {
  native,      // built-in work-stealing scheduler (default)
  sequential,  // serial execution of every fork
};

inline std::string_view backend_name(backend_kind b) {
  switch (b) {
    case backend_kind::native: return "native";
    case backend_kind::sequential: return "sequential";
  }
  return "unknown";
}

// Parse a backend name ("native", "sequential"; "seq" accepted as
// shorthand). Used by the CLI driver and env-var plumbing.
inline std::optional<backend_kind> parse_backend(std::string_view s) {
  if (s == "native") return backend_kind::native;
  if (s == "sequential" || s == "seq") return backend_kind::sequential;
  return std::nullopt;
}

}  // namespace pp
