// Strict numeric command-line flags for the tools. A bare strtoull/atoi
// reads "abc" as 0 and wraps "-3" into a huge unsigned value, so a typo
// silently runs a different computation (or an effectively unbounded
// queue); these reject junk, overflow and out-of-range values with a
// usage error (exit 2) instead.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

// A decimal integer in [min_v, max_v].
inline long long parse_int(const char* argv0, const char* flag, const char* text, long long min_v,
                           long long max_v) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min_v || v > max_v) {
    std::fprintf(stderr, "%s: %s expects an integer in [%lld, %lld], got '%s'\n", argv0, flag,
                 min_v, max_v, text);
    std::exit(2);
  }
  return v;
}

// A full-range uint64 (seeds), with the same junk rejection.
inline uint64_t parse_u64(const char* argv0, const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = *text == '-' ? 0 : std::strtoull(text, &end, 10);
  if (*text == '-' || end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got '%s'\n", argv0, flag, text);
    std::exit(2);
  }
  return static_cast<uint64_t>(v);
}

// A finite decimal number (durations).
inline double parse_double(const char* argv0, const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    std::fprintf(stderr, "%s: %s expects a number, got '%s'\n", argv0, flag, text);
    std::exit(2);
  }
  return v;
}
