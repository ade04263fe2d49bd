// Registration and Prometheus rendering of the catalog that PP_METRICS
// lists in core/metrics.h.
#include "core/metrics.h"

#include <cstdio>

namespace pp::metrics {

catalog::catalog() {
#define PP_ADD_SERVE_COUNTER(type, name, ...) add(serve_##name);
#define PP_ADD_METRIC(kind, name, ...) add(name);
  PP_METRICS(PP_ADD_SERVE_COUNTER, PP_ADD_METRIC)
#undef PP_ADD_SERVE_COUNTER
#undef PP_ADD_METRIC
}

catalog& catalog::get() {
  // Leaked: emission points may fire from detached threads during
  // process teardown, after static destructors.
  static catalog* c = new catalog;
  return *c;
}

namespace {

void append_u64(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void header(std::string& out, const char* name, const char* help, const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string render_prometheus() {
  const catalog& c = catalog::get();
  std::string out;
  out.reserve(4096);
  for (const counter* m : c.counters()) {
    header(out, m->name(), m->help(), "counter");
    out += m->name();
    out += ' ';
    append_u64(out, m->value());
    out += '\n';
  }
  for (const gauge* m : c.gauges()) {
    header(out, m->name(), m->help(), "gauge");
    out += m->name();
    out += ' ';
    append_i64(out, m->value());
    out += '\n';
  }
  for (const histogram* m : c.histograms()) {
    header(out, m->name(), m->help(), "histogram");
    uint64_t cum = 0;
    for (int i = 0; i < histogram::kFiniteBuckets; ++i) {
      cum += m->bucket(i);
      out += m->name();
      out += "_bucket{le=\"";
      append_u64(out, uint64_t{1} << i);
      out += "\"} ";
      append_u64(out, cum);
      out += '\n';
    }
    cum += m->bucket(histogram::kFiniteBuckets);
    out += m->name();
    out += "_bucket{le=\"+Inf\"} ";
    append_u64(out, cum);
    out += '\n';
    out += m->name();
    out += "_sum ";
    append_u64(out, m->sum());
    out += '\n';
    out += m->name();
    out += "_count ";
    append_u64(out, cum);
    out += '\n';
  }
  return out;
}

void reset_for_tests() {
  catalog& c = catalog::get();
  for (counter* m : c.counters()) m->reset();
  for (gauge* m : c.gauges()) m->reset();
  for (histogram* m : c.histograms()) m->reset();
}

}  // namespace pp::metrics
