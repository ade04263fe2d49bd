// Tests for the dependency-free JSON writer + reader (core/json.h):
// string-escaping edge cases (quotes, backslashes, control characters,
// UTF-8 passthrough), non-finite doubles, reader edge cases (\uXXXX
// escapes incl. surrogate pairs, int64 exactness, malformed documents),
// writer -> reader round trips, including a full run_result envelope, and
// the exact bytes of every record the serving surfaces write.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/json.h"
#include "core/registry.h"
#include "serve/engine.h"
#include "serve/session.h"

namespace {

using pp::json::parse;
using pp::json::value;
using pp::json::writer;

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars) {
  writer w;
  w.begin_object();
  w.member("k", "a\"b\\c\x01 \n\t\r\b\f");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"k\": \"a\\\"b\\\\c\\u0001 \\n\\t\\r\\b\\f\"}");
}

TEST(JsonWriter, Utf8PassesThroughUnescaped) {
  writer w;
  w.value(std::string_view("héllo – 世界"));
  EXPECT_EQ(w.str(), "\"héllo – 世界\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  writer w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null, null, null, 1.5]");
}

TEST(JsonWriter, RawValueSplices) {
  writer inner;
  inner.begin_object();
  inner.member("x", int64_t{1});
  inner.end_object();
  writer outer;
  outer.begin_object();
  outer.key("nested").value_raw(inner.str());
  outer.member("y", int64_t{2});
  outer.end_object();
  EXPECT_EQ(outer.str(), "{\"nested\": {\"x\": 1}, \"y\": 2}");
}

TEST(JsonReader, ParsesScalars) {
  value v;
  ASSERT_TRUE(parse("null", v));
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(parse("true", v));
  EXPECT_TRUE(v.as_bool());
  ASSERT_TRUE(parse("false", v));
  EXPECT_FALSE(v.as_bool());
  ASSERT_TRUE(parse("-42", v));
  EXPECT_TRUE(v.is_number());
  EXPECT_EQ(v.as_int64(), -42);
  ASSERT_TRUE(parse("2.5e3", v));
  EXPECT_DOUBLE_EQ(v.as_double(), 2500.0);
  ASSERT_TRUE(parse("\"hi\"", v));
  EXPECT_EQ(v.as_string(), "hi");
}

TEST(JsonReader, Int64Exactness) {
  // Seeds are 64-bit; integral tokens must not round-trip through double.
  value v;
  ASSERT_TRUE(parse("9007199254740993", v));  // 2^53 + 1, not double-representable
  EXPECT_EQ(v.as_int64(), 9007199254740993ll);
  ASSERT_TRUE(parse("-9223372036854775807", v));
  EXPECT_EQ(v.as_int64(), -9223372036854775807ll);
  // The top half of the seed space, [2^63, 2^64), stays exact too — a
  // derive_seed output is uniform over all 64 bits.
  ASSERT_TRUE(parse("18446744073709551615", v));
  EXPECT_EQ(v.as_uint64(), 18446744073709551615ull);
  ASSERT_TRUE(parse("9223372036854775809", v));  // 2^63 + 1
  EXPECT_EQ(v.as_uint64(), 9223372036854775809ull);
  EXPECT_EQ(v.as_int64(), std::numeric_limits<int64_t>::max());  // clamped, not UB
  // Beyond uint64 the token degrades to double (clamped on conversion).
  ASSERT_TRUE(parse("99999999999999999999", v));
  EXPECT_TRUE(v.is_number());
}

TEST(JsonReader, ObjectsAndArrays) {
  value v;
  ASSERT_TRUE(parse(R"({"a": [1, 2, {"b": "c"}], "d": {}, "e": []})", v));
  ASSERT_TRUE(v.is_object());
  const value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[1].as_int64(), 2);
  EXPECT_EQ(a->as_array()[2].find("b")->as_string(), "c");
  EXPECT_TRUE(v.find("d")->is_object());
  EXPECT_TRUE(v.find("e")->is_array());
  EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(JsonReader, DecodesEscapes) {
  value v;
  ASSERT_TRUE(parse(R"("a\"b\\c\/d\n\tA")", v));
  EXPECT_EQ(v.as_string(), "a\"b\\c/d\n\tA");
  // \u escapes decoding to 2-byte (é), 3-byte (世), and — through a
  // surrogate pair — 4-byte (😀 U+1F600) UTF-8.
  ASSERT_TRUE(parse(R"("\u00e9 \u4e16 \ud83d\ude00")", v));
  EXPECT_EQ(v.as_string(), "\xc3\xa9 \xe4\xb8\x96 \xf0\x9f\x98\x80");
}

TEST(JsonReader, Utf8PassthroughSurvives) {
  value v;
  std::string doc = "\"héllo 世界\"";
  ASSERT_TRUE(parse(doc, v));
  EXPECT_EQ(v.as_string(), "héllo 世界");
}

TEST(JsonReader, EnforcesNumberGrammar) {
  // RFC 8259 forbids leading zeros, bare dots, and empty exponents even
  // though strtod would happily consume them.
  value v;
  EXPECT_FALSE(parse("01", v));
  EXPECT_FALSE(parse("-01", v));
  EXPECT_FALSE(parse("1.", v));
  EXPECT_FALSE(parse(".5", v));
  EXPECT_FALSE(parse("-.5", v));
  EXPECT_FALSE(parse("1e", v));
  EXPECT_FALSE(parse("1e+", v));
  EXPECT_TRUE(parse("0", v));
  EXPECT_TRUE(parse("-0", v));
  EXPECT_TRUE(parse("0.5", v));
  EXPECT_TRUE(parse("10", v));
  EXPECT_TRUE(parse("1e-3", v));
}

TEST(JsonReader, Int64ConversionClampsOutOfRangeDoubles) {
  // as_int64 on a huge double must clamp, not hit UB — a daemon request
  // can legally carry {"n": 1e300}.
  value v;
  ASSERT_TRUE(parse("1e300", v));
  EXPECT_EQ(v.as_int64(), 9223372036854774784ll);  // largest double < 2^63
  ASSERT_TRUE(parse("-1e300", v));
  EXPECT_EQ(v.as_int64(), std::numeric_limits<int64_t>::min());
}

TEST(JsonReader, Uint64ConversionClampsAndFloorsNegatives) {
  // The unsigned twin of the clamp above: negative and NaN inputs floor to
  // 0, huge doubles clamp below 2^64 — static_cast alone would be UB on
  // both ends, and ppserve feeds request fields straight through here.
  value v;
  ASSERT_TRUE(parse("-7", v));
  EXPECT_EQ(v.as_uint64(), 0u);
  ASSERT_TRUE(parse("-1e300", v));
  EXPECT_EQ(v.as_uint64(), 0u);
  ASSERT_TRUE(parse("1e300", v));
  EXPECT_EQ(v.as_uint64(), 18446744073709549568ull);  // largest double < 2^64
  ASSERT_TRUE(parse("18446744073709551615", v));
  EXPECT_EQ(v.as_uint64(), std::numeric_limits<uint64_t>::max());
}

TEST(JsonReader, RejectsPathologicalNesting) {
  // The recursive-descent parser caps nesting depth; without the cap a
  // hostile daemon request line like "[[[[..." overflows the stack (an
  // ASan-visible crash, not a parse error).
  value v;
  std::string err;
  std::string deep(100000, '[');
  EXPECT_FALSE(parse(deep, v, &err));
  EXPECT_NE(err.find("deep"), std::string::npos) << err;
  // 64 levels is within contract either way; just below the cap parses.
  std::string ok = std::string(32, '[') + "1" + std::string(32, ']');
  EXPECT_TRUE(parse(ok, v));
}

TEST(JsonReader, RejectsTruncatedUnicodeEscapes) {
  // \u escapes cut off by end-of-input must fail cleanly, never read past
  // the buffer.
  value v;
  EXPECT_FALSE(parse("\"\\u12", v));
  EXPECT_FALSE(parse("\"\\u", v));
  EXPECT_FALSE(parse("\"\\ud83d\\ude0", v));  // truncated low surrogate
  EXPECT_FALSE(parse("\"\\ud83dX\"", v));     // high surrogate, no \u follows
  EXPECT_FALSE(parse("\"\\", v));             // escape at end of input
}

TEST(JsonReader, RejectsMalformedInput) {
  value v;
  std::string err;
  EXPECT_FALSE(parse("", v, &err));
  EXPECT_FALSE(parse("{", v, &err));
  EXPECT_FALSE(parse("[1,", v, &err));
  EXPECT_FALSE(parse("{\"a\" 1}", v, &err));
  EXPECT_FALSE(parse("\"unterminated", v, &err));
  EXPECT_FALSE(parse("nul", v, &err));
  EXPECT_FALSE(parse("1 2", v, &err)) << "trailing tokens must be rejected";
  EXPECT_FALSE(parse("\"bad \\q escape\"", v, &err));
  EXPECT_FALSE(parse("\"lone \\ud800 surrogate\"", v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse("\"raw \x01 control\"", v, &err));
}

TEST(JsonRoundTrip, WriterOutputParses) {
  writer w;
  w.begin_object();
  w.member("s", "quote\" slash\\ tab\t é");
  w.member("i", int64_t{-7});
  w.member("u", uint64_t{18446744073709551615ull});  // 2^64-1: emitted unsigned
  w.member("d", 0.125);
  w.member("b", true);
  w.key("arr").begin_array().value(int64_t{1}).value("two").end_array();
  w.key("nan").value(std::nan(""));
  w.end_object();

  value v;
  std::string err;
  ASSERT_TRUE(parse(w.str(), v, &err)) << err << " in " << w.str();
  EXPECT_EQ(v.find("s")->as_string(), "quote\" slash\\ tab\t é");
  EXPECT_EQ(v.find("i")->as_int64(), -7);
  // 2^64-1 overflows int64 but stays exact through the uint64 alternative.
  EXPECT_TRUE(v.find("u")->is_number());
  EXPECT_EQ(v.find("u")->as_uint64(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(v.find("d")->as_double(), 0.125);
  EXPECT_TRUE(v.find("b")->as_bool());
  EXPECT_EQ(v.find("arr")->as_array().size(), 2u);
  EXPECT_TRUE(v.find("nan")->is_null());
}

TEST(JsonRoundTrip, RunResultEnvelopeParses) {
  // The ppserve daemon splices pp::to_json output into response lines via
  // value_raw; the reader must accept the whole envelope.
  auto in = pp::registry::instance().make_input("lis", 500, 3);
  auto res = pp::registry::run("lis/parallel", in,
                               pp::context{}.with_backend(pp::backend_kind::native).with_seed(3));
  value v;
  std::string err;
  ASSERT_TRUE(parse(pp::to_json(res), v, &err)) << err;
  EXPECT_EQ(v.find("solver")->as_string(), "lis/parallel");
  EXPECT_EQ(v.find("seed")->as_int64(), 3);
  EXPECT_GT(v.find("score")->as_int64(), 0);
  ASSERT_NE(v.find("stats"), nullptr);
  EXPECT_GT(v.find("stats")->find("rounds")->as_int64(), 0);
}

// ---- exact envelope bytes ---------------------------------------------------
// Every record that crosses the wire, built from fixed values and compared
// byte for byte: key names, key order, number spelling and nesting are what
// ppbench, the CLI tests and ppserve clients read. Doubles are exactly
// representable, so %.17g prints them short.

pp::run_result<pp::solver_value> fixed_run(int64_t score, pp::run_status status) {
  pp::lis_result lis;
  lis.length = score;
  lis.stats.rounds = 3;
  lis.stats.processed = 4;
  lis.stats.wakeup_attempts = 2;
  lis.stats.max_frontier = 2;
  lis.stats.substeps = 1;
  lis.stats.relaxations = 5;
  lis.stats.popped = 6;
  lis.stats.wasted = 7;
  lis.stats.retries = 8;
  pp::run_result<pp::solver_value> r;
  r.value = lis;
  r.stats = lis.stats;
  r.seconds = 0.5;
  r.backend = pp::backend_kind::sequential;
  r.seed = 42;
  r.workers = 2;
  r.status = status;
  r.solver = "lis/parallel";
  r.input_fp = pp::fingerprint{0x0123456789abcdefull, 0xfedcba9876543210ull};
  return r;
}

constexpr const char* kRunJson =
    "{\"solver\": \"lis/parallel\", \"backend\": \"sequential\", \"workers\": 2, \"seed\": 42, "
    "\"status\": \"ok\", \"input_fingerprint\": \"0123456789abcdeffedcba9876543210\", "
    "\"seconds\": 0.5, \"score\": 7, \"summary\": \"lis(length)=7 rounds=3 processed=4 "
    "max_frontier=2\", \"stats\": {\"rounds\": 3, \"processed\": 4, \"wakeup_attempts\": 2, "
    "\"max_frontier\": 2, \"substeps\": 1, \"relaxations\": 5, \"popped\": 6, \"wasted\": 7, "
    "\"retries\": 8, \"avg_wakeups\": 0.5}}";

TEST(JsonEnvelope, RunResultExactBytes) {
  EXPECT_EQ(pp::to_json(fixed_run(7, pp::run_status::ok)), kRunJson);
}

TEST(JsonEnvelope, BatchResultExactBytes) {
  pp::batch_result<pp::solver_value> b;
  b.items = {fixed_run(7, pp::run_status::ok), fixed_run(9, pp::run_status::cancelled)};
  b.scores = {7, 0};
  b.backend = pp::backend_kind::sequential;
  b.seed = 42;
  b.workers = 2;
  b.solver = "lis/parallel";
  b.recompute_aggregates();  // only the ok item counts: every time is 0.5
  std::string cancelled = kRunJson;
  cancelled.replace(cancelled.find("\"ok\""), 4, "\"cancelled\"");
  cancelled.replace(cancelled.find("\"score\": 7"), 10, "\"score\": 9");
  cancelled.replace(cancelled.find("=7 "), 3, "=9 ");
  EXPECT_EQ(pp::to_json(b),
            std::string("{\"solver\": \"lis/parallel\", \"backend\": \"sequential\", "
                        "\"workers\": 2, \"seed\": 42, \"count\": 2, \"total_seconds\": 0.5, "
                        "\"min_seconds\": 0.5, \"mean_seconds\": 0.5, \"p50_seconds\": 0.5, "
                        "\"p95_seconds\": 0.5, \"p99_seconds\": 0.5, \"max_seconds\": 0.5, "
                        "\"total_rounds\": 3, \"scores\": [7, 0], \"items\": [") +
                kRunJson + ", " + cancelled + "]}");
}

TEST(JsonEnvelope, EngineStatsExactBytes) {
  pp::serve::engine_stats s;
  s.submitted = 1;
  s.completed = 2;
  s.failed = 3;
  s.expired = 4;
  s.cancelled = 5;
  s.batches = 6;
  s.batched = 7;
  s.cache_hits = 8;
  s.cache_misses = 9;
  s.deduped = 10;
  s.peak_inflight = 11;
  s.queue_depth = 12;
  s.exec_seconds = 0.75;
  EXPECT_EQ(pp::serve::to_json(s),
            "{\"submitted\": 1, \"completed\": 2, \"failed\": 3, \"expired\": 4, "
            "\"cancelled\": 5, \"batches\": 6, \"batched\": 7, \"cache_hits\": 8, "
            "\"cache_misses\": 9, \"deduped\": 10, \"peak_inflight\": 11, \"queue_depth\": 12, "
            "\"exec_seconds\": 0.75}");
}

TEST(JsonEnvelope, SessionDescExactBytes) {
  pp::serve::session_desc d;
  d.name = "road";
  d.problem = "sssp";
  d.version = 3;
  d.fp = pp::fingerprint{1, 2};
  d.elems = 64;
  d.hints = true;
  EXPECT_EQ(pp::serve::to_json(d),
            "{\"name\": \"road\", \"problem\": \"sssp\", \"version\": 3, "
            "\"fingerprint\": \"00000000000000010000000000000002\", \"elems\": 64, "
            "\"hints\": true}");
}

}  // namespace
