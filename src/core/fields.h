// Field lists: each record that is written as JSON lists its fields once.
//
// A record (phase_stats, run_result, batch_result, engine_stats,
// session_desc) has one X-macro that names its fields in JSON order:
//
//   #define PP_FOO_FIELDS(F, P, D)
//     F(type, name)    a member, written under its own name
//     P(type, name)    a member written only through the D entries that
//                      read it (a renamed key, an enum by name, a payload)
//     D("key", expr)   a derived key: `expr` over the record `r`, no storage
//
// PP_DECLARE_FIELDS(PP_FOO_FIELDS) in the struct body declares every F and
// P member, value-initialized. PP_WRITE_FIELDS(PP_FOO_FIELDS) in the
// record's write_fields(json::writer& w, const foo& r) writes one JSON
// member per F and D entry, in list order; json::writer::value then writes
// the record as an object wherever it appears, nested ones included. A
// member the writer skips is therefore one the list marks P. F entries may
// carry extra arguments for other expansions of the same list (the serve
// counters' catalog names, core/metrics.h).
#pragma once

namespace pp::json {
class writer;
}

#define PP_FIELD_DECLARE(type, name, ...) type name{};
#define PP_FIELD_WRITE(type, name, ...) w.member(#name, r.name);
#define PP_FIELD_DERIVED(key, expr) w.member(key, expr);
#define PP_FIELD_NONE(...)

#define PP_DECLARE_FIELDS(LIST) LIST(PP_FIELD_DECLARE, PP_FIELD_DECLARE, PP_FIELD_NONE)
#define PP_WRITE_FIELDS(LIST) LIST(PP_FIELD_WRITE, PP_FIELD_NONE, PP_FIELD_DERIVED)
