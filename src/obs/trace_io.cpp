#include "obs/trace_io.h"

#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

namespace koptlog {

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_tdv(std::string& out, const DepVector& tdv) {
  out += ",\"tdv\":[";
  bool first = true;
  tdv.for_each([&](ProcessId j, const Entry& e) {
    if (!first) out += ',';
    first = false;
    out += '[';
    out += std::to_string(j);
    out += ',';
    out += std::to_string(e.inc);
    out += ',';
    out += std::to_string(e.sii);
    out += ']';
  });
  out += ']';
}

void append_msg(std::string& out, const MsgId& id) {
  out += ",\"msg\":[";
  out += std::to_string(id.src);
  out += ',';
  out += std::to_string(id.seq);
  out += ']';
}

void append_ref(std::string& out, const IntervalId& ref) {
  out += ",\"ref\":[";
  out += std::to_string(ref.pid);
  out += ',';
  out += std::to_string(ref.inc);
  out += ',';
  out += std::to_string(ref.sii);
  out += ']';
}

void append_peer(std::string& out, ProcessId peer) {
  out += ",\"peer\":";
  out += std::to_string(peer);
}

void append_entry(std::string& out, const char* key, const Entry& e) {
  out += ",\"";
  out += key;
  out += "\":[";
  out += std::to_string(e.inc);
  out += ',';
  out += std::to_string(e.sii);
  out += ']';
}

}  // namespace

std::string event_to_json(const ProtocolEvent& e) {
  std::string out;
  out.reserve(160);
  out += "{\"kind\":\"";
  out += event_kind_name(e.kind);
  out += "\",\"t\":";
  out += std::to_string(e.t);
  out += ",\"p\":";
  out += std::to_string(e.pid);
  out += ",\"seq\":";
  out += std::to_string(e.seq);
  append_entry(out, "at", e.at);
  switch (e.kind) {
    case EventKind::kSend:
      append_msg(out, e.msg);
      append_peer(out, e.peer);
      append_ref(out, e.ref);
      append_tdv(out, e.tdv);
      out += ",\"klim\":";
      out += std::to_string(e.k_limit);
      break;
    case EventKind::kDeliver:
      append_msg(out, e.msg);
      append_peer(out, e.peer);
      append_ref(out, e.ref);
      append_tdv(out, e.tdv);
      break;
    case EventKind::kBufferHold:
      append_msg(out, e.msg);
      out += ",\"queue\":\"";
      out += e.recv_side ? "recv" : "send";
      out += '"';
      out += ",\"klim\":";
      out += std::to_string(e.k_limit);
      out += ",\"krea\":";
      out += std::to_string(e.k_reached);
      break;
    case EventKind::kBufferRelease:
      append_msg(out, e.msg);
      append_peer(out, e.peer);
      append_ref(out, e.ref);
      append_tdv(out, e.tdv);
      out += ",\"klim\":";
      out += std::to_string(e.k_limit);
      out += ",\"krea\":";
      out += std::to_string(e.k_reached);
      break;
    case EventKind::kCheckpoint:
      append_tdv(out, e.tdv);
      break;
    case EventKind::kFailureAnnounce:
      append_entry(out, "ended", e.ended);
      out += ",\"fail\":";
      out += e.from_failure ? "true" : "false";
      break;
    case EventKind::kRollback:
      append_entry(out, "ended", e.ended);
      out += ",\"undone\":";
      out += std::to_string(e.undone);
      break;
    case EventKind::kOutputCommit:
      append_msg(out, e.msg);
      append_ref(out, e.ref);
      append_tdv(out, e.tdv);
      break;
    case EventKind::kRetransmit:
      append_msg(out, e.msg);
      append_peer(out, e.peer);
      break;
    case EventKind::kIncarnationBump:
      break;
    case EventKind::kStorageFlush:
    case EventKind::kStorageRecover:
    case EventKind::kProgressNotify:
      out += ",\"lsn\":";
      out += std::to_string(e.lsn);
      break;
    case EventKind::kRecorderDrop:
      out += ",\"lost\":";
      out += std::to_string(e.undone);
      break;
  }
  out += '}';
  return out;
}

void write_trace_jsonl(int n, const std::vector<ProtocolEvent>& events,
                       std::ostream& os) {
  os << "{\"kind\":\"meta\",\"version\":1,\"n\":" << n << "}\n";
  for (const ProtocolEvent& e : events) os << event_to_json(e) << '\n';
}

void write_trace_jsonl(const Recording& rec, std::ostream& os) {
  write_trace_jsonl(rec.n(), rec.merged(), os);
}

bool write_trace_jsonl_file(const Recording& rec, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace_jsonl(rec, out);
  return out.good();
}

// ---------------------------------------------------------------------------
// Reading: built on the shared JSON parser in obs/json.h
// ---------------------------------------------------------------------------

namespace {

// ---- field extraction with validation ----

bool as_int64(const JsonValue* v, int64_t& out) {
  return json_as_int64(v, out);
}

// Health sidecar lines (obs/health/health_io.h) may be interleaved with a
// trace when both are pointed at the same file; they are runtime telemetry,
// not protocol events, so the trace readers skip them silently.
bool is_health_line(const JsonValue& v) {
  const JsonValue* kind = v.find("kind");
  return kind && kind->type == JsonValue::Type::kStr &&
         (kind->str == "health" || kind->str == "health_meta");
}

bool as_entry(const JsonValue* v, Entry& out) {
  if (!v || v->type != JsonValue::Type::kArr || v->arr.size() != 2)
    return false;
  int64_t inc = 0, sii = 0;
  if (!as_int64(&v->arr[0], inc) || !as_int64(&v->arr[1], sii)) return false;
  out.inc = static_cast<Incarnation>(inc);
  out.sii = sii;
  return true;
}

bool as_interval(const JsonValue* v, IntervalId& out) {
  if (!v || v->type != JsonValue::Type::kArr || v->arr.size() != 3)
    return false;
  int64_t pid = 0, inc = 0, sii = 0;
  if (!as_int64(&v->arr[0], pid) || !as_int64(&v->arr[1], inc) ||
      !as_int64(&v->arr[2], sii))
    return false;
  out.pid = static_cast<ProcessId>(pid);
  out.inc = static_cast<Incarnation>(inc);
  out.sii = sii;
  return true;
}

bool as_msg(const JsonValue* v, MsgId& out) {
  if (!v || v->type != JsonValue::Type::kArr || v->arr.size() != 2)
    return false;
  int64_t src = 0, seq = 0;
  if (!as_int64(&v->arr[0], src) || !as_int64(&v->arr[1], seq)) return false;
  out.src = static_cast<ProcessId>(src);
  out.seq = static_cast<SeqNo>(seq);
  return true;
}

bool as_tdv(const JsonValue* v, int n, DepVector& out, std::string& why) {
  if (!v || v->type != JsonValue::Type::kArr) {
    why = "tdv must be an array of [pid,inc,sii] triples";
    return false;
  }
  out = DepVector(n);
  for (const JsonValue& item : v->arr) {
    IntervalId iv;
    if (!as_interval(&item, iv)) {
      why = "malformed tdv entry";
      return false;
    }
    if (iv.pid < 0 || iv.pid >= n) {
      why = "tdv entry pid out of range";
      return false;
    }
    out.set(iv.pid, Entry{iv.inc, iv.sii});
  }
  return true;
}

/// Builds one event from a parsed line; returns false with `why` set on any
/// schema violation.
bool event_from_json(const JsonValue& obj, int n, ProtocolEvent& e,
                     std::string& why) {
  const JsonValue* kind_v = obj.find("kind");
  if (!kind_v || kind_v->type != JsonValue::Type::kStr) {
    why = "missing or non-string \"kind\"";
    return false;
  }
  std::optional<EventKind> kind = event_kind_from_name(kind_v->str);
  if (!kind) {
    why = "unknown event kind \"" + kind_v->str + "\"";
    return false;
  }
  e.kind = *kind;

  int64_t t = 0, p = 0, seq = 0;
  if (!as_int64(obj.find("t"), t)) {
    why = "missing or malformed \"t\"";
    return false;
  }
  if (!as_int64(obj.find("p"), p) || p < 0 || p >= n) {
    why = "missing or out-of-range \"p\"";
    return false;
  }
  if (!as_int64(obj.find("seq"), seq) || seq < 0) {
    why = "missing or malformed \"seq\"";
    return false;
  }
  if (!as_entry(obj.find("at"), e.at)) {
    why = "missing or malformed \"at\"";
    return false;
  }
  e.t = t;
  e.pid = static_cast<ProcessId>(p);
  e.seq = static_cast<uint64_t>(seq);

  auto need_msg = [&] {
    if (as_msg(obj.find("msg"), e.msg)) return true;
    why = "missing or malformed \"msg\"";
    return false;
  };
  auto need_peer = [&] {
    int64_t peer = 0;
    if (!as_int64(obj.find("peer"), peer) || peer < -1 || peer >= n) {
      why = "missing or out-of-range \"peer\"";
      return false;
    }
    e.peer = static_cast<ProcessId>(peer);
    return true;
  };
  auto need_ref = [&] {
    if (!as_interval(obj.find("ref"), e.ref)) {
      why = "missing or malformed \"ref\"";
      return false;
    }
    if (e.ref.pid != kEnvironment && (e.ref.pid < 0 || e.ref.pid >= n)) {
      why = "\"ref\" pid out of range";
      return false;
    }
    return true;
  };
  auto need_tdv = [&] { return as_tdv(obj.find("tdv"), n, e.tdv, why); };
  auto need_int = [&](const char* key, auto& out) {
    int64_t v = 0;
    if (!as_int64(obj.find(key), v)) {
      why = std::string("missing or malformed \"") + key + "\"";
      return false;
    }
    out = static_cast<std::remove_reference_t<decltype(out)>>(v);
    return true;
  };
  auto need_ended = [&] {
    if (as_entry(obj.find("ended"), e.ended)) return true;
    why = "missing or malformed \"ended\"";
    return false;
  };

  switch (e.kind) {
    case EventKind::kSend:
      return need_msg() && need_peer() && need_ref() && need_tdv() &&
             need_int("klim", e.k_limit);
    case EventKind::kDeliver:
      return need_msg() && need_peer() && need_ref() && need_tdv();
    case EventKind::kBufferHold: {
      if (!need_msg() || !need_int("klim", e.k_limit) ||
          !need_int("krea", e.k_reached))
        return false;
      const JsonValue* q = obj.find("queue");
      if (!q || q->type != JsonValue::Type::kStr ||
          (q->str != "send" && q->str != "recv")) {
        why = "missing or malformed \"queue\" (want \"send\"|\"recv\")";
        return false;
      }
      e.recv_side = q->str == "recv";
      return true;
    }
    case EventKind::kBufferRelease:
      return need_msg() && need_peer() && need_ref() && need_tdv() &&
             need_int("klim", e.k_limit) && need_int("krea", e.k_reached);
    case EventKind::kCheckpoint:
      return need_tdv();
    case EventKind::kFailureAnnounce: {
      if (!need_ended()) return false;
      const JsonValue* f = obj.find("fail");
      if (!f || f->type != JsonValue::Type::kBool) {
        why = "missing or non-boolean \"fail\"";
        return false;
      }
      e.from_failure = f->b;
      return true;
    }
    case EventKind::kRollback:
      return need_ended() && need_int("undone", e.undone);
    case EventKind::kOutputCommit:
      return need_msg() && need_ref() && need_tdv();
    case EventKind::kRetransmit:
      return need_msg() && need_peer();
    case EventKind::kIncarnationBump:
      return true;
    case EventKind::kStorageFlush:
    case EventKind::kStorageRecover:
    case EventKind::kProgressNotify:
      return need_int("lsn", e.lsn);
    case EventKind::kRecorderDrop:
      return need_int("lost", e.undone);
  }
  why = "unhandled event kind";
  return false;
}

}  // namespace

Trace read_trace_jsonl(std::istream& is, std::vector<std::string>& errors) {
  Trace trace;
  StreamingTraceParser parser(
      [&](const ProtocolEvent& e) { trace.events.push_back(e); });
  char buf[1 << 16];
  while (is.read(buf, sizeof buf), is.gcount() > 0) {
    parser.feed(std::string_view(buf, static_cast<size_t>(is.gcount())));
  }
  // Strict: terminate the final line, so an unterminated fragment is parsed
  // (and, if torn, reported as "line N: ...") like any other line rather
  // than set aside as a tolerated torn tail.
  parser.feed("\n");
  parser.finish();
  trace.n = parser.n();
  errors.insert(errors.end(), parser.errors().begin(), parser.errors().end());
  if (!parser.have_meta()) errors.push_back("empty trace: no meta header");
  return trace;
}

// ---------------------------------------------------------------------------
// StreamingTraceParser
// ---------------------------------------------------------------------------

StreamingTraceParser::StreamingTraceParser(EventFn on_event)
    : on_event_(std::move(on_event)) {}

StreamingTraceParser::~StreamingTraceParser() = default;

void StreamingTraceParser::parse_line(std::string_view line) {
  ++lineno_;
  if (line.empty()) return;
  auto err = [&](const std::string& what) {
    errors_.push_back("line " + std::to_string(lineno_) + ": " + what);
  };
  JsonValue v;
  std::string parse_err;
  if (!JsonParser(line).parse(v, parse_err)) {
    err(parse_err);
    return;
  }
  if (v.type != JsonValue::Type::kObj) {
    err("line is not a JSON object");
    return;
  }
  if (is_health_line(v)) return;
  if (!have_meta_) {
    const JsonValue* kind = v.find("kind");
    if (!kind || kind->type != JsonValue::Type::kStr || kind->str != "meta") {
      err("first line must be the meta header {\"kind\":\"meta\",...}");
      n_ = 1 << 20;  // keep parsing so later errors still surface
      have_meta_ = true;
      return;
    }
    int64_t version = 0, n = 0;
    if (!as_int64(v.find("version"), version) || version != 1) {
      err("unsupported or missing trace version (want 1)");
    }
    if (!as_int64(v.find("n"), n) || n < 1) {
      err("meta header missing a positive \"n\"");
      n = 1 << 20;
    }
    n_ = static_cast<int>(n);
    have_meta_ = true;
    return;
  }
  ProtocolEvent e;
  std::string why;
  if (!event_from_json(v, n_, e, why)) {
    err(why);
    return;
  }
  ++events_parsed_;
  if (on_event_) on_event_(e);
}

void StreamingTraceParser::feed(std::string_view chunk) {
  if (finished_) return;
  buf_.append(chunk.data(), chunk.size());
  size_t start = 0;
  for (size_t nl = buf_.find('\n', start); nl != std::string::npos;
       nl = buf_.find('\n', start)) {
    size_t len = nl - start;
    // Tolerate CRLF writers.
    if (len > 0 && buf_[start + len - 1] == '\r') --len;
    parse_line(std::string_view(buf_).substr(start, len));
    start = nl + 1;
  }
  buf_.erase(0, start);
}

void StreamingTraceParser::finish() {
  if (finished_) return;
  finished_ = true;
  if (buf_.empty()) return;
  // A complete object missing only its newline is accepted; anything else is
  // a torn tail (crashed or still-running writer), reported out of band.
  const size_t errors_before = errors_.size();
  const size_t parsed_before = events_parsed_;
  parse_line(buf_);
  if (errors_.size() != errors_before) {
    errors_.resize(errors_before);  // the fragment is torn, not malformed
    torn_ = std::move(buf_);
  } else if (events_parsed_ == parsed_before && !have_meta_) {
    torn_ = std::move(buf_);
  }
  buf_.clear();
}

}  // namespace koptlog
