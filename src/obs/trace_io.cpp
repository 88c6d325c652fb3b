#include "obs/trace_io.h"

#include "obs/json.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
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

template <typename Int>
void put_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_tdv(std::string& out, const DepVector& tdv) {
  out += ",\"tdv\":[";
  bool first = true;
  tdv.for_each([&](ProcessId j, const Entry& e) {
    if (!first) out += ',';
    first = false;
    out += '[';
    put_int(out, j);
    out += ',';
    put_int(out, e.inc);
    out += ',';
    put_int(out, e.sii);
    out += ']';
  });
  out += ']';
}

void append_msg(std::string& out, const MsgId& id) {
  out += ",\"msg\":[";
  put_int(out, id.src);
  out += ',';
  put_int(out, id.seq);
  out += ']';
}

void append_ref(std::string& out, const IntervalId& ref) {
  out += ",\"ref\":[";
  put_int(out, ref.pid);
  out += ',';
  put_int(out, ref.inc);
  out += ',';
  put_int(out, ref.sii);
  out += ']';
}

void append_peer(std::string& out, ProcessId peer) {
  out += ",\"peer\":";
  put_int(out, peer);
}

void append_entry(std::string& out, const char* key, const Entry& e) {
  out += ",\"";
  out += key;
  out += "\":[";
  put_int(out, e.inc);
  out += ',';
  put_int(out, e.sii);
  out += ']';
}

void append_int(std::string& out, const char* key, int64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  put_int(out, v);
}

void append_meta(std::string& out, int n) {
  out += "{\"kind\":\"meta\",\"version\":1,\"n\":";
  put_int(out, n);
  out += "}\n";
}

}  // namespace

void append_event_json(std::string& out, const ProtocolEvent& e) {
  out += "{\"kind\":\"";
  out += event_kind_name(e.kind);
  out += "\",\"t\":";
  put_int(out, e.t);
  out += ",\"p\":";
  put_int(out, e.pid);
  out += ",\"seq\":";
  put_int(out, e.seq);
  append_entry(out, "at", e.at);
  switch (e.kind) {
    case EventKind::kSend:
      append_msg(out, e.msg);
      append_peer(out, e.peer);
      append_ref(out, e.ref);
      append_tdv(out, e.tdv);
      append_int(out, "klim", e.k_limit);
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
      append_int(out, "klim", e.k_limit);
      append_int(out, "krea", e.k_reached);
      break;
    case EventKind::kBufferRelease:
      append_msg(out, e.msg);
      append_peer(out, e.peer);
      append_ref(out, e.ref);
      append_tdv(out, e.tdv);
      append_int(out, "klim", e.k_limit);
      append_int(out, "krea", e.k_reached);
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
      append_int(out, "undone", e.undone);
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
      append_int(out, "lsn", e.lsn);
      break;
    case EventKind::kRecorderDrop:
      append_int(out, "lost", e.undone);
      break;
  }
  out += '}';
}

std::string event_to_json(const ProtocolEvent& e) {
  std::string out;
  append_event_json(out, e);
  return out;
}

void write_trace_jsonl(int n, const std::vector<ProtocolEvent>& events,
                       std::ostream& os) {
  // One buffer for the whole stream, handed to the stream in 64 KiB blocks.
  constexpr size_t kBlock = 1 << 16;
  std::string buf;
  buf.reserve(kBlock + 4096);
  append_meta(buf, n);
  for (const ProtocolEvent& e : events) {
    append_event_json(buf, e);
    buf += '\n';
    if (buf.size() >= kBlock) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
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
// Reading: a single-pass decoder of the trace schema on obs/json.h's lexer
// ---------------------------------------------------------------------------

namespace {

// Every key the schema reads. A line is walked once, left to right: the
// first occurrence of each of these keys is decoded where it stands (a
// duplicate never shadows it), and every other value is validated and
// skipped, so unknown extra fields stay tolerated.
enum Field : int {
  kKind, kT, kP, kSeq, kAt, kMsg, kPeer, kRef, kTdv, kKlim, kKrea, kQueue,
  kEnded, kFail, kUndone, kLsn, kLost, kVersion, kN, kNoField
};

constexpr std::string_view kFieldName[kNoField] = {
    "kind", "t",     "p",    "seq",  "at",     "msg",  "peer",
    "ref",  "tdv",   "klim", "krea", "queue",  "ended", "fail",
    "undone", "lsn", "lost", "version", "n"};

Field field_named(std::string_view key) {
  // Dispatch on length and first byte, then one compare.
  Field f = kNoField;
  switch (key.size()) {
    case 1: f = key[0] == 't' ? kT : key[0] == 'p' ? kP : kN; break;
    case 2: f = kAt; break;
    case 3:
      f = key[0] == 's' ? kSeq : key[0] == 'm' ? kMsg : key[0] == 'r' ? kRef
        : key[0] == 't' ? kTdv : kLsn;
      break;
    case 4:
      f = key[0] == 'p' ? kPeer : key[0] == 'f' ? kFail
        : key[0] == 'l' ? kLost : key[1] == 'i' ? kKind
        : key[1] == 'l' ? kKlim : kKrea;
      break;
    case 5: f = key[0] == 'q' ? kQueue : kEnded; break;
    case 6: f = kUndone; break;
    case 7: f = kVersion; break;
  }
  return f != kNoField && kFieldName[f] == key ? f : kNoField;
}

/// Integers a field holds: scalars 1, [inc,sii] and [src,seq] 2, [pid,inc,
/// sii] 3; 0 for the string, boolean and tdv fields.
int arity(Field f) {
  switch (f) {
    case kAt: case kMsg: case kEnded: return 2;
    case kRef: return 3;
    case kKind: case kQueue: case kFail: case kTdv: case kNoField: return 0;
    default: return 1;
  }
}

bool fits_i32(int64_t v) {
  return v >= std::numeric_limits<int32_t>::min() &&
         v <= std::numeric_limits<int32_t>::max();
}

constexpr const char* kTdvShape =
    "tdv must be an array of [pid,inc,sii] triples";

/// What one line held: the values of the first occurrence of each known
/// key. The tdv is decoded straight into the event.
struct LineFields {
  uint32_t seen = 0;  ///< keys met
  uint32_t good = 0;  ///< ... whose first value had the field's shape
  int64_t num[kNoField][3];
  std::string_view kind, queue;
  std::string kind_scratch, queue_scratch;  ///< only for escaped strings
  bool fail = false;
  const char* tdv_why = nullptr;  ///< the tdv's first problem, if any

  bool has(Field f) const { return (good >> f) & 1u; }
  int64_t get(Field f, int i = 0) const { return num[f][i]; }
};

/// The tdv value: [pid,inc,sii] triples set straight into `tdv`.
bool read_tdv(JsonLexer& lx, int n, DepVector& tdv, LineFields& f) {
  if (lx.peek() != '[') {
    f.tdv_why = kTdvShape;
    return lx.skip_value(1);
  }
  if (!lx.open('[', 1)) return false;
  tdv = DepVector(n);
  if (lx.eat(']')) return true;
  bool more = false;
  do {
    int64_t v[3];
    bool shaped = false;
    if (!lx.int_array(2, v, 3, shaped)) return false;
    if (f.tdv_why == nullptr) {
      if (!shaped || !fits_i32(v[1])) {
        f.tdv_why = "malformed tdv entry";
      } else if (v[0] < 0 || v[0] >= n) {
        f.tdv_why = "tdv entry pid out of range";
      } else {
        tdv.set(static_cast<ProcessId>(v[0]),
                Entry{static_cast<Incarnation>(v[1]), v[2]});
      }
    }
    if (!lx.next(']', more)) return false;
  } while (more);
  return true;
}

/// The first value of known field `k`. False only on a JSON syntax error.
bool read_field(JsonLexer& lx, Field k, int n, LineFields& f,
                ProtocolEvent& e) {
  bool good = false;
  const char c = lx.peek();
  switch (k) {
    case kKind:
    case kQueue:
      if (c != '"') return lx.skip_value(1);
      if (!lx.string(k == kKind ? f.kind : f.queue,
                     k == kKind ? f.kind_scratch : f.queue_scratch))
        return false;
      good = true;
      break;
    case kFail:
      if (c != 't' && c != 'f') return lx.skip_value(1);
      if (!lx.literal(c == 't' ? "true" : "false")) return false;
      f.fail = c == 't';
      good = true;
      break;
    case kTdv:
      if (!read_tdv(lx, n, e.tdv, f)) return false;
      good = f.tdv_why == nullptr;
      break;
    default:
      if (!(arity(k) > 1 ? lx.int_array(1, f.num[k], arity(k), good)
                         : lx.int_value(1, f.num[k][0], good)))
        return false;
  }
  if (good) f.good |= 1u << k;
  return true;
}

/// Walk one object line. False on a JSON syntax error (lx.error() says
/// where), including trailing bytes after the object.
bool walk_line(JsonLexer& lx, int n, LineFields& f, ProtocolEvent& e) {
  if (!lx.open('{', 0)) return false;
  if (!lx.eat('}')) {
    std::string key_scratch;
    bool more = false;
    do {
      std::string_view key;
      if (!lx.string(key, key_scratch)) return false;
      if (!lx.eat(':')) return lx.fail("expected ':'");
      const Field k = field_named(key);
      const bool first = k != kNoField && ((f.seen >> k) & 1u) == 0;
      if (first) f.seen |= 1u << k;
      if (!(first ? read_field(lx, k, n, f, e) : lx.skip_value(1)))
        return false;
      if (!lx.next('}', more)) return false;
    } while (more);
  }
  return true;
}

/// Checks an event line's fields against its kind's schema, in a fixed
/// order so the first violation named is stable, and fills `e`. Returns
/// false with `why` set on the first violation.
bool event_from_fields(const LineFields& f, int n, ProtocolEvent& e,
                       std::string& why) {
  if (!f.has(kKind)) {
    why = "missing or non-string \"kind\"";
    return false;
  }
  std::optional<EventKind> kind = event_kind_from_name(f.kind);
  if (!kind) {
    why = "unknown event kind \"" + std::string(f.kind) + "\"";
    return false;
  }
  e.kind = *kind;
  auto bad = [&](Field k, const char* what) {
    why = std::string(what) + " \"" + std::string(kFieldName[k]) + "\"";
    return false;
  };
  if (!f.has(kT)) return bad(kT, "missing or malformed");
  if (!f.has(kP) || f.get(kP) < 0 || f.get(kP) >= n)
    return bad(kP, "missing or out-of-range");
  if (!f.has(kSeq) || f.get(kSeq) < 0) return bad(kSeq, "missing or malformed");
  if (!f.has(kAt) || !fits_i32(f.get(kAt))) return bad(kAt, "missing or malformed");
  e.t = f.get(kT);
  e.pid = static_cast<ProcessId>(f.get(kP));
  e.seq = static_cast<uint64_t>(f.get(kSeq));
  e.at = Entry{static_cast<Incarnation>(f.get(kAt)), f.get(kAt, 1)};

  bool keep_tdv = false;
  auto need = [&](Field k) {
    switch (k) {
      case kMsg:
        if (!f.has(kMsg) || !fits_i32(f.get(kMsg)))
          return bad(kMsg, "missing or malformed");
        e.msg = MsgId{static_cast<ProcessId>(f.get(kMsg)),
                      static_cast<SeqNo>(f.get(kMsg, 1))};
        return true;
      case kPeer:
        if (!f.has(kPeer) || f.get(kPeer) < -1 || f.get(kPeer) >= n)
          return bad(kPeer, "missing or out-of-range");
        e.peer = static_cast<ProcessId>(f.get(kPeer));
        return true;
      case kRef:
        if (!f.has(kRef) || !fits_i32(f.get(kRef, 1)))
          return bad(kRef, "missing or malformed");
        if (f.get(kRef) != kEnvironment &&
            (f.get(kRef) < 0 || f.get(kRef) >= n)) {
          why = "\"ref\" pid out of range";
          return false;
        }
        e.ref = IntervalId{static_cast<ProcessId>(f.get(kRef)),
                           static_cast<Incarnation>(f.get(kRef, 1)),
                           f.get(kRef, 2)};
        return true;
      case kTdv:
        if (!f.has(kTdv)) {
          why = ((f.seen >> kTdv) & 1u) ? f.tdv_why : kTdvShape;
          return false;
        }
        keep_tdv = true;
        return true;
      case kQueue:
        if (!f.has(kQueue) || (f.queue != "send" && f.queue != "recv")) {
          why = "missing or malformed \"queue\" (want \"send\"|\"recv\")";
          return false;
        }
        e.recv_side = f.queue == "recv";
        return true;
      case kFail:
        if (!f.has(kFail)) return bad(kFail, "missing or non-boolean");
        e.from_failure = f.fail;
        return true;
      case kEnded:
        if (!f.has(kEnded) || !fits_i32(f.get(kEnded)))
          return bad(kEnded, "missing or malformed");
        e.ended = Entry{static_cast<Incarnation>(f.get(kEnded)),
                        f.get(kEnded, 1)};
        return true;
      case kKlim:
      case kKrea:
        if (!f.has(k) || !fits_i32(f.get(k)))
          return bad(k, "missing or malformed");
        (k == kKlim ? e.k_limit : e.k_reached) = static_cast<int>(f.get(k));
        return true;
      default:  // kUndone, kLost (both the event's `undone`), kLsn
        if (!f.has(k)) return bad(k, "missing or malformed");
        (k == kLsn ? e.lsn : e.undone) = f.get(k);
        return true;
    }
  };

  bool ok = false;
  switch (e.kind) {
    case EventKind::kSend:
      ok = need(kMsg) && need(kPeer) && need(kRef) && need(kTdv) &&
           need(kKlim);
      break;
    case EventKind::kDeliver:
      ok = need(kMsg) && need(kPeer) && need(kRef) && need(kTdv);
      break;
    case EventKind::kBufferHold:
      ok = need(kMsg) && need(kKlim) && need(kKrea) && need(kQueue);
      break;
    case EventKind::kBufferRelease:
      ok = need(kMsg) && need(kPeer) && need(kRef) && need(kTdv) &&
           need(kKlim) && need(kKrea);
      break;
    case EventKind::kCheckpoint:
      ok = need(kTdv);
      break;
    case EventKind::kFailureAnnounce:
      ok = need(kEnded) && need(kFail);
      break;
    case EventKind::kRollback:
      ok = need(kEnded) && need(kUndone);
      break;
    case EventKind::kOutputCommit:
      ok = need(kMsg) && need(kRef) && need(kTdv);
      break;
    case EventKind::kRetransmit:
      ok = need(kMsg) && need(kPeer);
      break;
    case EventKind::kIncarnationBump:
      ok = true;
      break;
    case EventKind::kStorageFlush:
    case EventKind::kStorageRecover:
    case EventKind::kProgressNotify:
      ok = need(kLsn);
      break;
    case EventKind::kRecorderDrop:
      ok = need(kLost);
      break;
  }
  // A tdv the kind does not carry was decoded on the way past; drop it so
  // the event compares equal to the one that was written.
  if (ok && !keep_tdv) e.tdv = DepVector();
  return ok;
}

}  // namespace

Trace read_trace_jsonl(std::istream& is, std::vector<std::string>& errors) {
  Trace trace;
  StreamingTraceParser parser(
      [&](ProtocolEvent&& e) { trace.events.push_back(std::move(e)); });
  // Bytes in the stream, when it can tell (a file or a string, not a pipe).
  std::streamoff size = -1;
  if (const std::streampos start = is.tellg(); start != std::streampos(-1)) {
    if (is.seekg(0, std::ios::end)) size = is.tellg() - start;
    is.clear();
    is.seekg(start);
  }
  char buf[1 << 16];
  std::streamoff fed = 0;
  bool sized = false;
  while (is.read(buf, sizeof buf), is.gcount() > 0) {
    parser.feed(std::string_view(buf, static_cast<size_t>(is.gcount())));
    fed += is.gcount();
    if (!sized && size > fed && !trace.events.empty()) {
      // Size the event vector once, from the first chunk's bytes per event
      // plus a margin: regrowing it would move every event again and touch
      // up to three times its final memory.
      sized = true;
      const double per_event =
          static_cast<double>(fed) / static_cast<double>(trace.events.size());
      trace.events.reserve(
          trace.events.size() +
          static_cast<size_t>(static_cast<double>(size - fed) / per_event * 1.1));
    }
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
  JsonLexer lx(line);
  if (lx.peek() != '{') {
    // Valid JSON of another type, or not JSON at all.
    if (!lx.skip_value(0)) {
      err(lx.error());
    } else {
      err(lx.at_end() ? "line is not a JSON object"
                      : "trailing characters after JSON value");
    }
    return;
  }
  LineFields f;
  ProtocolEvent e;
  if (!walk_line(lx, n_, f, e)) {
    err(lx.error());
    return;
  }
  if (!lx.at_end()) {
    err("trailing characters after JSON value");
    return;
  }
  const bool has_kind = f.has(kKind);
  // Health sidecar lines (obs/health/health_io.h) may be interleaved with a
  // trace when both are pointed at the same file; they are runtime
  // telemetry, not protocol events, so the reader skips them silently.
  if (has_kind && (f.kind == "health" || f.kind == "health_meta")) return;
  if (!have_meta_) {
    have_meta_ = true;
    if (!has_kind || f.kind != "meta") {
      err("first line must be the meta header {\"kind\":\"meta\",...}");
      n_ = 1 << 20;  // keep parsing so later errors still surface
      return;
    }
    if (!f.has(kVersion) || f.get(kVersion) != 1) {
      err("unsupported or missing trace version (want 1)");
    }
    int64_t n = f.has(kN) ? f.get(kN) : 0;
    if (n < 1 || n > std::numeric_limits<int>::max()) {
      err("meta header missing a positive \"n\"");
      n = 1 << 20;
    }
    n_ = static_cast<int>(n);
    return;
  }
  std::string why;
  if (!event_from_fields(f, n_, e, why)) {
    err(why);
    return;
  }
  ++events_parsed_;
  if (on_event_) on_event_(std::move(e));
}

void StreamingTraceParser::feed(std::string_view chunk) {
  if (finished_) return;
  auto parse_terminated = [&](std::string_view line) {
    // Tolerate CRLF writers.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    parse_line(line);
  };
  // Complete the line left over from the previous chunk, then parse whole
  // lines in place; only a trailing fragment is copied into buf_.
  if (!buf_.empty()) {
    const size_t nl = chunk.find('\n');
    if (nl == std::string_view::npos) {
      buf_.append(chunk);
      return;
    }
    buf_.append(chunk.substr(0, nl));
    parse_terminated(buf_);
    buf_.clear();
    chunk.remove_prefix(nl + 1);
  }
  for (size_t nl = chunk.find('\n'); nl != std::string_view::npos;
       nl = chunk.find('\n')) {
    parse_terminated(chunk.substr(0, nl));
    chunk.remove_prefix(nl + 1);
  }
  buf_.assign(chunk);
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
