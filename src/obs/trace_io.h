// JSONL trace serialization and strict schema validation.
//
// A trace file is one JSON object per line. The first line is a meta
// header; every other line is one ProtocolEvent:
//
//   {"kind":"meta","version":1,"n":4}
//   {"kind":"send","t":0,"p":1,"seq":3,"at":[0,4],"msg":[1,2],"peer":3,
//    "ref":[1,0,4],"tdv":[[0,1,3],[1,0,4]],"klim":4}
//
// Common fields (every event line): kind, t (sim µs), p (process id),
// seq (per-process emission counter), at ([inc,sii] the event is
// attributed to). Encodings: msg = [src,seq]; ref = [pid,inc,sii];
// ended = [inc,sii]; tdv = the non-NULL entries as [pid,inc,sii] triples
// (NULL omission, Theorem 2's wire format). Per-kind required fields:
//
//   send             msg, peer, ref, tdv, klim
//   deliver          msg, peer, ref, tdv
//   buffer_hold      msg, queue ("send"|"recv"), klim, krea
//   buffer_release   msg, peer, ref, tdv, klim, krea
//   checkpoint       tdv
//   failure_announce ended, fail (bool)
//   rollback         ended, undone
//   output_commit    msg, ref, tdv
//   retransmit       msg, peer
//   incarnation_bump (none)
//   storage_flush    lsn
//   storage_recover  lsn
//   progress_notify  lsn
//   recorder_drop    lost (events dropped by a saturated ring recorder)
//
// The reader is strict: unknown kinds, missing required fields, malformed
// encodings and out-of-range process ids are schema violations, reported
// per line. Unknown *extra* fields are tolerated (schema evolution); of a
// duplicated key the first occurrence counts.
//
// No external JSON dependency. The writer appends each line into one
// reused buffer with std::to_chars. The reader decodes the schema directly
// in one left-to-right pass over each line, on the allocation-free lexer of
// obs/json.h: keys are matched on their raw bytes, integers go straight
// into int64_t (the whole token, range-checked: a digit loop up to 18
// digits, std::from_chars beyond) and are then checked against the field's
// own type, tdv triples go straight into the event's DepVector, and
// unknown values are validated and skipped. It follows the lexer's strict
// number grammar and its nesting bound (kJsonMaxDepth), so a hostile line
// is a "line N: ..." error, never a crash. Nothing is allocated per event
// beyond a DepVector that outgrows its inline slots.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event.h"
#include "obs/event_recorder.h"

namespace koptlog {

/// A parsed trace: the meta header's process count plus the event stream
/// in file order (per-process substreams preserve emission order).
struct Trace {
  int n = 0;
  std::vector<ProtocolEvent> events;
};

/// Append one event as a single JSON line (no trailing newline) to `out`.
void append_event_json(std::string& out, const ProtocolEvent& e);
/// The same line as a fresh string.
std::string event_to_json(const ProtocolEvent& e);

void write_trace_jsonl(int n, const std::vector<ProtocolEvent>& events,
                       std::ostream& os);
void write_trace_jsonl(const Recording& rec, std::ostream& os);
/// Returns false (and writes nothing) if the file cannot be opened.
bool write_trace_jsonl_file(const Recording& rec, const std::string& path);

/// Parse and validate a whole JSONL trace by feeding it through a
/// StreamingTraceParser. Schema violations are appended to `errors` as
/// "line N: ..." strings; lines that fail validation are skipped, valid ones
/// are kept, so a caller can both report every problem and still audit the
/// salvageable stream. Strict about the end of input: a torn final line is a
/// "line N: ..." error here, not a tolerated torn tail. A clean parse leaves
/// `errors` untouched.
Trace read_trace_jsonl(std::istream& is, std::vector<std::string>& errors);

/// JSON string escaping (shared by the exporters).
std::string json_escape(std::string_view s);

/// Incremental JSONL parser for traces that are still being written
/// (koptlog_audit --follow, live re-audit of a streamed file). Feed byte
/// chunks as they arrive; every complete line is validated and dispatched to
/// the callback immediately, in file order. This is the one JSONL decoder:
/// read_trace_jsonl drives it too. Mid-file garbage is a schema error (the
/// meta header must come first; health sidecar lines are skipped); an
/// *unterminated final fragment* is not — it is either a line still being
/// appended (keep feeding) or a torn tail from a crashed writer, which
/// finish() reports separately so an auditor can tolerate it without masking
/// real violations.
class StreamingTraceParser {
 public:
  /// Receives each valid event; it may move from it.
  using EventFn = std::function<void(ProtocolEvent&&)>;

  explicit StreamingTraceParser(EventFn on_event);
  ~StreamingTraceParser();

  void feed(std::string_view chunk);

  /// Declare end of input. If a buffered unterminated fragment parses as a
  /// valid event it is accepted (writer just omitted the last newline);
  /// otherwise it is recorded as a torn tail, not a schema error.
  void finish();

  bool have_meta() const { return have_meta_; }
  /// Process count from the meta header (0 until it is seen).
  int n() const { return n_; }
  size_t events_parsed() const { return events_parsed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  /// Non-empty after finish() iff the input ended mid-line.
  const std::string& torn_tail() const { return torn_; }
  /// Bytes currently buffered awaiting a newline.
  size_t pending_bytes() const { return buf_.size(); }

 private:
  void parse_line(std::string_view line);

  EventFn on_event_;
  std::string buf_;
  std::vector<std::string> errors_;
  std::string torn_;
  size_t lineno_ = 0;
  int n_ = 0;
  bool have_meta_ = false;
  bool finished_ = false;
  size_t events_parsed_ = 0;
};

}  // namespace koptlog
