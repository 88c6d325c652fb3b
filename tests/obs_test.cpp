// The src/obs/ pipeline in isolation: recorder stamping, deterministic
// merge order, JSONL round-trip fidelity, strict-schema rejection, the JSON
// lexer's number and nesting rules, the trace decoder against a reference
// DOM reader, and the Perfetto/Prometheus exporters' surface shape. The
// end-to-end path (record a run -> serialize -> audit) lives in
// audit_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "app/workloads.h"
#include "core/cluster.h"
#include "obs/audit.h"
#include "obs/event.h"
#include "obs/event_recorder.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/ring_recorder.h"
#include "obs/trace_io.h"

#ifndef KOPTLOG_TEST_DIR
#define KOPTLOG_TEST_DIR "."
#endif

namespace koptlog {
namespace {

TEST(EventKindTest, NamesRoundTripForEveryKind) {
  // Enumerates via kEventKindCount so a newly added kind cannot dodge the
  // check by being left off a hand-maintained list.
  for (int32_t i = 0; i < kEventKindCount; ++i) {
    EventKind k = static_cast<EventKind>(i);
    std::string_view name = event_kind_name(k);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown") << "kind " << i << " has no name";
    auto back = event_kind_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(event_kind_from_name("not_a_kind").has_value());
  EXPECT_FALSE(event_kind_from_name("").has_value());
}

TEST(EventRecorderTest, StampsPidAndSequence) {
  VectorRecorder r(3);
  ProtocolEvent e;
  e.kind = EventKind::kCheckpoint;
  e.t = 10;
  e.pid = 99;  // recorder must overwrite this
  e.seq = 99;
  r.record(e);
  e.t = 20;
  r.record(e);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.events()[0].pid, 3);
  EXPECT_EQ(r.events()[0].seq, 0u);
  EXPECT_EQ(r.events()[1].pid, 3);
  EXPECT_EQ(r.events()[1].seq, 1u);
  r.clear();
  EXPECT_EQ(r.size(), 0u);
  r.record(e);
  EXPECT_EQ(r.events()[0].seq, 0u);  // sequence restarts after clear
}

TEST(RingRecorderTest, DropsAndMarksOverflowWithOrderedStamps) {
  RingRecorder r(/*pid=*/1, /*capacity=*/4);
  EXPECT_EQ(r.capacity(), 4u);
  auto ev = [](SimTime t) {
    ProtocolEvent e;
    e.kind = EventKind::kCheckpoint;
    e.t = t;
    return e;
  };
  for (SimTime t = 0; t < 4; ++t) r.record(ev(t));
  EXPECT_EQ(r.occupancy(), 4u);
  // Ring full: the next three are dropped and counted, not stored.
  for (SimTime t = 4; t < 7; ++t) r.record(ev(t));
  EXPECT_EQ(r.dropped(), 3u);
  EXPECT_EQ(r.occupancy(), 4u);
  // Free space, then append: the gap marker must precede the new event and
  // carry a *smaller* seq (stamp order is stream order).
  std::vector<ProtocolEvent> drained;
  r.drain(2, [&](const ProtocolEvent& e) { drained.push_back(e); });
  ASSERT_EQ(drained.size(), 2u);
  r.record(ev(7));
  drained.clear();
  r.drain(100, [&](const ProtocolEvent& e) { drained.push_back(e); });
  ASSERT_EQ(drained.size(), 4u);  // 2 old events + marker + new event
  const ProtocolEvent& gap = drained[2];
  const ProtocolEvent& after = drained[3];
  EXPECT_EQ(gap.kind, EventKind::kRecorderDrop);
  EXPECT_EQ(gap.undone, 3);
  EXPECT_EQ(gap.pid, 1);
  EXPECT_EQ(gap.t, after.t);
  EXPECT_EQ(after.kind, EventKind::kCheckpoint);
  EXPECT_LT(gap.seq, after.seq);
  EXPECT_EQ(r.occupancy(), 0u);
  EXPECT_EQ(r.max_occupancy(), 4u);
  // size() counts accepted events (4 originals + marker + late one).
  EXPECT_EQ(r.size(), 6u);
}

TEST(RingRecorderTest, MarkerWaitsForTwoFreeSlots) {
  RingRecorder r(/*pid=*/0, /*capacity=*/2);
  auto ev = [](SimTime t) {
    ProtocolEvent e;
    e.kind = EventKind::kCheckpoint;
    e.t = t;
    return e;
  };
  r.record(ev(0));
  r.record(ev(1));
  r.record(ev(2));  // dropped
  EXPECT_EQ(r.dropped(), 1u);
  // Only one slot free: the marker cannot stay adjacent to the gap, so the
  // incoming event is dropped too rather than separating them.
  std::vector<ProtocolEvent> drained;
  r.drain(1, [&](const ProtocolEvent& e) { drained.push_back(e); });
  r.record(ev(3));
  EXPECT_EQ(r.dropped(), 2u);
  // With both slots free the marker (now covering 2 drops) and the next
  // event land together.
  r.drain(1, [&](const ProtocolEvent& e) { drained.push_back(e); });
  drained.clear();
  r.record(ev(4));
  r.drain(100, [&](const ProtocolEvent& e) { drained.push_back(e); });
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].kind, EventKind::kRecorderDrop);
  EXPECT_EQ(drained[0].undone, 2);
  EXPECT_EQ(drained[1].t, 4);
}

TEST(RingRecorderTest, SnapshotAndClearCoverResidualWindow) {
  Recording rec(2, RecordingOptions{RecordMode::kRing, /*ring_capacity=*/8});
  EXPECT_EQ(rec.mode(), RecordMode::kRing);
  ASSERT_NE(rec.ring(0), nullptr);
  ProtocolEvent e;
  e.kind = EventKind::kCheckpoint;
  e.t = 5;
  rec.recorder(0).record(e);
  rec.recorder(1).record(e);
  EXPECT_EQ(rec.total_events(), 2u);
  std::vector<ProtocolEvent> merged = rec.merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].pid, 0);
  EXPECT_EQ(merged[1].pid, 1);
  EXPECT_EQ(rec.total_dropped(), 0u);
  rec.clear();
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_EQ(rec.ring(0)->occupancy(), 0u);
}

TEST(RecordingTest, MergedIsOrderedByTimePidSeq) {
  Recording rec(3);
  auto ev = [](SimTime t, EventKind k) {
    ProtocolEvent e;
    e.kind = k;
    e.t = t;
    return e;
  };
  // Same timestamp across processes; multiple events per process.
  rec.recorder(2).record(ev(100, EventKind::kCheckpoint));
  rec.recorder(0).record(ev(100, EventKind::kCheckpoint));
  rec.recorder(0).record(ev(100, EventKind::kRollback));
  rec.recorder(1).record(ev(50, EventKind::kCheckpoint));
  EXPECT_EQ(rec.total_events(), 4u);
  std::vector<ProtocolEvent> merged = rec.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].t, 50);
  EXPECT_EQ(merged[0].pid, 1);
  EXPECT_EQ(merged[1].pid, 0);
  EXPECT_EQ(merged[1].seq, 0u);
  EXPECT_EQ(merged[2].pid, 0);
  EXPECT_EQ(merged[2].seq, 1u);
  EXPECT_EQ(merged[3].pid, 2);
}

/// merged()'s specification: one stable sort of the per-process streams
/// concatenated in pid order.
std::vector<ProtocolEvent> stable_sort_reference(const Recording& rec) {
  std::vector<ProtocolEvent> all;
  for (ProcessId p = 0; p < rec.n(); ++p) rec.recorder(p).snapshot(all);
  std::stable_sort(all.begin(), all.end(),
                   [](const ProtocolEvent& a, const ProtocolEvent& b) {
                     if (a.t != b.t) return a.t < b.t;
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.seq < b.seq;
                   });
  return all;
}

/// A seeded 5-process run with two crashes, recorded.
std::unique_ptr<Cluster> recorded_multi_failure_run() {
  ClusterConfig cfg;
  cfg.n = 5;
  cfg.seed = 4242;
  cfg.protocol.k = 2;
  cfg.enable_oracle = false;
  cfg.record_events = true;
  auto cluster =
      std::make_unique<Cluster>(cfg, make_uniform_app({.output_every = 4}));
  cluster->start();
  inject_uniform_load(*cluster, 150, 1'000, 600'000, 5, 17);
  cluster->fail_at(200'000, 1);
  cluster->fail_at(380'000, 3);
  cluster->run_for(2'000'000);
  cluster->drain();
  return cluster;
}

TEST(RecordingTest, MergedEqualsStableSortOnMultiFailureRun) {
  std::unique_ptr<Cluster> cluster = recorded_multi_failure_run();
  const Recording& rec = *cluster->recording();
  std::vector<ProtocolEvent> merged = rec.merged();
  EXPECT_GT(merged.size(), 1000u);
  EXPECT_EQ(merged, stable_sort_reference(rec));
}

TEST(RecordingTest, MergedSortsAStreamRecordedOutOfTimeOrder) {
  // Per-process streams are (t, seq)-ordered in every real run; a
  // hand-built one need not be. Such a stream is stable-sorted alone before
  // the merge, so the output still equals the whole-stream stable sort.
  Recording rec(3);
  auto ev = [](SimTime t, EventKind k, int64_t lsn) {
    ProtocolEvent e;
    e.kind = k;
    e.t = t;
    e.lsn = lsn;
    return e;
  };
  rec.recorder(1).record(ev(300, EventKind::kStorageFlush, 1));
  rec.recorder(1).record(ev(100, EventKind::kStorageFlush, 2));
  rec.recorder(1).record(ev(200, EventKind::kStorageFlush, 3));
  rec.recorder(1).record(ev(100, EventKind::kProgressNotify, 4));
  rec.recorder(0).record(ev(100, EventKind::kCheckpoint, 5));
  rec.recorder(0).record(ev(250, EventKind::kCheckpoint, 6));
  rec.recorder(2).record(ev(50, EventKind::kCheckpoint, 7));
  rec.recorder(2).record(ev(100, EventKind::kCheckpoint, 8));
  std::vector<ProtocolEvent> merged = rec.merged();
  EXPECT_EQ(merged, stable_sort_reference(rec));
  std::vector<int64_t> order;
  for (const ProtocolEvent& e : merged) order.push_back(e.lsn);
  EXPECT_EQ(order, (std::vector<int64_t>{7, 5, 2, 4, 8, 3, 6, 1}));
}

/// One event of every kind, with every kind-relevant field populated,
/// so the round-trip test exercises each serializer branch.
std::vector<ProtocolEvent> one_of_each(int n) {
  DepVector tdv(n);
  tdv.set(0, Entry{1, 3});
  tdv.set(2, Entry{0, 7});
  std::vector<ProtocolEvent> out;
  ProtocolEvent e;
  e.kind = EventKind::kSend;
  e.t = 1;
  e.pid = 0;
  e.at = Entry{1, 3};
  e.tdv = tdv;
  e.msg = MsgId{0, 5};
  e.peer = 2;
  e.ref = IntervalId{0, 1, 3};
  e.k_limit = 2;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kDeliver;
  e.t = 2;
  e.pid = 2;
  e.at = Entry{0, 8};
  e.tdv = tdv;
  e.msg = MsgId{0, 5};
  e.peer = 0;
  e.ref = IntervalId{0, 1, 3};
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kBufferHold;
  e.t = 3;
  e.pid = 0;
  e.at = Entry{1, 3};
  e.msg = MsgId{0, 6};
  e.k_limit = 2;
  e.k_reached = 3;
  e.recv_side = false;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kBufferRelease;
  e.t = 4;
  e.pid = 0;
  e.at = Entry{1, 3};
  e.tdv = tdv;
  e.msg = MsgId{0, 6};
  e.peer = 1;
  e.ref = IntervalId{0, 1, 3};
  e.k_limit = 2;
  e.k_reached = 2;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kCheckpoint;
  e.t = 5;
  e.pid = 1;
  e.at = Entry{0, 4};
  e.tdv = tdv;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kFailureAnnounce;
  e.t = 6;
  e.pid = 1;
  e.at = Entry{1, 5};
  e.ended = Entry{0, 4};
  e.from_failure = true;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kRollback;
  e.t = 7;
  e.pid = 2;
  e.at = Entry{0, 6};
  e.ended = Entry{0, 8};
  e.undone = 3;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kOutputCommit;
  e.t = 8;
  e.pid = 2;
  e.at = Entry{0, 6};
  e.tdv = tdv;
  e.msg = MsgId{2, 9};
  e.ref = IntervalId{2, 0, 6};
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kRetransmit;
  e.t = 9;
  e.pid = 0;
  e.at = Entry{1, 3};
  e.msg = MsgId{0, 5};
  e.peer = 2;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kIncarnationBump;
  e.t = 10;
  e.pid = 1;
  e.at = Entry{1, 5};
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kStorageFlush;
  e.t = 11;
  e.pid = 0;
  e.at = Entry{1, 4};
  e.lsn = 12;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kStorageRecover;
  e.t = 12;
  e.pid = 1;
  e.at = Entry{1, 5};
  e.lsn = 7;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kProgressNotify;
  e.t = 13;
  e.pid = 0;
  e.at = Entry{1, 4};
  e.lsn = 5;
  out.push_back(e);
  e = ProtocolEvent{};
  e.kind = EventKind::kRecorderDrop;
  e.t = 14;
  e.pid = 2;
  e.at = Entry{0, 6};
  e.undone = 17;
  out.push_back(e);
  return out;
}

TEST(TraceIoTest, OneOfEachCoversEveryEventKind) {
  // The serializer round-trip below only proves fidelity for the kinds it
  // is fed; this pins the feed itself to the enum, so adding an EventKind
  // without extending the schema (and this fixture) fails loudly.
  std::vector<bool> seen(static_cast<size_t>(kEventKindCount), false);
  for (const ProtocolEvent& e : one_of_each(3)) {
    seen[static_cast<size_t>(e.kind)] = true;
  }
  for (int32_t i = 0; i < kEventKindCount; ++i) {
    EXPECT_TRUE(seen[static_cast<size_t>(i)])
        << "one_of_each() is missing kind "
        << event_kind_name(static_cast<EventKind>(i));
  }
}

TEST(TraceIoTest, JsonlRoundTripPreservesEveryField) {
  const int n = 3;
  std::vector<ProtocolEvent> events = one_of_each(n);
  std::ostringstream os;
  write_trace_jsonl(n, events, os);
  std::string text = os.str();
  // Header first, then one line per event.
  EXPECT_EQ(text.rfind("{\"kind\":\"meta\",\"version\":1,\"n\":3}\n", 0), 0u);
  std::istringstream is(text);
  std::vector<std::string> errors;
  Trace trace = read_trace_jsonl(is, errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  EXPECT_EQ(trace.n, n);
  ASSERT_EQ(trace.events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(trace.events[i], events[i])
        << "event " << i << ": " << event_to_json(events[i]);
  }
}

TEST(TraceIoTest, StrictReaderReportsSchemaViolationsPerLine) {
  // Valid header and one valid event surrounded by five kinds of garbage:
  // the reader must report each bad line yet keep the good event.
  std::string text =
      "{\"kind\":\"meta\",\"version\":1,\"n\":2}\n"
      "{\"kind\":\"not_a_kind\",\"t\":1,\"p\":0,\"seq\":0,\"at\":[0,1]}\n"
      "{\"kind\":\"send\",\"t\":1,\"p\":0,\"seq\":1,\"at\":[0,1]}\n"  // no msg
      "{\"kind\":\"checkpoint\",\"t\":1,\"p\":7,\"seq\":0,"  // pid >= n
      "\"at\":[0,1],\"tdv\":[]}\n"
      "this is not json\n"
      "{\"kind\":\"checkpoint\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
      "\"tdv\":[]}\n";
  std::istringstream is(text);
  std::vector<std::string> errors;
  Trace trace = read_trace_jsonl(is, errors);
  EXPECT_EQ(trace.n, 2);
  ASSERT_EQ(trace.events.size(), 1u);  // only the last line survives
  EXPECT_EQ(trace.events[0].kind, EventKind::kCheckpoint);
  EXPECT_EQ(trace.events[0].pid, 1);
  ASSERT_EQ(errors.size(), 4u);
  for (const std::string& err : errors) {
    EXPECT_EQ(err.rfind("line ", 0), 0u) << err;
  }
}

TEST(TraceIoTest, MissingOrBadHeaderIsAnError) {
  {
    std::istringstream is("");
    std::vector<std::string> errors;
    read_trace_jsonl(is, errors);
    EXPECT_FALSE(errors.empty());
  }
  {
    std::istringstream is(
        "{\"kind\":\"checkpoint\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
        "\"tdv\":[]}\n");
    std::vector<std::string> errors;
    read_trace_jsonl(is, errors);
    EXPECT_FALSE(errors.empty());
  }
}

TEST(TraceIoTest, StrictReaderReportsTornFinalLineAsLineError) {
  // Only koptlog_audit tolerates a torn tail; read_trace_jsonl is strict,
  // so the fragment is a numbered error and the lines before it are kept.
  std::string text =
      "{\"kind\":\"meta\",\"version\":1,\"n\":2}\n"
      "{\"kind\":\"checkpoint\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
      "\"tdv\":[]}\n"
      "{\"kind\":\"checkpoint\",\"t\":3,\"p\":0,\"se";  // writer died here
  std::istringstream is(text);
  std::vector<std::string> errors;
  Trace trace = read_trace_jsonl(is, errors);
  EXPECT_EQ(trace.n, 2);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].pid, 1);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].rfind("line 3: ", 0), 0u) << errors[0];
}

TEST(StreamingTraceParserTest, ChunkedFeedMatchesBatchReader) {
  const int n = 3;
  std::vector<ProtocolEvent> events = one_of_each(n);
  std::ostringstream os;
  write_trace_jsonl(n, events, os);
  const std::string text = os.str();
  // Compared against the events that were written, not against
  // read_trace_jsonl (which is built on this parser).
  std::vector<ProtocolEvent> streamed;
  StreamingTraceParser parser(
      [&](const ProtocolEvent& e) { streamed.push_back(e); });
  // Feed in adversarially small chunks so lines straddle every boundary.
  for (size_t i = 0; i < text.size(); i += 7) {
    parser.feed(std::string_view(text).substr(i, 7));
  }
  parser.finish();
  EXPECT_TRUE(parser.errors().empty())
      << (parser.errors().empty() ? "" : parser.errors()[0]);
  EXPECT_TRUE(parser.torn_tail().empty());
  EXPECT_EQ(parser.n(), n);
  ASSERT_EQ(streamed.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(streamed[i], events[i]) << "event " << i;
  }
}

TEST(StreamingTraceParserTest, TornFinalLineIsReportedNotAnError) {
  std::string text =
      "{\"kind\":\"meta\",\"version\":1,\"n\":2}\n"
      "{\"kind\":\"checkpoint\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
      "\"tdv\":[]}\n"
      "{\"kind\":\"checkpoint\",\"t\":3,\"p\":0,\"se";  // writer died here
  size_t count = 0;
  StreamingTraceParser parser([&](const ProtocolEvent&) { ++count; });
  parser.feed(text);
  parser.finish();
  EXPECT_TRUE(parser.errors().empty())
      << (parser.errors().empty() ? "" : parser.errors()[0]);
  EXPECT_FALSE(parser.torn_tail().empty());
  EXPECT_EQ(count, 1u);
}

TEST(StreamingTraceParserTest, CompleteUnterminatedLastLineIsAccepted) {
  std::string text =
      "{\"kind\":\"meta\",\"version\":1,\"n\":2}\n"
      "{\"kind\":\"checkpoint\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
      "\"tdv\":[]}";  // valid, just no trailing newline
  size_t count = 0;
  StreamingTraceParser parser([&](const ProtocolEvent&) { ++count; });
  parser.feed(text);
  parser.finish();
  EXPECT_TRUE(parser.errors().empty());
  EXPECT_TRUE(parser.torn_tail().empty());
  EXPECT_EQ(count, 1u);
}

TEST(StreamingTraceParserTest, MidFileGarbageStaysAnError) {
  std::string text =
      "{\"kind\":\"meta\",\"version\":1,\"n\":2}\n"
      "this is not json\n"
      "{\"kind\":\"checkpoint\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
      "\"tdv\":[]}\n";
  size_t count = 0;
  StreamingTraceParser parser([&](const ProtocolEvent&) { ++count; });
  parser.feed(text);
  parser.finish();
  ASSERT_EQ(parser.errors().size(), 1u);
  EXPECT_EQ(parser.errors()[0].rfind("line 2", 0), 0u) << parser.errors()[0];
  EXPECT_EQ(count, 1u);
}

// ---------------------------------------------------------------------------
// The JSON lexer's number and nesting rules
// ---------------------------------------------------------------------------

bool parses(std::string_view text, JsonValue* out = nullptr) {
  JsonValue v;
  std::string err;
  const bool ok = JsonParser(text).parse(v, err);
  if (out != nullptr) *out = std::move(v);
  return ok;
}

TEST(JsonParserTest, NumbersFollowTheStrictGrammar) {
  // The parser used to hand each token to std::stod, which parses a prefix:
  // these parsed as [1], [1] and [5].
  for (const char* bad : {"[1-2]", "[1e]", "[+5]", "[01]", "[-]", "[1.]",
                          "[.5]", "[1e+]", "[--1]", "[0x10]"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
  for (const char* good : {"[0]", "[-0]", "[1.5]", "[1e3]", "[1E+3]",
                           "[-2.5e-3]", "[1e300]", "[ 7 ]"}) {
    EXPECT_TRUE(parses(good)) << good;
  }
}

TEST(JsonParserTest, IntegerExtractionIsExactAndRangeChecked) {
  auto int_of = [](std::string_view text, int64_t& out) {
    JsonValue v;
    EXPECT_TRUE(parses(text, &v)) << text;
    return v.arr.size() == 1 && json_as_int64(&v.arr[0], out);
  };
  int64_t x = 0;
  // Once rounded through a double to ...992.
  ASSERT_TRUE(int_of("[9007199254740993]", x));
  EXPECT_EQ(x, 9007199254740993);
  ASSERT_TRUE(int_of("[9223372036854775807]", x));
  EXPECT_EQ(x, std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(int_of("[-9223372036854775808]", x));
  EXPECT_EQ(x, std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(int_of("[-0]", x));
  EXPECT_EQ(x, 0);
  // Valid numbers that are not int64_t integers. 1e300 and -1e19 were cast
  // from an out-of-range double (undefined behaviour).
  for (const char* not_int : {"[1e300]", "[-1e19]", "[9223372036854775808]",
                              "[-9223372036854775809]", "[1.0]", "[1e2]"}) {
    EXPECT_FALSE(int_of(not_int, x)) << not_int;
  }
}

TEST(JsonParserTest, NestingIsBoundedInsteadOfOverflowingTheStack) {
  auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(parses(nested(kJsonMaxDepth)));
  JsonValue v;
  std::string err;
  EXPECT_FALSE(JsonParser(nested(kJsonMaxDepth + 1)).parse(v, err));
  EXPECT_EQ(err, "nesting too deep at offset " + std::to_string(kJsonMaxDepth));
  // Recursed once per '[' and segfaulted.
  const std::string deep = "{\"kind\":\"meta\",\"x\":" + std::string(1 << 20, '[');
  EXPECT_FALSE(JsonParser(deep).parse(v, err));
  EXPECT_EQ(err.rfind("nesting too deep at offset ", 0), 0u) << err;
  JsonLexer lx(deep);
  EXPECT_FALSE(lx.skip_value(0));
  EXPECT_EQ(lx.error(), err);
}

// ---------------------------------------------------------------------------
// The trace decoder against a reference DOM reader
// ---------------------------------------------------------------------------

// The reference is the mapping the trace reader used before it decoded the
// schema directly: parse each line into a JsonValue tree, then look every
// field up with find(). It sits on the same (strict) JsonParser, so the two
// must agree on every input except the narrowing cases listed in
// DecoderRejectsNarrowingTheReferenceAccepted.
namespace reference {

bool as_int64(const JsonValue* v, int64_t& out) {
  return json_as_int64(v, out);
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

}  // namespace reference

/// What a reader made of a whole text.
struct ReadOutcome {
  int n = 0;
  std::vector<ProtocolEvent> events;
  std::vector<std::string> errors;
};

/// The reference reader: split lines, parse each into a tree, then map it.
ReadOutcome reference_read(std::string_view text) {
  ReadOutcome out;
  bool have_meta = false;
  size_t lineno = 0;
  while (!text.empty()) {
    size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++lineno;
    if (line.empty()) continue;
    auto err = [&](const std::string& what) {
      out.errors.push_back("line " + std::to_string(lineno) + ": " + what);
    };
    JsonValue v;
    std::string parse_err;
    if (!JsonParser(line).parse(v, parse_err)) {
      err(parse_err);
      continue;
    }
    if (v.type != JsonValue::Type::kObj) {
      err("line is not a JSON object");
      continue;
    }
    const JsonValue* kind = v.find("kind");
    if (kind && kind->type == JsonValue::Type::kStr &&
        (kind->str == "health" || kind->str == "health_meta"))
      continue;
    if (!have_meta) {
      have_meta = true;
      if (!kind || kind->type != JsonValue::Type::kStr || kind->str != "meta") {
        err("first line must be the meta header {\"kind\":\"meta\",...}");
        out.n = 1 << 20;
        continue;
      }
      int64_t version = 0, n = 0;
      if (!json_as_int64(v.find("version"), version) || version != 1) {
        err("unsupported or missing trace version (want 1)");
      }
      if (!json_as_int64(v.find("n"), n) || n < 1) {
        err("meta header missing a positive \"n\"");
        n = 1 << 20;
      }
      out.n = static_cast<int>(n);
      continue;
    }
    ProtocolEvent e;
    std::string why;
    if (!reference::event_from_json(v, out.n, e, why)) {
      err(why);
      continue;
    }
    out.events.push_back(std::move(e));
  }
  return out;
}

/// The decoder, fed the way read_trace_jsonl feeds it.
ReadOutcome decoder_read(std::string_view text) {
  ReadOutcome out;
  StreamingTraceParser parser(
      [&](ProtocolEvent&& e) { out.events.push_back(std::move(e)); });
  parser.feed(text);
  parser.feed("\n");
  parser.finish();
  out.n = parser.n();
  out.errors = parser.errors();
  return out;
}

void expect_same_outcome(std::string_view text, const std::string& what) {
  ReadOutcome ref = reference_read(text);
  ReadOutcome dec = decoder_read(text);
  EXPECT_EQ(dec.n, ref.n) << what;
  EXPECT_EQ(dec.errors, ref.errors) << what;
  ASSERT_EQ(dec.events.size(), ref.events.size()) << what;
  for (size_t i = 0; i < ref.events.size(); ++i) {
    ASSERT_EQ(dec.events[i], ref.events[i])
        << what << ": event " << i << " " << event_to_json(ref.events[i]);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string jsonl(int n, const std::vector<ProtocolEvent>& events) {
  std::ostringstream os;
  write_trace_jsonl(n, events, os);
  return os.str();
}

/// The top-level members of a flat JSON object line, as "key":value texts.
std::vector<std::string> members(std::string_view line) {
  std::vector<std::string> out;
  int depth = 0;
  bool in_str = false;
  std::string cur;
  for (size_t i = 1; i + 1 < line.size(); ++i) {
    const char c = line[i];
    if (in_str) {
      if (c == '\\') cur += line[i++];
      else if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      --depth;
    } else if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    cur += line[i];
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string object(const std::vector<std::string>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) out += (i ? "," : "") + ms[i];
  return out + "}";
}

/// Every mutation of one line the differential test feeds both readers.
std::vector<std::string> mutations(const std::string& line) {
  std::vector<std::string> out;
  const std::vector<std::string> ms = members(line);
  const std::vector<std::string> extras = {
      "\"x\":5", "\"x\":-1.5e3", "\"x\":\"s\\\"\\u0001\"", "\"x\":null",
      "\"x\":[1,[2,{\"a\":false}],\"s\"]", "\"x\":{\"k\":[1,2],\"t\":true}",
      "\"x\":{}", "\"x\":[]",
      // Fields of other kinds: ignored unless this kind reads them.
      "\"tdv\":[[0,1,2]]", "\"msg\":[1,2]", "\"peer\":0", "\"ref\":[0,0,1]",
      "\"ended\":[0,1]", "\"lsn\":5", "\"lost\":2", "\"queue\":\"recv\"",
      "\"fail\":true", "\"klim\":3", "\"n\":2", "\"version\":1"};
  const std::vector<std::string> values = {
      "\"zz\"", "1.5",   "[]",      "{}",        "true",   "null",
      "-1",     "[1,2]", "[1,2,3]", "[[0,1,2]]", "\"send\"", "1e2"};
  for (size_t i = 0; i < ms.size(); ++i) {
    std::vector<std::string> dropped = ms;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(object(dropped));
    const std::string key = ms[i].substr(0, ms[i].find(':'));
    for (const std::string& v : values) {
      std::vector<std::string> m = ms;
      m[i] = key + ":" + v;  // wrong type or shape in place
      out.push_back(object(m));
      m = ms;
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(i) + 1, key + ":" + v);
      out.push_back(object(m));  // a later duplicate never wins
      m = ms;
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(i), key + ":" + v);
      out.push_back(object(m));  // an earlier one always does
    }
  }
  std::vector<std::string> reordered(ms.rbegin(), ms.rend());
  out.push_back(object(reordered));
  reordered = ms;
  std::rotate(reordered.begin(), reordered.begin() + 1, reordered.end());
  out.push_back(object(reordered));
  for (const std::string& x : extras) {
    for (size_t at : {size_t{0}, ms.size() / 2, ms.size()}) {
      std::vector<std::string> m = ms;
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), x);
      out.push_back(object(m));
    }
  }
  // Whitespace wherever JSON allows it, and the escaped spelling of a key.
  std::string spaced;
  for (char c : line) {
    spaced += c;
    if (c == ',' || c == ':' || c == '[' || c == '{') spaced += " \t";
  }
  out.push_back(" " + spaced + " ");
  std::string escaped = line;
  if (size_t k = escaped.find("\"kind\""); k != std::string::npos)
    escaped.replace(k, 6, "\"k\\u0069nd\"");
  out.push_back(escaped);
  for (size_t cut = 0; cut < line.size(); ++cut) out.push_back(line.substr(0, cut));
  return out;
}

/// Both readers over `text` whole, then over every mutation of each event
/// line (every line after the meta header) in one stream, and over every
/// mutation of the meta header in front of the first event.
void differential(const std::string& text, const std::string& what) {
  expect_same_outcome(text, what);
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  ASSERT_GE(lines.size(), 2u) << what;
  std::string fuzzed = lines[0] + "\n";
  for (size_t i = 1; i < lines.size(); ++i) {
    for (const std::string& m : mutations(lines[i])) fuzzed += m + "\n";
  }
  expect_same_outcome(fuzzed, what + " (mutated event lines)");
  for (const std::string& m : mutations(lines[0])) {
    expect_same_outcome(m + "\n" + lines[1] + "\n", what + " meta: " + m);
  }
}

TEST(TraceDecoderTest, MatchesReferenceOnFigure1Golden) {
  const std::string text =
      slurp(std::string(KOPTLOG_TEST_DIR) + "/golden/figure1_trace.jsonl");
  ASSERT_FALSE(text.empty());
  differential(text, "figure1 golden");
}

TEST(TraceDecoderTest, MatchesReferenceOnOneOfEachKind) {
  differential(jsonl(3, one_of_each(3)), "one_of_each");
}

TEST(TraceDecoderTest, MatchesReferenceOnRecordedMultiFailureRun) {
  std::unique_ptr<Cluster> cluster = recorded_multi_failure_run();
  const std::vector<ProtocolEvent> events = cluster->recording()->merged();
  const std::string text = jsonl(5, events);
  expect_same_outcome(text, "multi-failure run");
  ReadOutcome dec = decoder_read(text);
  EXPECT_TRUE(dec.errors.empty());
  EXPECT_EQ(dec.events.size(), events.size());
  // Mutate the first two lines of each kind (the whole run would be ~2M
  // mutated lines for no new shapes).
  std::istringstream is(text);
  std::string meta;
  std::getline(is, meta);
  std::string sample = meta + "\n";
  std::map<std::string, int> per_kind;
  for (std::string l; std::getline(is, l);) {
    const std::string kind = l.substr(0, l.find(',', 0));
    if (++per_kind[kind] <= 2) sample += l + "\n";
  }
  EXPECT_GE(per_kind.size(), 8u);
  differential(sample, "multi-failure run sample");
}

TEST(TraceDecoderTest, MatchesReferenceOnHealthLinesAndNestingBound) {
  const std::string meta = "{\"kind\":\"meta\",\"version\":1,\"n\":2}";
  const std::string event =
      "{\"kind\":\"checkpoint\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
      "\"tdv\":[[0,1,2]]}";
  const std::string health =
      "{\"kind\":\"health\",\"v\":1,\"t_us\":100,\"dom\":\"shard0\","
      "\"c\":{\"sched.pushes\":12},\"h\":{\"d\":{\"n\":9,\"sum\":110,"
      "\"max\":40,\"b\":[1,2,3]}}}";
  const std::string health_meta =
      "{\"kind\":\"health_meta\",\"v\":1,\"buckets\":[1,2,4]}";
  std::string text = health_meta + "\n" + meta + "\n" + health + "\n" + event;
  expect_same_outcome(text, "health lines");
  EXPECT_EQ(decoder_read(text).events.size(), 1u);
  for (const std::string& m : mutations(health)) {
    expect_same_outcome(meta + "\n" + m + "\n" + event + "\n", "health: " + m);
  }
  // An unknown field nested right up to the bound, one past it, and deep
  // enough to have overflowed the stack of a recursive reader.
  for (int depth : {kJsonMaxDepth - 1, kJsonMaxDepth, 1 << 20}) {
    const std::string x = "\"x\":" + std::string(static_cast<size_t>(depth), '[') +
                          std::string(static_cast<size_t>(depth), ']');
    const std::string line = event.substr(0, event.size() - 1) + "," + x + "}";
    const std::string deep_text = meta + "\n" + line + "\n";
    expect_same_outcome(deep_text, "depth " + std::to_string(depth));
    ReadOutcome dec = decoder_read(deep_text);
    EXPECT_EQ(dec.events.size(), depth < kJsonMaxDepth ? 1u : 0u);
    if (depth >= kJsonMaxDepth) {
      ASSERT_EQ(dec.errors.size(), 1u);
      EXPECT_EQ(dec.errors[0].rfind("line 2: nesting too deep at offset ", 0),
                0u)
          << dec.errors[0];
    }
  }
}

TEST(TraceDecoderTest, DecoderRejectsNarrowingTheReferenceAccepted) {
  // The only inputs on which the decoder and the reference differ: an
  // integer that fits int64_t but not the 32-bit field it is stored in. The
  // reference truncated it silently (pid 4294967297 became pid 1); the
  // decoder rejects the line. Against the parser before the strict number
  // grammar, the number cases of JsonParserTest (1-2, 1e, +5, 1.0, 1e300,
  // -1e19, 9007199254740993) differed too; both readers now share it.
  const std::string meta = "{\"kind\":\"meta\",\"version\":1,\"n\":2}\n";
  const std::string head = "{\"kind\":\"checkpoint\",\"t\":2,\"p\":1,\"seq\":0,";
  struct Case {
    std::string line;
    std::string why;
  };
  const std::vector<Case> cases = {
      {head + "\"at\":[4294967296,1],\"tdv\":[]}",
       "missing or malformed \"at\""},
      {head + "\"at\":[0,1],\"tdv\":[[4294967297,0,1]]}",
       "tdv entry pid out of range"},
      {head + "\"at\":[0,1],\"tdv\":[[1,4294967296,1]]}",
       "malformed tdv entry"},
      {"{\"kind\":\"retransmit\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
       "\"msg\":[4294967296,3],\"peer\":0}",
       "missing or malformed \"msg\""},
      {"{\"kind\":\"buffer_hold\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
       "\"msg\":[1,3],\"queue\":\"send\",\"klim\":4294967298,\"krea\":1}",
       "missing or malformed \"klim\""},
      {"{\"kind\":\"output_commit\",\"t\":2,\"p\":1,\"seq\":0,\"at\":[0,1],"
       "\"msg\":[1,3],\"ref\":[4294967297,0,1],\"tdv\":[]}",
       "\"ref\" pid out of range"},
  };
  for (const Case& c : cases) {
    const std::string text = meta + c.line + "\n";
    EXPECT_EQ(reference_read(text).events.size(), 1u) << c.line;
    ReadOutcome dec = decoder_read(text);
    EXPECT_TRUE(dec.events.empty()) << c.line;
    EXPECT_EQ(dec.errors, std::vector<std::string>{"line 2: " + c.why})
        << c.line;
  }
  // The meta header's n: the reference narrowed 4294967297 to 1.
  const std::string wide_n = "{\"kind\":\"meta\",\"version\":1,\"n\":4294967297}\n";
  EXPECT_EQ(reference_read(wide_n).n, 1);
  ReadOutcome dec = decoder_read(wide_n);
  EXPECT_EQ(dec.errors, std::vector<std::string>{
                            "line 1: meta header missing a positive \"n\""});
}

TEST(TraceIoTest, JsonEscapeControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\n\t"), "x\\n\\t");
}

TEST(ExportTest, PerfettoJsonHasTracksInstantsAndFlows) {
  const int n = 3;
  Trace trace;
  trace.n = n;
  trace.events = one_of_each(n);
  std::ostringstream os;
  write_perfetto_json(trace, os);
  std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  // Process-name metadata for each track.
  EXPECT_NE(out.find("process_name"), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  // Instant events and a flow from the send/release to the delivery.
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);
}

TEST(ExportTest, PrometheusTextExposesCountersAndSummaries) {
  Stats stats;
  stats.inc("announce.sent", 2);
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.sample("output.commit_latency_us", v);
  std::ostringstream os;
  write_prometheus_text(stats, os);
  std::string out = os.str();
  EXPECT_NE(out.find("koptlog_announce_sent 2"), std::string::npos);
  EXPECT_NE(out.find("# TYPE koptlog_announce_sent counter"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE koptlog_output_commit_latency_us summary"),
            std::string::npos);
  EXPECT_NE(out.find("koptlog_output_commit_latency_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(out.find("koptlog_output_commit_latency_us_count 4"),
            std::string::npos);
  EXPECT_NE(out.find("koptlog_output_commit_latency_us_sum 10"),
            std::string::npos);
}

}  // namespace
}  // namespace koptlog
