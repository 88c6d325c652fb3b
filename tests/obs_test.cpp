// The src/obs/ pipeline in isolation: recorder stamping, deterministic
// merge order, JSONL round-trip fidelity, strict-schema rejection, and the
// Perfetto/Prometheus exporters' surface shape. The end-to-end path
// (record a run -> serialize -> audit) lives in audit_test.cpp.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/audit.h"
#include "obs/event.h"
#include "obs/event_recorder.h"
#include "obs/export.h"
#include "obs/ring_recorder.h"
#include "obs/trace_io.h"

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
