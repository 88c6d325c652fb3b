// Configuration presets and the trace facility.
#include <gtest/gtest.h>

#include "common/trace.h"
#include "core/config.h"

namespace koptlog {
namespace {

TEST(ConfigTest, DefaultIsTraditionalOptimistic) {
  ProtocolConfig cfg;
  EXPECT_EQ(cfg.k, ProtocolConfig::kUnboundedK);
  EXPECT_TRUE(cfg.null_stable_entries);
  EXPECT_TRUE(cfg.cor1_fast_delivery);
  EXPECT_FALSE(cfg.announce_all_rollbacks);
  EXPECT_FALSE(cfg.pessimistic_sync_logging);
  EXPECT_TRUE(cfg.garbage_collect);
  EXPECT_FALSE(cfg.reliable_delivery);
  EXPECT_FALSE(cfg.coordinated_checkpoints);
}

TEST(ConfigTest, KOptimisticPreset) {
  ProtocolConfig cfg = ProtocolConfig::k_optimistic(3);
  EXPECT_EQ(cfg.k, 3);
  EXPECT_TRUE(cfg.null_stable_entries);  // required for finite K
}

TEST(ConfigTest, StromYeminiPresetDisablesAllThreeImprovements) {
  ProtocolConfig cfg = ProtocolConfig::strom_yemini();
  EXPECT_FALSE(cfg.null_stable_entries);   // no Theorem 2
  EXPECT_FALSE(cfg.cor1_fast_delivery);    // no Corollary 1
  EXPECT_TRUE(cfg.announce_all_rollbacks); // no Theorem 1
  EXPECT_GE(cfg.k, 1 << 20);               // inherently N-optimistic
}

TEST(ConfigTest, PessimisticPreset) {
  ProtocolConfig cfg = ProtocolConfig::pessimistic();
  EXPECT_EQ(cfg.k, 0);
  EXPECT_TRUE(cfg.pessimistic_sync_logging);
}

TEST(ConfigTest, BaselineHelpersMatchPresets) {
  EXPECT_EQ(ProtocolConfig::pessimistic().k, 0);
  EXPECT_FALSE(ProtocolConfig::strom_yemini().cor1_fast_delivery);
  ProtocolConfig full = ProtocolConfig::full_tdv();
  EXPECT_FALSE(full.null_stable_entries);
  EXPECT_TRUE(full.cor1_fast_delivery);  // ablation keeps the other two
  EXPECT_FALSE(full.announce_all_rollbacks);
  EXPECT_EQ(ProtocolConfig::k_optimistic(2).k, 2);
}

TEST(TracerTest, DisabledByDefault) {
  Tracer t;
  EXPECT_FALSE(t.enabled(TraceLevel::kInfo));
  int calls = 0;
  t.log(TraceLevel::kInfo, 0, 0, [&](std::ostream&) { ++calls; });
  EXPECT_EQ(calls, 0);  // formatting is lazy: never evaluated when off
}

TEST(TracerTest, LevelFiltering) {
  Tracer t;
  std::string out;
  t.set_sink(Tracer::string_sink(out), TraceLevel::kInfo);
  EXPECT_TRUE(t.enabled(TraceLevel::kInfo));
  EXPECT_FALSE(t.enabled(TraceLevel::kDebug));
  t.log(TraceLevel::kDebug, 5, 1, [](std::ostream& os) { os << "hidden"; });
  t.log(TraceLevel::kInfo, 7, 2, [](std::ostream& os) { os << "shown"; });
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("7 P2 shown"), std::string::npos);
}

TEST(TracerTest, StringSinkFormat) {
  Tracer t;
  std::string out;
  t.set_sink(Tracer::string_sink(out), TraceLevel::kDebug);
  t.emit(42, 3, "hello");
  EXPECT_EQ(out, "42 P3 hello\n");
}

TEST(TracerTest, StringSinkAppendsOneRowPerEmit) {
  std::string out;
  Tracer::Sink sink = Tracer::string_sink(out);
  sink(0, 0, "first");
  sink(1'000'000, 12, "second row, with punctuation: (0,4)_1");
  EXPECT_EQ(out,
            "0 P0 first\n"
            "1000000 P12 second row, with punctuation: (0,4)_1\n");
}

}  // namespace
}  // namespace koptlog
