// OutputBuffer unit tests: 0-optimistic output commit (paper §4.2 — an
// output is a message to the outside world with K = 0). A record commits
// only when every dependency entry passes the engine's stability predicate;
// with Theorem 2 on, entries are NULLed as they pass.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/output_buffer.h"
#include "runtime_test_util.h"

namespace koptlog {
namespace {

OutputRecord record(RuntimeFixture& fx, SeqNo seq,
                    std::initializer_list<ProcessId> deps) {
  OutputRecord rec;
  rec.id = MsgId{0, seq};
  rec.tdv = DepVector(fx.rt.n);
  for (ProcessId j : deps) rec.tdv.set(j, Entry{1, static_cast<Sii>(seq)});
  rec.born_of = IntervalId{0, 1, static_cast<Sii>(seq)};
  rec.created_at = fx.api.sim().now();
  return rec;
}

TEST(OutputBufferTest, CommitsOnlyWhenEveryDependencyIsStable) {
  RuntimeFixture fx;
  OutputBuffer ob(fx.rt, /*null_stable_entries=*/true);
  ob.push(record(fx, 1, {1, 2}));

  // Only P1's intervals are stable: no commit, but the passing entry is
  // NULLed (commit dependency tracking).
  ob.check([](ProcessId j, const Entry&) { return j == 1; });
  EXPECT_TRUE(fx.api.outputs.empty());
  EXPECT_EQ(ob.size(), 1u);

  // P2 stabilizes next; the previously-NULLed P1 entry is not re-tested.
  int asked_p1 = 0;
  ob.check([&](ProcessId j, const Entry&) {
    if (j == 1) ++asked_p1;
    return j == 2;
  });
  EXPECT_EQ(asked_p1, 0);
  ASSERT_EQ(fx.api.outputs.size(), 1u);
  EXPECT_EQ(fx.api.outputs[0].id.seq, 1);
  EXPECT_TRUE(ob.empty());
}

TEST(OutputBufferTest, WithoutNullingStabilityIsRetestedEachCheck) {
  RuntimeFixture fx;
  // The Strom–Yemini / full-TDV regime: entries are never NULLed.
  OutputBuffer ob(fx.rt, /*null_stable_entries=*/false);
  ob.push(record(fx, 1, {1, 2}));

  ob.check([](ProcessId j, const Entry&) { return j == 1; });
  EXPECT_TRUE(fx.api.outputs.empty());

  int asked_p1 = 0;
  ob.check([&](ProcessId j, const Entry&) {
    if (j == 1) ++asked_p1;
    return true;
  });
  EXPECT_EQ(asked_p1, 1);
  EXPECT_EQ(fx.api.outputs.size(), 1u);
}

TEST(OutputBufferTest, DiscardIfDropsOrphanedRecords) {
  RuntimeFixture fx;
  OutputBuffer ob(fx.rt, true);
  ob.push(record(fx, 1, {1}));
  ob.push(record(fx, 2, {2}));

  std::vector<SeqNo> discarded;
  size_t n = ob.discard_if(
      [](const DepVector& v) { return v.at(2).has_value(); },
      [&](const OutputRecord& rec) { discarded.push_back(rec.id.seq); });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(discarded, (std::vector<SeqNo>{2}));
  EXPECT_EQ(ob.size(), 1u);
  EXPECT_TRUE(fx.api.outputs.empty());
}

}  // namespace
}  // namespace koptlog
