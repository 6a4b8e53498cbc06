// Tests of the benchmark's own helpers: statistics, result line,
// fingerprint, stage ledger and output oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness.h"

namespace e2e {
namespace {

// Expected cut points are what Python's statistics.quantiles(v, n=4)
// prints for the same samples.
TEST(HarnessStats, QuartilesMatchPythonExclusiveMethod) {
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({3.0, 1.0});
  EXPECT_DOUBLE_EQ(b.q1, 0.5);
  EXPECT_DOUBLE_EQ(b.q2, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 3.5);
  const Quartiles c = quartiles({0.5, 0.1, 0.9, 0.3, 0.7});
  EXPECT_NEAR(c.q1, 0.2, 1e-15);
  EXPECT_NEAR(c.q2, 0.5, 1e-15);
  EXPECT_NEAR(c.q3, 0.8, 1e-15);
}

TEST(HarnessStats, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(HarnessStats, TailNeedsTenSamplesBeyondIt) {
  std::vector<double> v(99);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_FALSE(tail_percentile(v).has_value());
  v.push_back(99.0);
  const auto tail = tail_percentile(v);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->label, "p90");
  EXPECT_DOUBLE_EQ(tail->value, 89.0);
}

TEST(HarnessResult, JsonHasExactlyTheContractKeys) {
  const std::string line =
      result_json(true, 12, 0,
                  {{"setup_s", 0.8127, "s"}, {"latency_ms", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.81269999999999998, "
            "\"unit\": \"s\"}, \"latency_ms\": {\"value\": "
            "0.33333333333333331, \"unit\": \"ms\"}}}");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
}

TEST(HarnessFingerprint, NamesEveryField) {
  std::istringstream cpuinfo(
      "processor\t: 0\nvendor_id\t: GenuineIntel\n"
      "model name\t: Example CPU @ 2.00GHz\nprocessor\t: 1\n"
      "model name\t: Other\n");
  Fingerprint f;
  f.backend = "avx2";
  f.cpu_model = cpu_model_from(cpuinfo);
  f.nproc = 4;
  f.compiler = "gcc 12";
  f.build_type = "Release";
  f.seed = 7;
  EXPECT_EQ(f.cpu_model, "Example CPU @ 2.00GHz");
  EXPECT_EQ(fingerprint_line(f),
            "machine: backend=avx2 cpu=\"Example CPU @ 2.00GHz\" nproc=4 "
            "compiler=\"gcc 12\" build=Release seed=7");
  std::istringstream empty("");
  EXPECT_EQ(cpu_model_from(empty), "unknown");

  Regime r{"dense_high_unique", 128, 128, 105, 0.012, 0.77, 8, 4, 2};
  EXPECT_EQ(regime_line(r),
            "regime: workload=dense_high_unique scene=128x128x105 "
            "theta=0.012 K/N=0.77 tiles=8 threads=4 remote_workers=2");
}

std::vector<Span> replay_spans(double gap) {
  // Parent [0, 10); stages [1, 3) and [3 + gap, 6); a grandchild inside the
  // first stage must not count as a stage.
  return {
      Span{0, -1, "replay", 0.0, 10.0, "w", 0},
      Span{1, 0, "screen", 1.0, 3.0, "w", 0},
      Span{2, 1, "tile", 1.5, 2.5, "w", 0},
      Span{3, 0, "merge", 3.0 + gap, 6.0, "w", 0},
  };
}

TEST(HarnessLedger, StagesPlusUnattributedEqualWall) {
  const auto spans = replay_spans(0.0);
  const Ledger l = stage_ledger(spans, 0);
  EXPECT_TRUE(l.consistent);
  EXPECT_DOUBLE_EQ(l.wall, 10.0);
  EXPECT_DOUBLE_EQ(l.stage_sum, 5.0);
  EXPECT_DOUBLE_EQ(l.unattributed, 5.0);
  EXPECT_DOUBLE_EQ(l.stage_sum + l.unattributed, l.wall);
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 5.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 1.0);
}

TEST(HarnessLedger, OverlappingStagesAreInconsistent) {
  EXPECT_FALSE(stage_ledger(replay_spans(-1.0), 0).consistent);
}

TEST(HarnessLedger, RecorderKeepsParentsAndDurations) {
  SpanRecorder rec;
  int child = -1;
  {
    const ScopedSpan parent(&rec, "parent", -1, "w", 3);
    const ScopedSpan c(&rec, "child", parent.id(), "w", 3);
    child = c.id();
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[static_cast<std::size_t>(child)].parent, 0);
  EXPECT_EQ(spans[0].rep, 3);
  EXPECT_GE(spans[0].duration(), spans[1].duration());
  const ScopedSpan off(nullptr, "ignored", -1, "w", 0);
  EXPECT_EQ(off.id(), -1);
}

FusionOutput sample_output() {
  return {{10, 20, 30, 40, 50, 60}, 42, {5.0, 2.0, 1e-12}};
}

TEST(HarnessOracle, RejectsOneByteOffByTwo) {
  const FusionOutput ref = sample_output();
  FusionOutput got = sample_output();
  EXPECT_EQ(check_exact(ref, got), "");
  EXPECT_EQ(check_tolerant(ref, got), "");
  got.composite[4] += 2;
  EXPECT_NE(check_exact(ref, got), "");
  EXPECT_NE(check_tolerant(ref, got), "");
}

TEST(HarnessOracle, ToleranceAllowsOneLevelOnlyForTolerantEngines) {
  const FusionOutput ref = sample_output();
  FusionOutput got = sample_output();
  got.composite[0] -= 1;
  got.eigenvalues[0] *= 1.0 + 5e-10;
  EXPECT_EQ(check_tolerant(ref, got), "");
  EXPECT_NE(check_exact(ref, got), "");
  got.eigenvalues[0] = ref.eigenvalues[0] * (1.0 + 2e-9);
  EXPECT_NE(check_tolerant(ref, got), "");
  FusionOutput other_k = sample_output();
  other_k.unique_set_size = 41;
  EXPECT_NE(check_tolerant(ref, other_k), "");
}

}  // namespace
}  // namespace e2e
