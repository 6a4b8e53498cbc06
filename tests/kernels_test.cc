// SIMD kernel layer equivalence tests.
//
// The dispatched kernels (`kernels::*`) must agree with the scalar
// references (`kernels::scalar::*`) within floating-point reassociation
// tolerance across awkward shapes: odd band counts, sub-block tails
// (1..9 members, 1..5 pixel rows), member ranges that straddle the 8-lane
// pack blocks. In a RIF_DISABLE_SIMD build the dispatched entry points ARE
// the scalar references, and these tests pin that down bit-exactly — so
// running this suite on both CI legs is the cross-build half of the
// tolerance contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/spectral_angle.h"
#include "linalg/kernels.h"
#include "linalg/kernels_table.h"
#include "linalg/matrix.h"
#include "linalg/stats.h"
#include "support/rng.h"

namespace rif::linalg::kernels {
namespace {

std::vector<float> random_floats(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<double> random_doubles(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Reassociation tolerance: |simd - scalar| <= tol * (n + 1) ulp-ish slack.
double tol(int n) { return 1e-12 * (n + 1); }

TEST(KernelsTest, BackendIsConsistentWithSimdFlag) {
  if (simd_enabled()) {
    EXPECT_STRNE(backend(), "scalar");
  } else {
    EXPECT_STREQ(backend(), "scalar");
  }
}

TEST(KernelsTest, DotMatchesScalarAcrossLengths) {
  for (int n = 1; n <= 40; ++n) {
    const auto x = random_floats(n, 100 + n);
    const auto y = random_floats(n, 200 + n);
    const double expect = scalar::dot(x.data(), y.data(), n);
    EXPECT_NEAR(dot(x.data(), y.data(), n), expect, tol(n)) << "n=" << n;
  }
  for (const int n : {64, 105, 128, 210}) {
    const auto x = random_floats(n, 300 + n);
    const auto y = random_floats(n, 400 + n);
    EXPECT_NEAR(dot(x.data(), y.data(), n),
                scalar::dot(x.data(), y.data(), n), tol(n));
  }
}

TEST(KernelsTest, DotDfMatchesScalarAcrossLengths) {
  for (const int n : {1, 2, 3, 5, 7, 9, 16, 31, 33, 105}) {
    const auto x = random_doubles(n, 500 + n);
    const auto y = random_floats(n, 600 + n);
    EXPECT_NEAR(dot_df(x.data(), y.data(), n),
                scalar::dot_df(x.data(), y.data(), n), tol(n))
        << "n=" << n;
  }
}

TEST(KernelsTest, DotNormMatchesScalar) {
  for (const int n : {1, 3, 7, 8, 15, 32, 105, 211}) {
    const auto x = random_floats(n, 700 + n);
    const auto y = random_floats(n, 800 + n);
    double d_s, nx_s, ny_s, d_v, nx_v, ny_v;
    scalar::dot_norm(x.data(), y.data(), n, &d_s, &nx_s, &ny_s);
    dot_norm(x.data(), y.data(), n, &d_v, &nx_v, &ny_v);
    EXPECT_NEAR(d_v, d_s, tol(n)) << "n=" << n;
    EXPECT_NEAR(nx_v, nx_s, tol(n)) << "n=" << n;
    EXPECT_NEAR(ny_v, ny_s, tol(n)) << "n=" << n;
  }
}

TEST(KernelsTest, Dot8MatchesPerMemberDotsAtOddBandCounts) {
  for (const int bands : {1, 2, 3, 5, 7, 8, 9, 31, 33, 105}) {
    // Pack 8 members band-major, keep the AoS copies for the reference.
    std::vector<std::vector<float>> members;
    std::vector<float> pack(static_cast<std::size_t>(bands) * kScreenLanes);
    for (int m = 0; m < kScreenLanes; ++m) {
      members.push_back(random_floats(bands, 900 + bands * 10 + m));
      for (int b = 0; b < bands; ++b) {
        pack[static_cast<std::size_t>(b) * kScreenLanes + m] = members[m][b];
      }
    }
    const auto pixel = random_floats(bands, 999 + bands);
    double out[kScreenLanes];
    dot8(pack.data(), pixel.data(), bands, out);
    for (int m = 0; m < kScreenLanes; ++m) {
      EXPECT_NEAR(out[m],
                  scalar::dot(members[m].data(), pixel.data(), bands),
                  tol(bands))
          << "bands=" << bands << " lane=" << m;
    }
  }
}

TEST(KernelsTest, Dot8ZeroLanesOfPartialBlockStayZero) {
  // The UniqueSet pack zero-fills unused lanes; their dots must be exactly
  // zero so a partially filled block is safe to run through the kernel.
  const int bands = 13;
  std::vector<float> pack(static_cast<std::size_t>(bands) * kScreenLanes,
                          0.0f);
  const auto member = random_floats(bands, 77);
  for (int b = 0; b < bands; ++b) {
    pack[static_cast<std::size_t>(b) * kScreenLanes] = member[b];  // lane 0
  }
  const auto pixel = random_floats(bands, 78);
  double out[kScreenLanes];
  dot8(pack.data(), pixel.data(), bands, out);
  EXPECT_NEAR(out[0], scalar::dot(member.data(), pixel.data(), bands),
              tol(bands));
  for (int m = 1; m < kScreenLanes; ++m) EXPECT_EQ(out[m], 0.0);
}

TEST(KernelsTest, Rank1UpdateMatchesScalarBothSigns) {
  for (const int dims : {1, 2, 3, 5, 8, 9, 33}) {
    const auto c = random_doubles(dims, 1100 + dims);
    const std::size_t tri = static_cast<std::size_t>(dims) * (dims + 1) / 2;
    std::vector<double> a(tri, 0.5);
    std::vector<double> b(tri, 0.5);
    scalar::rank1_update(a.data(), c.data(), dims, 1.0);
    rank1_update(b.data(), c.data(), dims, 1.0);
    scalar::rank1_update(a.data(), c.data(), dims, -0.5);
    rank1_update(b.data(), c.data(), dims, -0.5);
    for (std::size_t i = 0; i < tri; ++i) {
      EXPECT_NEAR(b[i], a[i], 1e-12) << "dims=" << dims << " idx=" << i;
    }
  }
}

TEST(KernelsTest, RankKMatchesScalarAcrossRowTails) {
  // 1..5 pixel rows (sub-block tails) at odd dims, vs the scalar triangle.
  for (const int dims : {1, 3, 7, 9, 33}) {
    for (int rows = 1; rows <= 5; ++rows) {
      const auto cols =
          random_doubles(dims * rows, 1200 + dims * 10 + rows);
      const std::size_t tri =
          static_cast<std::size_t>(dims) * (dims + 1) / 2;
      std::vector<double> a(tri, 0.25);
      std::vector<double> b(tri, 0.25);
      scalar::rank_k_update(a.data(), cols.data(), dims, rows);
      rank_k_update(b.data(), cols.data(), dims, rows);
      for (std::size_t i = 0; i < tri; ++i) {
        EXPECT_NEAR(b[i], a[i], tol(rows))
            << "dims=" << dims << " rows=" << rows << " idx=" << i;
      }
    }
  }
}

TEST(KernelsTest, ProjectMatchesScalarAcrossShapes) {
  for (const int comps : {1, 2, 3, 4, 5}) {
    for (const int bands : {1, 3, 7, 31, 33, 105}) {
      const auto t = random_doubles(comps * bands, 1300 + comps * 7 + bands);
      const auto bias = random_doubles(comps, 1400 + comps);
      const auto pixel = random_floats(bands, 1500 + bands);
      std::vector<float> a(static_cast<std::size_t>(comps));
      std::vector<float> b(static_cast<std::size_t>(comps));
      scalar::project(t.data(), comps, bands, bias.data(), pixel.data(),
                      a.data());
      project(t.data(), comps, bands, bias.data(), pixel.data(), b.data());
      for (int c = 0; c < comps; ++c) {
        EXPECT_NEAR(b[c], a[c], 1e-5f)
            << "comps=" << comps << " bands=" << bands << " c=" << c;
      }
    }
  }
}

TEST(KernelsTest, DispatchedIsBitExactScalarWhenSimdDisabled) {
  if (simd_enabled()) GTEST_SKIP() << "SIMD build: covered by NEAR tests";
  const int n = 37;
  const auto x = random_floats(n, 1600);
  const auto y = random_floats(n, 1601);
  EXPECT_EQ(dot(x.data(), y.data(), n), scalar::dot(x.data(), y.data(), n));
}

// --- runtime dispatch --------------------------------------------------------

/// Restore the startup tier selection when a test returns, however it
/// exits — dispatch state is process-global.
struct BackendGuard {
  ~BackendGuard() { reset_backend(); }
};

TEST(RuntimeDispatchTest, EveryAvailableTierSwitchesAndAgreesWithScalar) {
  const BackendGuard guard;
  const auto tiers = available_backends();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.back(), "scalar");  // the floor is always present

  const int n = 105;
  const auto x = random_floats(n, 2000);
  const auto y = random_floats(n, 2001);
  const double expect = scalar::dot(x.data(), y.data(), n);
  for (const std::string& tier : tiers) {
    ASSERT_TRUE(set_backend(tier.c_str())) << tier;
    EXPECT_STREQ(backend(), tier.c_str());
    EXPECT_EQ(simd_enabled(), tier != "scalar");
    EXPECT_NEAR(dot(x.data(), y.data(), n), expect, tol(n)) << tier;
  }
}

TEST(RuntimeDispatchTest, ForcedScalarTierIsBitExactReference) {
  const BackendGuard guard;
  ASSERT_TRUE(set_backend("scalar"));
  EXPECT_STREQ(backend(), "scalar");
  EXPECT_FALSE(simd_enabled());
  const int n = 41;
  const auto x = random_floats(n, 2100);
  const auto y = random_floats(n, 2101);
  EXPECT_EQ(dot(x.data(), y.data(), n), scalar::dot(x.data(), y.data(), n));
  const auto t = random_doubles(3 * n, 2102);
  const auto bias = random_doubles(3, 2103);
  std::vector<float> a(3), b(3);
  scalar::project(t.data(), 3, n, bias.data(), x.data(), a.data());
  project(t.data(), 3, n, bias.data(), x.data(), b.data());
  for (int c = 0; c < 3; ++c) EXPECT_EQ(b[c], a[c]);
}

TEST(RuntimeDispatchTest, UnknownOrUnsupportedTierIsRefusedUnchanged) {
  const BackendGuard guard;
  const std::string before = backend();
  EXPECT_FALSE(set_backend("avx512"));
  EXPECT_FALSE(set_backend(""));
  EXPECT_FALSE(set_backend(nullptr));
  EXPECT_EQ(backend(), before);
}

TEST(RuntimeDispatchTest, EnvOverrideForcesAndFallsBackWhenBogus) {
  const BackendGuard guard;
  ASSERT_EQ(setenv("RIF_SIMD", "scalar", 1), 0);
  EXPECT_STREQ(reset_backend(), "scalar");
  EXPECT_STREQ(backend(), "scalar");

  // A tier this binary/CPU cannot run falls back to detection (with a
  // logged warning), never to a crash or a silently wrong table.
  ASSERT_EQ(setenv("RIF_SIMD", "no-such-isa", 1), 0);
  const std::string detected = reset_backend();
  const auto tiers = available_backends();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), detected), tiers.end());

  ASSERT_EQ(unsetenv("RIF_SIMD"), 0);
}

TEST(RuntimeDispatchTest, RuntimeTierIsBitIdenticalToCompileTimeTier) {
  // The acceptance contract of runtime dispatch: when the build's
  // compile-time path selected tier X (e.g. -march=native on an AVX2
  // host), the runtime-dispatched tier X — the one portable builds run —
  // computes the very same bytes. With pinned per-TU flags both tables
  // point at functionally identical code; this pins it bit-exactly.
  const BackendGuard guard;
  const KernelTable& compiled = compiled_table();
  if (!set_backend(compiled.name)) {
    GTEST_SKIP() << "compile-time tier " << compiled.name
                 << " has no runtime table here";
  }
  const int n = 105;
  const auto x = random_floats(n, 2200);
  const auto y = random_floats(n, 2201);
  EXPECT_EQ(dot(x.data(), y.data(), n), compiled.dot(x.data(), y.data(), n));
  const auto xd = random_doubles(n, 2202);
  EXPECT_EQ(dot_df(xd.data(), y.data(), n),
            compiled.dot_df(xd.data(), y.data(), n));

  std::vector<float> pack(static_cast<std::size_t>(n) * kScreenLanes);
  for (std::size_t i = 0; i < pack.size(); ++i) {
    pack[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i)));
  }
  double got[kScreenLanes], want[kScreenLanes];
  dot8(pack.data(), x.data(), n, got);
  compiled.dot8(pack.data(), x.data(), n, want);
  for (int m = 0; m < kScreenLanes; ++m) EXPECT_EQ(got[m], want[m]);

  const auto t = random_doubles(3 * n, 2203);
  const auto bias = random_doubles(3, 2204);
  std::vector<float> a(3), b(3);
  project(t.data(), 3, n, bias.data(), x.data(), a.data());
  compiled.project(t.data(), 3, n, bias.data(), x.data(), b.data());
  for (int c = 0; c < 3; ++c) EXPECT_EQ(a[c], b[c]);
}

// --- UniqueSet pack integration ----------------------------------------------

core::UniqueSet build_set(int bands, int members, double threshold,
                          std::uint64_t seed) {
  core::UniqueSet set(bands, threshold);
  Rng rng(seed);
  int added = 0;
  while (added < members) {
    std::vector<float> px(static_cast<std::size_t>(bands));
    for (auto& v : px) v = static_cast<float>(rng.uniform(0.05, 1.0));
    if (set.screen(px)) ++added;
  }
  return set;
}

TEST(UniqueSetPackTest, AnyWithinFindsExactlyTheInRangeMember) {
  // A scaled copy of member j has spectral angle 0 to member j — within
  // any threshold — and (by unique-set construction) exceeds the threshold
  // to every other member. So any_within over [begin, end) must be true
  // iff j is in range, for every (begin, end) straddling pack blocks and
  // for set sizes covering sub-block tails (1..9 members).
  const int bands = 21;
  const double threshold = 0.05;
  for (int members = 1; members <= 9; ++members) {
    const core::UniqueSet set = build_set(bands, members, threshold, 42);
    ASSERT_EQ(set.size(), static_cast<std::size_t>(members));
    for (int j = 0; j < members; ++j) {
      std::vector<float> probe(set.member(j).begin(), set.member(j).end());
      for (auto& v : probe) v *= 2.0f;  // same direction, double the norm
      const double inv =
          1.0 / std::sqrt(scalar::dot(probe.data(), probe.data(), bands));
      for (int begin = 0; begin <= members; ++begin) {
        for (int end = begin; end <= members; ++end) {
          const bool expect = begin <= j && j < end;
          EXPECT_EQ(set.any_within(probe, inv, begin, end), expect)
              << "members=" << members << " j=" << j << " range=[" << begin
              << "," << end << ")";
        }
      }
    }
  }
}

TEST(UniqueSetPackTest, RangesAcrossBlockBoundariesOnLargerSet) {
  const int bands = 33;  // odd: exercises the kernel tail
  const int members = 21;  // 2 full blocks + 5-lane tail
  const double threshold = 0.04;
  const core::UniqueSet set = build_set(bands, members, threshold, 7);
  ASSERT_EQ(set.size(), static_cast<std::size_t>(members));
  for (const int j : {0, 7, 8, 15, 16, 20}) {
    std::vector<float> probe(set.member(j).begin(), set.member(j).end());
    for (auto& v : probe) v *= 0.5f;
    const double inv =
        1.0 / std::sqrt(scalar::dot(probe.data(), probe.data(), bands));
    for (const int begin : {0, 1, 7, 8, 9, 15, 16}) {
      for (const int end : {begin, 7, 8, 9, 16, 20, 21}) {
        if (end < begin) continue;
        EXPECT_EQ(set.any_within(probe, inv, begin, end),
                  begin <= j && j < end)
            << "j=" << j << " range=[" << begin << "," << end << ")";
      }
    }
  }
}

TEST(UniqueSetPackTest, FromFlatRebuildsIdenticalPack) {
  const int bands = 19;
  const double threshold = 0.05;
  const core::UniqueSet set = build_set(bands, 11, threshold, 99);
  const core::UniqueSet rebuilt =
      core::UniqueSet::from_flat(bands, threshold, set.flat());
  ASSERT_EQ(rebuilt.size(), set.size());
  // Same members, same pack: identical screening decisions and identical
  // comparison counts for any probe.
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> probe(static_cast<std::size_t>(bands));
    for (auto& v : probe) v = static_cast<float>(rng.uniform(0.05, 1.0));
    const double inv =
        1.0 / std::sqrt(scalar::dot(probe.data(), probe.data(), bands));
    std::uint64_t comp_a = 0, comp_b = 0;
    const bool a = set.any_within(probe, inv, 0, set.size(), &comp_a);
    const bool b =
        rebuilt.any_within(probe, inv, 0, rebuilt.size(), &comp_b);
    EXPECT_EQ(a, b) << "trial " << trial;
    EXPECT_EQ(comp_a, comp_b) << "trial " << trial;
  }
}

// --- the premise of the in-order fold ----------------------------------------
//
// core::UniqueSet::merge never tests a tile's member against members
// admitted earlier from the same tile: screen() already tested that pair
// inside the tile, with the same kernel and cosine expression, and it
// missed. That holds only if a lane's dot product depends on its member
// and the candidate alone, not on the member's lane or on what the other
// lanes of its block hold.

/// A vector at `angle` radians from `m`, in a seeded direction.
std::vector<float> at_angle(std::span<const float> m, double angle, Rng& rng) {
  const std::size_t n = m.size();
  std::vector<double> u(m.begin(), m.end());
  std::vector<double> w(n);
  double uu = 0.0;
  for (const double x : u) uu += x * x;
  for (auto& x : u) x /= std::sqrt(uu);
  for (auto& x : w) x = rng.uniform(-1.0, 1.0);
  double wu = 0.0;
  for (std::size_t i = 0; i < n; ++i) wu += w[i] * u[i];
  double ww = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] -= wu * u[i];
    ww += w[i] * w[i];
  }
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::cos(angle) * u[i] +
                              std::sin(angle) * w[i] / std::sqrt(ww));
  }
  return v;
}

TEST(FoldPremiseTest, Dot8LaneValueIgnoresLaneAndNeighbours) {
  const BackendGuard guard;
  for (const std::string& tier : available_backends()) {
    ASSERT_TRUE(set_backend(tier.c_str())) << tier;
    for (const int n : {1, 2, 7, 8, 21, 105}) {
      const auto member = random_floats(n, 3000 + n);
      const auto pixel = random_floats(n, 3100 + n);
      std::vector<double> seen;
      for (int lane = 0; lane < kScreenLanes; ++lane) {
        // Neighbours: zero (a partly filled last block), unit-scale noise,
        // and magnitudes far above the member's.
        for (const double scale : {0.0, 1.0, 1e6}) {
          Rng rng(static_cast<std::uint64_t>(lane * 31 + n));
          std::vector<float> pack(static_cast<std::size_t>(n) * kScreenLanes);
          for (int b = 0; b < n; ++b) {
            for (int k = 0; k < kScreenLanes; ++k) {
              pack[static_cast<std::size_t>(b) * kScreenLanes + k] =
                  k == lane ? member[b]
                            : static_cast<float>(scale *
                                                 rng.uniform(-1.0, 1.0));
            }
          }
          double out[kScreenLanes];
          dot8(pack.data(), pixel.data(), n, out);
          seen.push_back(out[lane]);
        }
      }
      for (const double v : seen) {
        EXPECT_EQ(v, seen.front()) << tier << " n=" << n;
      }
    }
  }
}

TEST(FoldPremiseTest, AnyWithinIgnoresTheMembersLane) {
  const BackendGuard guard;
  const int n = 21;
  const double threshold = 0.05;
  for (const std::string& tier : available_backends()) {
    ASSERT_TRUE(set_backend(tier.c_str())) << tier;
    Rng rng(4242);
    std::vector<float> target(static_cast<std::size_t>(n));
    for (auto& v : target) v = static_cast<float>(rng.uniform(0.05, 1.0));
    // Fillers point every which way: ~90 degrees from the target, the
    // probes and each other, so they never hit.
    std::vector<std::vector<float>> fillers;
    for (int f = 0; f < kScreenLanes - 1; ++f) {
      fillers.push_back(random_floats(n, 5000 + f));
    }
    for (const double angle : {threshold / 2, threshold - 1e-7,
                               threshold + 1e-7, 2 * threshold}) {
      const auto probe = at_angle(target, angle, rng);
      const double inv = 1.0 / std::sqrt(dot(probe.data(), probe.data(), n));
      std::vector<int> answers;
      for (int lane = 0; lane < kScreenLanes; ++lane) {
        core::UniqueSet set(n, threshold);
        for (int f = 0; f < kScreenLanes - 1; ++f) {
          if (f == lane) ASSERT_TRUE(set.screen(target));
          ASSERT_TRUE(set.screen(fillers[static_cast<std::size_t>(f)]));
        }
        if (lane == kScreenLanes - 1) ASSERT_TRUE(set.screen(target));
        ASSERT_EQ(set.size(), static_cast<std::size_t>(kScreenLanes));
        std::uint64_t count = 0;
        const bool hit = set.any_within(probe, inv, 0, set.size(), &count);
        // Member-by-member: a hit on the target at `lane` counts lane+1.
        EXPECT_EQ(count, hit ? static_cast<std::uint64_t>(lane) + 1
                             : static_cast<std::uint64_t>(kScreenLanes))
            << tier << " angle=" << angle << " lane=" << lane;
        std::uint64_t own = 0;
        EXPECT_EQ(set.any_within(probe, inv, lane, lane + 1, &own), hit);
        EXPECT_EQ(own, 1u);
        answers.push_back(hit ? 1 : 0);
      }
      for (const int a : answers) {
        EXPECT_EQ(a, answers.front()) << tier << " angle=" << angle;
      }
      if (angle < threshold / 1.5) EXPECT_EQ(answers.front(), 1) << tier;
      if (angle > threshold * 1.5) EXPECT_EQ(answers.front(), 0) << tier;
    }
  }
}

}  // namespace
}  // namespace rif::linalg::kernels
