#include <gtest/gtest.h>

#include <cmath>

#include "linalg/jacobi_eig.h"
#include "linalg/matrix.h"
#include "linalg/stats.h"
#include "support/rng.h"

namespace rif::linalg {
namespace {

Matrix random_spd(int n, std::uint64_t seed) {
  // A^T A + n I is symmetric positive definite.
  Rng rng(seed);
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = a.transposed() * a;
  for (int i = 0; i < n; ++i) spd(i, i) += n;
  return spd;
}

// --- Matrix ------------------------------------------------------------------

TEST(MatrixTest, IdentityProduct) {
  const Matrix a({{1, 2}, {3, 4}});
  const Matrix i = Matrix::identity(2);
  EXPECT_LT(relative_difference(a * i, a), 1e-15);
  EXPECT_LT(relative_difference(i * a, a), 1e-15);
}

TEST(MatrixTest, ProductMatchesHand) {
  const Matrix a({{1, 2}, {3, 4}});
  const Matrix b({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, TransposeInvolution) {
  const Matrix a({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_LT(relative_difference(t.transposed(), a), 1e-15);
}

TEST(MatrixTest, ApplyMatchesProduct) {
  const Matrix a({{1, 2}, {3, 4}, {5, 6}});
  const auto y = a.apply({1.0, -1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(MatrixTest, SymmetricDetection) {
  EXPECT_TRUE(Matrix({{1, 2}, {2, 1}}).symmetric());
  EXPECT_FALSE(Matrix({{1, 2}, {3, 1}}).symmetric());
  EXPECT_FALSE(Matrix(2, 3).symmetric());
}

TEST(MatrixTest, NormsAndOffDiagonal) {
  const Matrix a({{3, 0}, {4, 0}});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(a.max_off_diagonal(), 4.0);
}

TEST(MatrixTest, DimensionMismatchAborts) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_DEATH((void)(a * b), "mismatch");
}

// --- Jacobi ------------------------------------------------------------------

TEST(JacobiTest, DiagonalMatrixTrivial) {
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 3.0;
  const EigenResult r = jacobi_eigen(d);
  EXPECT_NEAR(r.values[0], 5.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
  EXPECT_NEAR(r.values[2], 1.0, 1e-12);
}

TEST(JacobiTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const EigenResult r = jacobi_eigen(Matrix({{2, 1}, {1, 2}}));
  EXPECT_NEAR(r.values[0], 3.0, 1e-12);
  EXPECT_NEAR(r.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2).
  EXPECT_NEAR(std::abs(r.vectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(r.vectors(1, 0)), std::sqrt(0.5), 1e-10);
}

class JacobiPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JacobiPropertyTest, ReconstructsInput) {
  const int n = GetParam();
  const Matrix a = random_spd(n, 100 + n);
  const EigenResult r = jacobi_eigen(a);
  // A == V diag(L) V^T
  Matrix recon(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) {
        acc += r.vectors(i, k) * r.values[k] * r.vectors(j, k);
      }
      recon(i, j) = acc;
    }
  }
  EXPECT_LT(relative_difference(recon, a), 1e-9);
}

TEST_P(JacobiPropertyTest, VectorsOrthonormal) {
  const int n = GetParam();
  const Matrix a = random_spd(n, 200 + n);
  const EigenResult r = jacobi_eigen(a);
  const Matrix vtv = r.vectors.transposed() * r.vectors;
  EXPECT_LT(relative_difference(vtv, Matrix::identity(n)), 1e-10);
}

TEST_P(JacobiPropertyTest, ValuesSortedDescending) {
  const int n = GetParam();
  const EigenResult r = jacobi_eigen(random_spd(n, 300 + n));
  for (int i = 1; i < n; ++i) EXPECT_GE(r.values[i - 1], r.values[i]);
}

TEST_P(JacobiPropertyTest, EigenEquationHolds) {
  const int n = GetParam();
  const Matrix a = random_spd(n, 400 + n);
  const EigenResult r = jacobi_eigen(a);
  for (int k = 0; k < n; ++k) {
    std::vector<double> v(n);
    for (int i = 0; i < n; ++i) v[i] = r.vectors(i, k);
    const auto av = a.apply(v);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], r.values[k] * v[i], 1e-8 * a.frobenius_norm());
    }
  }
}

TEST_P(JacobiPropertyTest, TraceEqualsSumOfValues) {
  const int n = GetParam();
  const Matrix a = random_spd(n, 500 + n);
  const EigenResult r = jacobi_eigen(a);
  double trace = 0.0;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += r.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-9 * std::abs(trace));
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiPropertyTest,
                         ::testing::Values(2, 3, 5, 8, 16, 32, 64));

TEST(JacobiTest, SlightAsymmetryTolerated) {
  Matrix a({{2, 1.0000001}, {0.9999999, 2}});
  const EigenResult r = jacobi_eigen(a);
  EXPECT_NEAR(r.values[0], 3.0, 1e-6);
}

TEST(JacobiTest, NonSquareAborts) {
  EXPECT_DEATH((void)jacobi_eigen(Matrix(2, 3)), "square");
}

TEST(JacobiTest, FlopsEstimatePositiveAndCubic) {
  EXPECT_GT(jacobi_flops(10), 0.0);
  // Roughly cubic growth.
  EXPECT_GT(jacobi_flops(100), 500.0 * jacobi_flops(10));
}

// --- Accumulators -------------------------------------------------------------

TEST(MeanAccumulatorTest, SimpleMean) {
  MeanAccumulator acc(2);
  acc.add(std::vector<float>{1.0f, 2.0f});
  acc.add(std::vector<float>{3.0f, 6.0f});
  const auto m = acc.mean();
  EXPECT_DOUBLE_EQ(m[0], 2.0);
  EXPECT_DOUBLE_EQ(m[1], 4.0);
}

TEST(MeanAccumulatorTest, MergeEqualsSequential) {
  Rng rng(7);
  std::vector<std::vector<float>> pixels;
  for (int i = 0; i < 100; ++i) {
    pixels.push_back({static_cast<float>(rng.uniform()),
                      static_cast<float>(rng.uniform()),
                      static_cast<float>(rng.uniform())});
  }
  MeanAccumulator whole(3);
  for (const auto& p : pixels) whole.add(p);
  MeanAccumulator a(3), b(3);
  for (int i = 0; i < 40; ++i) a.add(pixels[i]);
  for (int i = 40; i < 100; ++i) b.add(pixels[i]);
  a.merge(b);
  const auto m1 = whole.mean();
  const auto m2 = a.mean();
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(m1[i], m2[i], 1e-12);
}

TEST(MeanAccumulatorTest, EncodeDecodeRoundTrip) {
  MeanAccumulator acc(2);
  acc.add(std::vector<float>{1.5f, -2.0f});
  const auto decoded = MeanAccumulator::decode(acc.encode());
  EXPECT_EQ(decoded.count(), 1u);
  EXPECT_DOUBLE_EQ(decoded.mean()[0], 1.5);
}

TEST(MeanAccumulatorTest, EmptyMeanAborts) {
  MeanAccumulator acc(2);
  EXPECT_DEATH((void)acc.mean(), "empty");
}

TEST(CovarianceTest, IdentityForUnitAxes) {
  // Pixels at +/- e_i around zero mean: covariance is diagonal.
  std::vector<double> mean{0.0, 0.0};
  CovarianceAccumulator acc(2, mean);
  acc.add(std::vector<float>{1.0f, 0.0f});
  acc.add(std::vector<float>{-1.0f, 0.0f});
  acc.add(std::vector<float>{0.0f, 2.0f});
  acc.add(std::vector<float>{0.0f, -2.0f});
  const Matrix cov = acc.covariance();
  EXPECT_DOUBLE_EQ(cov(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(cov(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 0.0);
}

TEST(CovarianceTest, MergeEqualsSequential) {
  Rng rng(13);
  const int dims = 5;
  std::vector<double> mean(dims, 0.5);
  CovarianceAccumulator whole(dims, mean);
  CovarianceAccumulator p1(dims, mean), p2(dims, mean), p3(dims, mean);
  for (int i = 0; i < 300; ++i) {
    std::vector<float> px(dims);
    for (auto& v : px) v = static_cast<float>(rng.uniform());
    whole.add(px);
    (i % 3 == 0 ? p1 : i % 3 == 1 ? p2 : p3).add(px);
  }
  p1.merge(p2);
  p1.merge(p3);
  EXPECT_LT(relative_difference(whole.covariance(), p1.covariance()), 1e-12);
}

TEST(CovarianceTest, EncodeDecodeRoundTrip) {
  std::vector<double> mean{1.0, 2.0};
  CovarianceAccumulator acc(2, mean);
  acc.add(std::vector<float>{2.0f, 1.0f});
  acc.add(std::vector<float>{0.0f, 3.0f});
  const auto decoded = CovarianceAccumulator::try_decode(acc.encode()).value();
  EXPECT_EQ(decoded.count(), 2u);
  EXPECT_LT(relative_difference(decoded.covariance(), acc.covariance()),
            1e-15);
}

TEST(CovarianceTest, MismatchedMeansAbortOnMerge) {
  CovarianceAccumulator a(2, {0.0, 0.0});
  CovarianceAccumulator b(2, {1.0, 0.0});
  EXPECT_DEATH(a.merge(b), "different means");
}

TEST(CovarianceTest, SymmetricOutput) {
  Rng rng(17);
  std::vector<double> mean(4, 0.0);
  CovarianceAccumulator acc(4, mean);
  for (int i = 0; i < 50; ++i) {
    std::vector<float> px(4);
    for (auto& v : px) v = static_cast<float>(rng.normal());
    acc.add(px);
  }
  EXPECT_TRUE(acc.covariance().symmetric(1e-12));
}

// --- MomentAccumulator -------------------------------------------------------

std::vector<std::vector<float>> random_pixels(int n, int dims,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> pixels(n);
  for (auto& px : pixels) {
    px.resize(dims);
    for (auto& v : px) v = static_cast<float>(rng.uniform(0.05, 0.9));
  }
  return pixels;
}

/// The two-pass reference: exact mean first, then centered covariance.
Matrix two_pass_covariance(const std::vector<std::vector<float>>& pixels,
                           std::vector<double>* mean_out) {
  const int dims = static_cast<int>(pixels.front().size());
  MeanAccumulator mean_acc(dims);
  for (const auto& px : pixels) mean_acc.add(px);
  *mean_out = mean_acc.mean();
  CovarianceAccumulator cov(dims, *mean_out);
  for (const auto& px : pixels) cov.add(px);
  return cov.covariance();
}

TEST(MomentAccumulatorTest, MatchesTwoPassReference) {
  const auto pixels = random_pixels(200, 7, 23);
  std::vector<double> ref_mean;
  const Matrix ref_cov = two_pass_covariance(pixels, &ref_mean);

  // Origin = first pixel, as the fused engine uses.
  std::vector<double> origin(pixels[0].begin(), pixels[0].end());
  MomentAccumulator mom(7, origin);
  for (const auto& px : pixels) mom.add(px);
  const auto mean = mom.mean();
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(mean[i], ref_mean[i], 1e-12);
  EXPECT_LT(relative_difference(mom.covariance(), ref_cov), 1e-10);
}

TEST(MomentAccumulatorTest, BlockedAddMatchesScalarAdd) {
  const int dims = 11;
  const auto pixels = random_pixels(100, dims, 5);
  std::vector<float> flat;
  for (const auto& px : pixels) flat.insert(flat.end(), px.begin(), px.end());

  std::vector<double> origin(dims, 0.3);
  MomentAccumulator scalar(dims, origin);
  for (const auto& px : pixels) scalar.add(px);
  MomentAccumulator blocked(dims, origin);
  blocked.add_block(flat.data(), 60);  // two uneven blocks
  blocked.add_block(flat.data() + 60 * dims, 40);

  EXPECT_EQ(blocked.count(), scalar.count());
  EXPECT_LT(relative_difference(blocked.covariance(), scalar.covariance()),
            1e-13);
}

TEST(MomentAccumulatorTest, SubBlockTailsMatchScalarAdd) {
  // 1..5-row blocks (the SIMD rank-k kernel's tail shapes) at an odd dims.
  const int dims = 9;
  const auto pixels = random_pixels(15, dims, 51);
  std::vector<float> flat;
  for (const auto& px : pixels) flat.insert(flat.end(), px.begin(), px.end());
  std::vector<double> origin(dims, 0.2);

  MomentAccumulator scalar(dims, origin);
  for (const auto& px : pixels) scalar.add(px);
  MomentAccumulator blocked(dims, origin);
  std::size_t off = 0;
  for (int rows = 1; rows <= 5; ++rows) {  // 1+2+3+4+5 = 15 pixels
    blocked.add_block(flat.data() + off * dims, rows);
    off += static_cast<std::size_t>(rows);
  }
  EXPECT_EQ(blocked.count(), scalar.count());
  EXPECT_LT(relative_difference(blocked.covariance(), scalar.covariance()),
            1e-12);
}

TEST(CovarianceAccumulatorTest, BlockedAddMatchesScalarAdd) {
  const int dims = 13;
  const auto pixels = random_pixels(70, dims, 61);
  std::vector<float> flat;
  for (const auto& px : pixels) flat.insert(flat.end(), px.begin(), px.end());
  std::vector<double> mean(dims, 0.45);

  CovarianceAccumulator scalar(dims, mean);
  for (const auto& px : pixels) scalar.add(px);
  CovarianceAccumulator blocked(dims, mean);
  blocked.add_block(flat.data(), 33);  // uneven blocks with ragged tails
  blocked.add_block(flat.data() + 33 * dims, 32);
  blocked.add_block(flat.data() + 65 * dims, 5);

  EXPECT_EQ(blocked.count(), scalar.count());
  EXPECT_LT(relative_difference(blocked.covariance(), scalar.covariance()),
            1e-12);
}

TEST(MomentAccumulatorTest, RemoveRetractsExactly) {
  const int dims = 6;
  const auto pixels = random_pixels(50, dims, 9);
  std::vector<double> origin(dims, 0.4);

  MomentAccumulator with_all(dims, origin);
  for (const auto& px : pixels) with_all.add(px);
  for (int i = 40; i < 50; ++i) with_all.remove(pixels[i]);

  MomentAccumulator without(dims, origin);
  for (int i = 0; i < 40; ++i) without.add(pixels[i]);

  EXPECT_EQ(with_all.count(), without.count());
  const auto m1 = with_all.mean();
  const auto m2 = without.mean();
  for (int i = 0; i < dims; ++i) EXPECT_NEAR(m1[i], m2[i], 1e-12);
  EXPECT_LT(relative_difference(with_all.covariance(), without.covariance()),
            1e-9);
}

TEST(MomentAccumulatorTest, MergeEqualsSequential) {
  const int dims = 5;
  const auto pixels = random_pixels(120, dims, 31);
  std::vector<double> origin(dims, 0.5);
  MomentAccumulator whole(dims, origin);
  MomentAccumulator a(dims, origin), b(dims, origin);
  for (int i = 0; i < 120; ++i) {
    whole.add(pixels[i]);
    (i < 50 ? a : b).add(pixels[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_LT(relative_difference(whole.covariance(), a.covariance()), 1e-12);
}

TEST(MomentAccumulatorTest, MismatchedOriginsAbortOnMerge) {
  MomentAccumulator a(2, {0.0, 0.0});
  MomentAccumulator b(2, {1.0, 0.0});
  EXPECT_DEATH(a.merge(b), "different origins");
}

TEST(MomentAccumulatorTest, EmptyStatisticsAbort) {
  MomentAccumulator acc(2, {0.0, 0.0});
  EXPECT_DEATH((void)acc.mean(), "empty");
  EXPECT_DEATH((void)acc.covariance(), "empty");
  EXPECT_DEATH(acc.remove(std::vector<float>{1.0f, 2.0f}), "empty");
}

}  // namespace
}  // namespace rif::linalg
