#include "core/parallel/parallel_pct.h"

#include <atomic>

#include "hsi/partition.h"
#include "linalg/stats.h"
#include "obs/span_tracer.h"
#include "support/check.h"

namespace rif::core {

std::uint64_t screen_tile_moments(const float* pixels, std::int64_t count,
                                  UniqueSet& set,
                                  linalg::MomentAccumulator& moments) {
  constexpr std::size_t kMomentBlock = 32;
  const int bands = set.bands();
  std::uint64_t comparisons = 0;
  std::size_t flushed = 0;
  for (std::int64_t p = 0; p < count; ++p) {
    set.screen({pixels + p * bands, static_cast<std::size_t>(bands)},
               &comparisons);
    if (set.size() - flushed >= kMomentBlock) {
      moments.add_block(set.flat().data() + flushed * bands,
                        static_cast<int>(set.size() - flushed));
      flushed = set.size();
    }
  }
  if (set.size() > flushed) {
    moments.add_block(set.flat().data() + flushed * bands,
                      static_cast<int>(set.size() - flushed));
  }
  return comparisons;
}

void fold_unique_moments(UniqueSet& unique, linalg::MomentAccumulator& total,
                         const UniqueSet& tile_set,
                         const linalg::MomentAccumulator& tile_moments,
                         ThreadPool& pool, std::vector<std::uint8_t>& dropped,
                         std::uint64_t* merge_comparisons) {
  const int bands = unique.bands();
  const std::size_t admit_start = unique.size();
  unique.merge(tile_set, merge_comparisons, &pool, &dropped);
  const std::size_t admits = unique.size() - admit_start;
  const std::size_t drops = tile_set.size() - admits;
  if (drops <= admits) {
    total.merge(tile_moments);
    for (std::size_t j = 0; j < tile_set.size(); ++j) {
      if (dropped[j] != 0) total.remove(tile_set.member(j));
    }
  } else if (admits > 0) {
    total.add_block(unique.flat().data() + admit_start * bands,
                    static_cast<int>(admits));
  }
}

PctResult fuse_parallel(const hsi::ImageCube& cube, ThreadPool& pool,
                        const ParallelPctConfig& config) {
  RIF_CHECK(config.pct.output_components >= 3);
  const int bands = cube.bands();
  const int tiles = config.tiles > 0 ? config.tiles : pool.size();
  PctResult result;

  // Step 1 (concurrent): per-tile unique sets.
  const hsi::CubeShape shape{cube.width(), cube.height(), bands};
  const auto tile_list = hsi::partition_rows(shape, tiles);
  std::vector<UniqueSet> tile_sets;
  tile_sets.reserve(tile_list.size());
  for (const auto& t : tile_list) {
    (void)t;
    tile_sets.emplace_back(bands, config.pct.screening_threshold);
  }
  std::atomic<std::uint64_t> comparisons{0};
  pool.parallel_tasks(static_cast<int>(tile_list.size()), [&](int i) {
    const auto& t = tile_list[i];
    std::uint64_t local = 0;
    const std::int64_t first = t.first_flat_index();
    for (std::int64_t p = first; p < first + t.pixels(); ++p) {
      tile_sets[i].screen(cube.pixel(p), &local);
    }
    comparisons += local;
  });
  result.screen_comparisons = comparisons.load();

  // Step 2: fold the per-tile sets in tile order, each one tested against
  // the set so far on the pool (UniqueSet::merge); this matches the
  // distributed manager bit-for-bit.
  UniqueSet unique(bands, config.pct.screening_threshold);
  for (const auto& set : tile_sets) {
    unique.merge(set, &result.merge_comparisons, &pool);
  }
  result.unique_set_size = unique.size();
  RIF_CHECK_MSG(unique.size() >= 3, "degenerate scene: unique set too small");

  // Step 3: mean over the unique set.
  linalg::MeanAccumulator mean_acc(bands);
  for (std::size_t i = 0; i < unique.size(); ++i) mean_acc.add(unique.member(i));
  result.mean = mean_acc.mean();

  // Step 4 (concurrent): sharded covariance sums.
  const int shards = config.cov_shards > 0 ? config.cov_shards : pool.size();
  const auto chunks =
      hsi::partition_range(static_cast<std::int64_t>(unique.size()), shards);
  std::vector<linalg::CovarianceAccumulator> accs;
  accs.reserve(shards);
  for (int s = 0; s < shards; ++s) accs.emplace_back(bands, result.mean);
  pool.parallel_tasks(shards, [&](int s) {
    constexpr std::int64_t kRows = linalg::CovarianceAccumulator::kBlockRows;
    for (std::int64_t i = chunks[s].begin; i < chunks[s].end; i += kRows) {
      accs[s].add_block(unique.flat().data() + i * bands,
                        static_cast<int>(std::min(kRows, chunks[s].end - i)));
    }
  });

  // Step 5 (sequential): average.
  linalg::CovarianceAccumulator total = std::move(accs.front());
  for (int s = 1; s < shards; ++s) total.merge(accs[s]);
  const linalg::Matrix cov = total.covariance();

  // Step 6 (sequential): eigen-decomposition.
  linalg::EigenResult eig = linalg::jacobi_eigen(cov, config.pct.jacobi);
  result.eigenvalues = eig.values;
  result.eigenvectors = eig.vectors;
  result.jacobi_sweeps = eig.sweeps;

  // Steps 7-8 (concurrent): transform + colour map.
  const linalg::Matrix t =
      transform_matrix(eig.vectors, config.pct.output_components);
  const auto scales = scales_from_eigenvalues(eig.values);
  const auto n = static_cast<std::size_t>(cube.pixel_count());
  result.component_planes.assign(config.pct.output_components,
                                 std::vector<float>(n));
  result.composite = hsi::RgbImage(cube.width(), cube.height());
  pool.parallel_for(cube.pixel_count(), [&](std::int64_t lo, std::int64_t hi) {
    transform_and_map_range(cube, t, result.mean, scales,
                            result.component_planes, result.composite, lo, hi);
  });
  return result;
}

PctResult fuse_parallel(const hsi::ImageCube& cube,
                        const ParallelPctConfig& config) {
  ThreadPool pool(config.threads);
  return fuse_parallel(cube, pool, config);
}

PctResult fuse_parallel_fused(const hsi::ImageCube& cube, ThreadPool& pool,
                              const ParallelPctConfig& config) {
  RIF_CHECK(config.pct.output_components >= 3);
  // Per-tile spans execute on pool workers, outside the caller's JobScope;
  // capture the ambient job once and attribute explicitly.
  const std::int64_t trace_job = obs::current_job();
  const int bands = cube.bands();
  const int tiles = config.tiles > 0 ? config.tiles : pool.size();
  PctResult result;

  const hsi::CubeShape shape{cube.width(), cube.height(), bands};
  const auto tile_list = hsi::partition_rows(shape, tiles);
  const int tile_count = static_cast<int>(tile_list.size());

  // Common provisional origin for every tile's moment sums: the cube's
  // first pixel. Any shared vector works; a representative pixel keeps the
  // sums small so the final mean correction is well-conditioned.
  std::vector<double> origin(bands);
  {
    const auto p0 = cube.pixel(0);
    for (int b = 0; b < bands; ++b) origin[b] = static_cast<double>(p0[b]);
  }

  // Single fused pass (concurrent): each tile screens its pixels and
  // accumulates its members' moment sums in one sweep.
  std::vector<UniqueSet> tile_sets;
  std::vector<linalg::MomentAccumulator> tile_moments;
  tile_sets.reserve(tile_count);
  tile_moments.reserve(tile_count);
  for (int i = 0; i < tile_count; ++i) {
    tile_sets.emplace_back(bands, config.pct.screening_threshold);
    tile_moments.emplace_back(bands, origin);
  }
  std::atomic<std::uint64_t> comparisons{0};
  // Manual phase begin/end (one RAII span would blanket the whole engine);
  // `traced` is captured once so every begun phase also ends.
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  const bool traced = tracer.enabled();
  if (traced) tracer.begin("fused_screen", trace_job);
  pool.parallel_tasks(tile_count, [&](int i) {
    RIF_TRACE_SPAN_JOB("tile_screen", trace_job);
    const auto& t = tile_list[i];
    comparisons += screen_tile_moments(
        cube.raw().data() + t.first_flat_index() * bands, t.pixels(),
        tile_sets[i], tile_moments[i]);
  });
  result.screen_comparisons = comparisons.load();
  if (traced) tracer.end("fused_screen", trace_job);

  // Fold the tiles in order, tile 0 into the empty global pair. The moment
  // sums follow the cheaper of two exact bookkeeping paths: retract the
  // dropped members from the tile's sums, or rebuild the tile's
  // contribution from the admitted members (contiguous in the merged set's
  // flat storage, so the blocked kernel applies). Either way the surviving
  // sums are exactly those of the merged unique set.
  UniqueSet unique(bands, config.pct.screening_threshold);
  linalg::MomentAccumulator total(bands, origin);
  std::vector<std::uint8_t> dropped;
  if (traced) tracer.begin("fused_fold", trace_job);
  for (int i = 0; i < tile_count; ++i) {
    fold_unique_moments(unique, total, tile_sets[static_cast<std::size_t>(i)],
                        tile_moments[static_cast<std::size_t>(i)], pool,
                        dropped, &result.merge_comparisons);
  }
  if (traced) tracer.end("fused_fold", trace_job);
  result.unique_set_size = unique.size();
  RIF_CHECK_MSG(unique.size() >= 3, "degenerate scene: unique set too small");
  RIF_CHECK(total.count() == unique.size());

  // Mean and covariance fall out of the moment sums — corrected against the
  // final global mean instead of recomputed in extra passes.
  result.mean = total.mean();
  const linalg::Matrix cov = total.covariance();

  // Eigen-decomposition (sequential, as in every engine).
  if (traced) tracer.begin("fused_eigen", trace_job);
  linalg::EigenResult eig = linalg::jacobi_eigen(cov, config.pct.jacobi);
  if (traced) tracer.end("fused_eigen", trace_job);
  result.eigenvalues = eig.values;
  result.eigenvectors = eig.vectors;
  result.jacobi_sweeps = eig.sweeps;

  // Transform + colour map, reusing the same row tiling as the fused pass.
  const linalg::Matrix t =
      transform_matrix(eig.vectors, config.pct.output_components);
  const auto scales = scales_from_eigenvalues(eig.values);
  const auto n = static_cast<std::size_t>(cube.pixel_count());
  result.component_planes.assign(config.pct.output_components,
                                 std::vector<float>(n));
  result.composite = hsi::RgbImage(cube.width(), cube.height());
  if (traced) tracer.begin("fused_transform", trace_job);
  pool.parallel_tasks(tile_count, [&](int i) {
    RIF_TRACE_SPAN_JOB("tile_transform", trace_job);
    transform_and_map_range(cube, t, result.mean, scales,
                            result.component_planes, result.composite,
                            tile_list[i].first_flat_index(),
                            tile_list[i].end_flat_index());
  });
  if (traced) tracer.end("fused_transform", trace_job);
  return result;
}

PctResult fuse_parallel_fused(const hsi::ImageCube& cube,
                              const ParallelPctConfig& config) {
  ThreadPool pool(config.threads);
  return fuse_parallel_fused(cube, pool, config);
}

}  // namespace rif::core
