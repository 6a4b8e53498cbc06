// Shared-memory variant of the spectral-screening PCT pipeline.
//
// This is the real multithreaded implementation (the paper's §4 remark:
// "On a shared memory system, the concurrent algorithm presented here
// operates within 5% of linear speedup"). It computes exactly the same
// function as the distributed Full-mode run with the same tile count:
// per-tile screening, in-order merge, sharded covariance, sequential eigen
// step, parallel transform + colour mapping.
#pragma once

#include <cstdint>
#include <vector>

#include "core/parallel/thread_pool.h"
#include "core/pct.h"
#include "core/spectral_angle.h"
#include "linalg/stats.h"

namespace rif::core {

struct ParallelPctConfig {
  PctConfig pct;
  int threads = 4;
  /// Screening tiles; defaults to `threads` when 0. Using the same value as
  /// a distributed run's total tile count makes the outputs identical.
  int tiles = 0;
  /// Covariance shard count; defaults to `threads` when 0. Summation
  /// grouping affects floating-point rounding, so fix this (e.g. to the
  /// distributed worker count) when bit-exact comparison matters.
  int cov_shards = 0;
};

/// Fuse a cube with a caller-provided pool (reusable across calls).
PctResult fuse_parallel(const hsi::ImageCube& cube, ThreadPool& pool,
                        const ParallelPctConfig& config);

/// Convenience overload owning a transient pool.
PctResult fuse_parallel(const hsi::ImageCube& cube,
                        const ParallelPctConfig& config);

/// Fused single-pass engine: each tile worker screens its pixels AND
/// accumulates the tile's moment sums (mean + covariance about a common
/// provisional origin, cache-blocked) in ONE sweep, so the unique set is
/// never re-read after screening. The merge is the same in-order fold as
/// fuse_parallel's (UniqueSet::merge on the pool) and keeps the moment
/// sums exact by either retracting dropped members or rebuilding from
/// admitted ones, whichever is cheaper. The covariance is then corrected
/// against the final global mean (see linalg::MomentAccumulator), and the
/// transform/colour-map stage reuses the same row tiling.
///
/// With the same tile count this follows the same screening order and
/// admission rule as fuse_parallel — both engines screen through the one
/// shared SIMD kernel in UniqueSet, so the merged unique sets are
/// identical — and computes the same composite up to floating-point
/// rounding of the moment correction (per-pixel tolerance, not
/// bit-for-bit). `cov_shards` is ignored (covariance sharding is
/// replaced by per-tile accumulation).
PctResult fuse_parallel_fused(const hsi::ImageCube& cube, ThreadPool& pool,
                              const ParallelPctConfig& config);

/// Convenience overload owning a transient pool.
PctResult fuse_parallel_fused(const hsi::ImageCube& cube,
                              const ParallelPctConfig& config);

/// The fused engine's per-tile kernel, shared with the out-of-core
/// streaming engine: screen `count` contiguous BIP pixels at `pixels` into
/// `set` in order and fold each admitted member into `moments` as it
/// arrives — straight from the set's flat storage, cache-hot, in blocks of
/// 32 rows for the packed-triangle kernel. Pixels are `set.bands()` floats
/// wide. Returns the screening comparison count.
std::uint64_t screen_tile_moments(const float* pixels, std::int64_t count,
                                  UniqueSet& set,
                                  linalg::MomentAccumulator& moments);

/// The fused engine's merge step, exposed as the shared primitive behind
/// fuse_parallel_fused and the out-of-core StreamingFusionEngine: fold one
/// tile's unique set AND its moment sums into the running global pair.
///
/// The set fold is UniqueSet::merge on `pool`, so the merged set is the
/// one every other engine's in-order fold produces, whatever the pool's
/// thread count. The surviving moment sums are kept exact by the cheaper
/// of two paths: retract the dropped members from the tile's sums, or
/// rebuild the tile's contribution from the admitted members. Both
/// accumulators must share the same origin. Tile 0 folds like any other,
/// into an empty set and empty sums, so its n0(n0-1)/2 admission
/// comparisons are charged as in every engine. `dropped` is caller-owned
/// scratch (reused across calls); `merge_comparisons`, if non-null,
/// accrues the member-by-member comparison count.
void fold_unique_moments(UniqueSet& unique, linalg::MomentAccumulator& total,
                         const UniqueSet& tile_set,
                         const linalg::MomentAccumulator& tile_moments,
                         ThreadPool& pool, std::vector<std::uint8_t>& dropped,
                         std::uint64_t* merge_comparisons);

}  // namespace rif::core
