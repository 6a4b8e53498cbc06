#include "core/spectral_angle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/parallel/thread_pool.h"
#include "linalg/kernels.h"
#include "support/check.h"

namespace rif::core {

namespace {

namespace kernels = linalg::kernels;

constexpr std::size_t kLanes = kernels::kScreenLanes;

double clamp_pm1(double v) { return v < -1.0 ? -1.0 : (v > 1.0 ? 1.0 : v); }

}  // namespace

double spectral_angle(std::span<const float> x, std::span<const float> y) {
  RIF_CHECK(x.size() == y.size() && !x.empty());
  double dot = 0.0, nx2 = 0.0, ny2 = 0.0;
  kernels::dot_norm(x.data(), y.data(), static_cast<int>(x.size()), &dot,
                    &nx2, &ny2);
  const double denom = std::sqrt(nx2 * ny2);
  if (denom <= 0.0) return 0.0;  // zero vector: treat as identical
  return std::acos(clamp_pm1(dot / denom));
}

UniqueSet::UniqueSet(int bands, double threshold_radians)
    : bands_(bands), threshold_(threshold_radians),
      cos_threshold_(std::cos(threshold_radians)) {
  RIF_CHECK(bands > 0);
  RIF_CHECK(threshold_radians > 0.0 && threshold_radians < 1.5707);
}

std::span<const float> UniqueSet::member(std::size_t i) const {
  RIF_DCHECK(i < count_);
  return {data_.data() + i * bands_, static_cast<std::size_t>(bands_)};
}

void UniqueSet::pack_member(std::span<const float> pixel) {
  const std::size_t lane = count_ % kLanes;
  if (lane == 0) {
    // Open a fresh zero-filled block; zero lanes keep the 8-wide kernel
    // valid on partially filled blocks.
    pack_.resize(pack_.size() + static_cast<std::size_t>(bands_) * kLanes,
                 0.0f);
  }
  float* block = pack_.data() +
                 (count_ / kLanes) * static_cast<std::size_t>(bands_) * kLanes;
  for (int b = 0; b < bands_; ++b) {
    block[static_cast<std::size_t>(b) * kLanes + lane] = pixel[b];
  }
}

bool UniqueSet::any_within(std::span<const float> pixel,
                           double pixel_inv_norm, std::size_t begin_member,
                           std::size_t end_member,
                           std::uint64_t* comparisons) const {
  RIF_DCHECK(static_cast<int>(pixel.size()) == bands_);
  RIF_DCHECK(end_member <= count_);
  // Angle test via cosine: angle <= threshold  <=>  cos >= cos(threshold).
  // Each SoA block yields 8 member dot products in one fused kernel call;
  // lanes outside [begin_member, end_member) are computed (they are free)
  // but never examined, so results and comparison counts match the
  // member-at-a-time scan exactly.
  std::uint64_t scanned = 0;
  std::size_t m = begin_member;
  while (m < end_member) {
    const std::size_t block = m / kLanes;
    const std::size_t block_begin = block * kLanes;
    const std::size_t lane_end =
        std::min(block_begin + kLanes, end_member) - block_begin;
    double dots[kLanes];
    kernels::dot8(pack_.data() +
                      block * static_cast<std::size_t>(bands_) * kLanes,
                  pixel.data(), bands_, dots);
    for (std::size_t lane = m - block_begin; lane < lane_end; ++lane) {
      ++scanned;
      const double cosine =
          dots[lane] * inv_norms_[block_begin + lane] * pixel_inv_norm;
      if (cosine >= cos_threshold_) {  // close to a member
        if (comparisons != nullptr) *comparisons += scanned;
        return true;
      }
    }
    m = block_begin + lane_end;
  }
  if (comparisons != nullptr) *comparisons += scanned;
  return false;
}

void UniqueSet::admit(std::span<const float> pixel, double inv_norm) {
  RIF_DCHECK(static_cast<int>(pixel.size()) == bands_);
  pack_member(pixel);
  data_.insert(data_.end(), pixel.begin(), pixel.end());
  inv_norms_.push_back(inv_norm);
  ++count_;
}

bool UniqueSet::screen(std::span<const float> pixel,
                       std::uint64_t* comparisons) {
  RIF_DCHECK(static_cast<int>(pixel.size()) == bands_);
  const double norm2 =
      kernels::dot(pixel.data(), pixel.data(), bands_);
  const double norm = std::sqrt(norm2);
  if (norm <= 0.0) return false;  // degenerate pixel never joins
  const double inv = 1.0 / norm;
  if (any_within(pixel, inv, 0, count_, comparisons)) return false;
  admit(pixel, inv);
  return true;
}

void UniqueSet::merge(const UniqueSet& other, std::uint64_t* comparisons,
                      ThreadPool* pool, std::vector<std::uint8_t>* dropped) {
  RIF_CHECK_MSG(other.bands_ == bands_ && other.threshold_ == threshold_,
                "merging a unique set of other bands or threshold");
  const std::size_t n = other.count_;
  const std::size_t frozen = count_;
  std::vector<std::uint8_t> own_hits;
  std::vector<std::uint8_t>& hit = dropped != nullptr ? *dropped : own_hits;
  hit.assign(n, 0);

  // Test every member of `other` against the frozen prefix; nothing is
  // admitted until all tests are done, so the prefix is read-only here.
  // Hits end a scan early, so threads pull small chunks from a shared
  // cursor rather than take one fixed range each.
  std::atomic<std::uint64_t> scanned{0};
  const auto scan = [&](std::size_t lo, std::size_t hi) {
    std::uint64_t local = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      hit[i] = any_within(other.member(i), other.inv_norms_[i], 0, frozen,
                          &local)
                   ? 1
                   : 0;
    }
    scanned += local;
  };
  constexpr std::size_t kGrain = 16;
  if (frozen == 0) {
    // Nothing to hit: every member is admitted.
  } else if (pool != nullptr && n > kGrain) {
    std::atomic<std::size_t> cursor{0};
    pool->parallel_tasks(pool->size(), [&](int) {
      for (std::size_t lo = cursor.fetch_add(kGrain); lo < n;
           lo = cursor.fetch_add(kGrain)) {
        scan(lo, std::min(lo + kGrain, n));
      }
    });
  } else {
    scan(0, n);
  }

  // Admit the misses in order. Member-by-member screening would also have
  // scanned, and missed, every member admitted from `other` before it.
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (hit[i] != 0) continue;
    tail += count_ - frozen;
    admit(other.member(i), other.inv_norms_[i]);
  }
  if (comparisons != nullptr) *comparisons += scanned.load() + tail;
}

UniqueSet UniqueSet::from_flat(int bands, double threshold_radians,
                               std::vector<float> flat) {
  RIF_CHECK(flat.size() % static_cast<std::size_t>(bands) == 0);
  UniqueSet set(bands, threshold_radians);
  const std::size_t count = flat.size() / bands;
  set.data_ = std::move(flat);
  set.inv_norms_.resize(count);
  for (std::size_t m = 0; m < count; ++m) {
    const float* mem = set.data_.data() + m * bands;
    const double n2 = linalg::kernels::dot(mem, mem, bands);
    RIF_CHECK_MSG(n2 > 0.0, "zero vector in flat unique set");
    set.inv_norms_[m] = 1.0 / std::sqrt(n2);
    set.pack_member({mem, static_cast<std::size_t>(bands)});
    ++set.count_;
  }
  return set;
}

double UniqueSet::min_angle_to(std::span<const float> pixel) const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < count_; ++m) {
    best = std::min(best, spectral_angle(member(m), pixel));
  }
  return best;
}

UniqueSet screen_range(const hsi::ImageCube& cube, std::int64_t first_flat,
                       std::int64_t last_flat, double threshold_radians,
                       std::uint64_t* comparisons) {
  RIF_CHECK(first_flat >= 0 && last_flat <= cube.pixel_count() &&
            first_flat <= last_flat);
  UniqueSet set(cube.bands(), threshold_radians);
  for (std::int64_t p = first_flat; p < last_flat; ++p) {
    set.screen(cube.pixel(p), comparisons);
  }
  return set;
}

}  // namespace rif::core
