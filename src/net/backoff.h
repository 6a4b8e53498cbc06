// Deterministic exponential backoff with seeded jitter.
//
// The schedule behind rif_worker's connect/reconnect loop. The base delay
// grows geometrically to a cap; jitter multiplies each delay by a factor
// drawn uniformly from [1 - jitter, 1 + jitter] off an explicitly seeded
// Rng, so a fleet of workers seeded by pid de-synchronises its retries
// while any single schedule stays bit-reproducible — the same discipline as
// every other stochastic component (support/rng.h).
#pragma once

#include <cstdint>

#include "support/rng.h"

namespace rif::net {

struct BackoffConfig {
  double initial_seconds = 0.05;  ///< first delay (pre-jitter)
  double factor = 2.0;            ///< geometric growth per attempt
  double max_seconds = 2.0;       ///< cap on the pre-jitter delay
  double jitter = 0.2;            ///< +/- fraction; 0 = deterministic delays
  std::uint64_t seed = 1;         ///< jitter stream seed
};

class Backoff {
 public:
  explicit Backoff(const BackoffConfig& config)
      : cfg_(config), rng_(config.seed) {}

  /// Delay to sleep before the NEXT retry; advances the schedule.
  double next_delay_seconds() {
    double base = cfg_.initial_seconds;
    for (int i = 0; i < attempt_ && base < cfg_.max_seconds; ++i) {
      base *= cfg_.factor;
    }
    if (base > cfg_.max_seconds) base = cfg_.max_seconds;
    ++attempt_;
    if (cfg_.jitter <= 0.0) return base;
    return base * rng_.uniform(1.0 - cfg_.jitter, 1.0 + cfg_.jitter);
  }

  [[nodiscard]] int attempts() const { return attempt_; }

  void reset() {
    attempt_ = 0;  // jitter stream deliberately NOT rewound: fresh draws
  }

 private:
  BackoffConfig cfg_;
  Rng rng_;
  int attempt_ = 0;
};

}  // namespace rif::net
