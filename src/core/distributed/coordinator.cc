#include "core/distributed/coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/pct.h"
#include "linalg/matrix.h"
#include "obs/span_tracer.h"
#include "support/check.h"
#include "support/log.h"

namespace rif::core::distributed {

Coordinator::Coordinator(CoordinatorParams params, std::vector<int> workers,
                         CoordinatorResult& result)
    : p_(std::move(params)),
      result_(result),
      bands_(p_.shape.bands),
      tiles_(hsi::partition_rows(p_.shape, p_.total_tiles)),
      live_(std::move(workers)) {
  RIF_CHECK_MSG(!live_.empty(), "a job needs at least one worker");
  if (p_.mode == ExecutionMode::kFull) {
    RIF_CHECK_MSG(p_.cube != nullptr, "Full mode requires a cube");
    RIF_CHECK(p_.cube->width() == p_.shape.width &&
              p_.cube->height() == p_.shape.height &&
              p_.cube->bands() == p_.shape.bands);
    global_.emplace(bands_, p_.screening_threshold);
    result_.composite = hsi::RgbImage(p_.shape.width, p_.shape.height);
  } else {
    RIF_CHECK_MSG(p_.model_merge, "CostOnly mode requires a merge model");
  }
  result_.shards = static_cast<int>(live_.size());
  holder_.assign(tiles_.size(), -1);
  colored_.assign(tiles_.size(), false);
  tile_track_.assign(tiles_.size(), {});
}

std::vector<Send> Coordinator::take_sends() {
  return std::exchange(sends_, {});
}

bool Coordinator::is_live(int worker) const {
  return std::find(live_.begin(), live_.end(), worker) != live_.end();
}

void Coordinator::arm(Track& track, double now) const {
  if (p_.shard_deadline_seconds <= 0.0) return;
  double d = p_.shard_deadline_seconds;
  for (int i = 0; i < track.attempts; ++i) d *= p_.resend_backoff;
  track.deadline = now + d;
  track.active = true;
}

std::optional<double> Coordinator::next_deadline() const {
  std::optional<double> next;
  const auto consider = [&](const Track& t) {
    if (t.active && (!next || t.deadline < *next)) next = t.deadline;
  };
  for (const Track& t : tile_track_) consider(t);
  for (const Shard& s : shards_) consider(s.track);
  return next;
}

int Coordinator::pick_other(int avoid) {
  const int v = next_live();
  return v == avoid && live_.size() > 1 ? next_live() : v;
}

// --- Steps 1-2: tiles out, per-tile unique sets merged in tile order -------

void Coordinator::assign_tile(int worker, int t, double now) {
  holder_[t] = worker;
  const hsi::Tile& tile = tiles_[t];
  // A tile is whole rows of a BIP cube, so its pixels are contiguous.
  std::span<const float> data;
  if (p_.mode == ExecutionMode::kFull) {
    data = {p_.cube->pixel(tile.first_flat_index()).data(),
            static_cast<std::size_t>(tile.pixels() * tile.bands)};
  }
  sends_.push_back({worker, TileAssignMsg::encode(WireTile::from(tile), data, 0),
                    t});
  arm(tile_track_[t], now);
}

void Coordinator::request_work(int worker, double now) {
  if (!is_live(worker)) return;
  if (next_tile_ < static_cast<int>(tiles_.size())) {
    ++result_.tiles_distributed;
    assign_tile(worker, next_tile_++, now);
  } else {
    sends_.push_back({worker, scp::Message{kNoMoreTiles, {}, 0}});
  }
}

bool Coordinator::valid_members(const std::vector<float>& v) const {
  // from_flat aborts on a ragged length or a zero/non-finite member, and a
  // peer that computed a valid checksum can still send garbage.
  const auto b = static_cast<std::size_t>(bands_);
  if (v.size() % b != 0) return false;
  const auto finite = [](float x) { return std::isfinite(x); };
  if (!std::all_of(v.begin(), v.end(), finite)) return false;
  for (auto m = v.begin(); m != v.end(); m += b) {
    if (std::all_of(m, m + b, [](float x) { return x == 0.0f; })) return false;
  }
  return true;
}

std::vector<MergedTile> Coordinator::screen_result(int worker,
                                                   const scp::Message& msg,
                                                   double now) {
  std::vector<MergedTile> merged;
  auto r = ScreenResultMsg::try_decode(msg);
  if (!is_live(worker) || !r) return merged;
  const int t = r->tile.index;
  if (t < 0 || t >= static_cast<int>(tiles_.size()) ||
      !valid_members(r->vectors)) {
    return merged;
  }
  holder_[t] = worker;
  // Before the transform a screen result settles the tile; after it, the
  // tile's colour reply is still owed.
  if (!transform_sent_) tile_track_[t].active = false;
  if (t < merged_tiles_ || pending_.contains(t)) return merged;  // a repeat
  result_.screen_comparisons += r->comparisons;
  pending_.emplace(t, std::move(*r));

  for (auto it = pending_.find(merged_tiles_); it != pending_.end();
       it = pending_.find(merged_tiles_)) {
    MergedTile m{it->second.unique_count, 0};
    if (p_.mode == ExecutionMode::kFull) {
      // merge() trusts the members to be mutually distinct under the
      // job's threshold, as screen_shard makes them. That adds no trust:
      // a worker that lies can already return any members it likes.
      global_->merge(UniqueSet::from_flat(bands_, p_.screening_threshold,
                                          std::move(it->second.vectors)),
                     &m.comparisons, p_.pool);
      result_.merge_comparisons += m.comparisons;
    } else {
      model_unique_count_ = p_.model_merge(model_unique_count_,
                                           static_cast<double>(m.returned));
    }
    merged.push_back(m);
    pending_.erase(it);
    ++merged_tiles_;
  }
  if (!merged.empty() && merged_tiles_ == static_cast<int>(tiles_.size())) {
    start_covariance_phase(now);
  }
  return merged;
}

// --- Steps 3-6: mean, covariance shards, shard-order merge, eigen ----------

void Coordinator::send_shard(int worker, int s, double now) {
  shards_[s].owner = worker;
  sends_.push_back({worker, shards_[s].msg.encode(0), s});
  arm(shards_[s].track, now);
}

void Coordinator::start_covariance_phase(double now) {
  std::int64_t unique_count;
  if (p_.mode == ExecutionMode::kFull) {
    unique_count = static_cast<std::int64_t>(global_->size());
    linalg::MeanAccumulator acc(bands_);
    for (std::size_t i = 0; i < global_->size(); ++i) {
      acc.add(global_->member(i));
    }
    mean_ = acc.mean();
  } else {
    unique_count = static_cast<std::int64_t>(model_unique_count_);
    mean_.assign(bands_, 0.0);
  }
  result_.unique_set_size = static_cast<std::size_t>(unique_count);
  RIF_LOG_DEBUG("fusion", "screening done, unique set K=" << unique_count);

  const auto chunks = hsi::partition_range(unique_count, result_.shards);
  shards_.resize(chunks.size());
  for (int s = 0; s < result_.shards; ++s) {
    CovShardMsg& shard = shards_[s].msg;
    shard.shard_index = static_cast<std::uint64_t>(s);
    shard.shard_count = static_cast<std::uint64_t>(chunks[s].size());
    shard.mean = mean_;
    if (p_.mode == ExecutionMode::kFull) {
      shard.vectors.reserve(chunks[s].size() * bands_);
      for (std::int64_t i = chunks[s].begin; i < chunks[s].end; ++i) {
        const auto m = global_->member(static_cast<std::size_t>(i));
        shard.vectors.insert(shard.vectors.end(), m.begin(), m.end());
      }
    }
    send_shard(live_[s % live_.size()], s, now);
  }
}

void Coordinator::cov_sum(int worker, const scp::Message& msg, double now) {
  auto sum = CovSumMsg::try_decode(msg);
  // Pair the reply with its shard by the echoed index, and only if this
  // worker owes that shard: a stale or duplicate reply is dropped.
  if (!is_live(worker) || !sum || sum->shard_index >= shards_.size() ||
      shards_[sum->shard_index].owner != worker) {
    return;
  }
  Shard& shard = shards_[sum->shard_index];
  if (p_.mode == ExecutionMode::kFull) {
    // The shard-order merge RIF_CHECKs dims and mean: refuse a sum built
    // for another shape, mean or member count while the shard can still
    // be re-sent.
    auto acc = linalg::CovarianceAccumulator::try_decode(sum->accumulator);
    if (!acc || acc->dims() != bands_ ||
        acc->count() != shard.msg.shard_count ||
        std::memcmp(acc->mean().data(), mean_.data(),
                    mean_.size() * sizeof(double)) != 0) {
      return;
    }
    shard.sum = std::move(acc);
  }
  shard.owner = -1;
  shard.track.active = false;
  if (++sums_received_ == result_.shards) broadcast_transform(now);
}

void Coordinator::broadcast_transform(double now) {
  TransformMsg tm;
  tm.components = p_.output_components;
  tm.bands = bands_;
  tm.mean = mean_;
  if (p_.mode == ExecutionMode::kFull) {
    linalg::CovarianceAccumulator total(bands_, mean_);
    for (const Shard& shard : shards_) total.merge(*shard.sum);
    const linalg::EigenResult eig =
        linalg::jacobi_eigen(total.covariance(), p_.jacobi);
    result_.eigenvalues = eig.values;
    const linalg::Matrix t =
        transform_matrix(eig.vectors, p_.output_components);
    tm.matrix.assign(t.data(), t.data() + t.rows() * t.cols());
    for (const auto& s : scales_from_eigenvalues(eig.values)) {
      tm.scale_mean.push_back(s.mean);
      tm.scale_gain.push_back(s.gain);
    }
  } else {
    tm.scale_mean.assign(3, 0.0);
    tm.scale_gain.assign(3, 1.0);
  }
  transform_sent_ = true;
  for (const int w : live_) sends_.push_back({w, tm.encode(0)});
  // Every uncoloured tile is owed again: its holder colours it now.
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    if (!colored_[t]) arm(tile_track_[t], now);
  }
}

// --- Steps 7-8: colour tiles into the composite ----------------------------

void Coordinator::color_tile(int worker, const scp::Message& msg) {
  auto color = ColorTileMsg::try_decode(msg);
  if (!is_live(worker) || !color) return;
  const int t = color->tile.index;
  if (t < 0 || t >= static_cast<int>(tiles_.size()) || colored_[t]) return;
  if (p_.mode == ExecutionMode::kFull) {
    // Geometry comes from our own partition, never from the wire.
    const hsi::Tile& tile = tiles_[t];
    if (color->rgb.size() != static_cast<std::size_t>(tile.pixels()) * 3) {
      return;
    }
    std::copy(color->rgb.begin(), color->rgb.end(),
              result_.composite.data.begin() + tile.first_flat_index() * 3);
  }
  colored_[t] = true;
  tile_track_[t].active = false;
  ++result_.tiles_colored;
}

// --- Faults ----------------------------------------------------------------

void Coordinator::worker_lost(int worker, double now) {
  if (!is_live(worker)) return;
  live_.erase(std::find(live_.begin(), live_.end(), worker));
  ++result_.worker_disconnects;
  RIF_LOG_WARN("remote", "worker " << worker << " disconnected mid-job "
                                   << p_.job_id << "; re-queueing its work");
  if (live_.empty()) return;

  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    if (shards_[s].owner == worker) send_shard(next_live(), s, now);
  }
  // Survivors re-screen its uncoloured tiles (the duplicate result is
  // dropped) and colour them; merge and colour orders are unaffected.
  for (int t = 0; t < static_cast<int>(tiles_.size()); ++t) {
    if (holder_[t] != worker || colored_[t]) continue;
    ++result_.tiles_requeued;
    assign_tile(next_live(), t, now);
  }
}

bool Coordinator::expire(Track& track, const char* what, int index) {
  if (++track.attempts <= p_.resend_limit) return true;
  failed_ = true;
  ++result_.deadline_giveups;
  if (p_.metrics) p_.metrics->counter("remote.deadline_giveups").add(1);
  RIF_TRACE_INSTANT("remote.deadline_giveup");
  RIF_LOG_WARN("remote", "job " << p_.job_id << ": " << what << " " << index
                                << " exhausted its resend budget; falling "
                                   "back to the host pool");
  return false;
}

void Coordinator::tick(double now) {
  if (p_.shard_deadline_seconds <= 0.0 || failed()) return;
  for (int t = 0; t < static_cast<int>(tiles_.size()); ++t) {
    Track& track = tile_track_[t];
    if (!track.active || now < track.deadline) continue;
    if (!expire(track, "tile", t)) return;
    const int v = pick_other(holder_[t]);
    ++result_.tiles_resent;
    if (p_.metrics) p_.metrics->counter("remote.tile_resends").add(1);
    RIF_TRACE_INSTANT("remote.resend_tile");
    RIF_LOG_EVERY(::rif::LogLevel::kWarn, "remote", 1.0,
                  "job " << p_.job_id << ": tile " << t << " overdue (attempt "
                         << track.attempts << "); re-sending to worker " << v);
    assign_tile(v, t, now);  // re-arms with the backed-off deadline
  }
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    Track& track = shards_[s].track;
    if (!track.active || now < track.deadline) continue;
    if (!expire(track, "shard", s)) return;
    const int v = pick_other(shards_[s].owner);
    ++result_.shards_resent;
    if (p_.metrics) p_.metrics->counter("remote.shard_resends").add(1);
    RIF_TRACE_INSTANT("remote.resend_shard");
    RIF_LOG_EVERY(::rif::LogLevel::kWarn, "remote", 1.0,
                  "job " << p_.job_id << ": cov shard " << s
                         << " overdue (attempt " << track.attempts
                         << "); re-sending to worker " << v);
    send_shard(v, s, now);
  }
}

}  // namespace rif::core::distributed
