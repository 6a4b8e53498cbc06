#include "core/distributed/fusion_actors.h"

#include <algorithm>

#include "core/distributed/shard_ops.h"
#include "support/check.h"
#include "support/log.h"

namespace rif::core {

namespace {

constexpr std::uint64_t kSmallMsgBytes = 32;

distributed::CoordinatorParams coordinator_params(const FusionParams& params,
                                                  const hsi::ImageCube* cube,
                                                  const CostModel& model) {
  distributed::CoordinatorParams cp;
  cp.mode = params.mode;
  cp.shape = params.shape;
  cp.cube = cube;
  cp.total_tiles = params.total_tiles;
  cp.screening_threshold = params.screening_threshold;
  cp.output_components = params.output_components;
  cp.jacobi = params.jacobi;
  // Saturating growth of the merged set; the remainder are duplicates.
  cp.model_merge = [capacity = model.params().global_unique_size](
                       double merged, double returned) {
    const double room = std::max(0.0, 1.0 - merged / capacity);
    return merged + returned * room;
  };
  return cp;
}

}  // namespace

// ---------------------------------------------------------------------------
// ManagerActor
// ---------------------------------------------------------------------------

ManagerActor::ManagerActor(FusionParams params, const hsi::ImageCube* cube,
                           JobOutcome* outcome,
                           std::function<void()> on_complete)
    : params_(std::move(params)),
      outcome_(outcome),
      on_complete_(std::move(on_complete)),
      model_(params_.cost_model()),
      coordinator_(coordinator_params(params_, cube, model_),
                   std::vector<int>(params_.worker_tids.begin(),
                                    params_.worker_tids.end()),
                   *outcome_) {}

void ManagerActor::on_message(scp::ActorContext& ctx, scp::ThreadId from,
                              const scp::Message& msg) {
  const double now = to_seconds(ctx.now());
  switch (msg.type) {
    case kRequestWork:
      coordinator_.request_work(from, now);
      dispatch(ctx, coordinator_.take_sends());
      break;
    case kScreenResult: {
      // Charge the tile-order merge this result unblocked; once the last
      // tile folds in, charge the mean (step 3) before the shards go out.
      double merge_charge = 0.0;
      for (const auto& m : coordinator_.screen_result(from, msg, now)) {
        merge_charge +=
            params_.mode == ExecutionMode::kFull
                ? static_cast<double>(m.comparisons) *
                      model_.flops_per_comparison()
                : model_.merge_flops(static_cast<double>(m.returned));
      }
      ctx.compute(merge_charge,
                  [this, &ctx, shards = coordinator_.take_sends()]() mutable {
                    if (shards.empty()) return;
                    ctx.compute(model_.mean_flops(),
                                [this, &ctx,
                                 shards = std::move(shards)]() mutable {
                                  dispatch(ctx, std::move(shards));
                                });
                  });
      break;
    }
    case kCovSum: {
      coordinator_.cov_sum(from, msg, now);
      auto transform = coordinator_.take_sends();
      if (transform.empty()) break;
      // Steps 5-6: average (charge) then eigen-decompose (charge + compute).
      const double charge =
          model_.cov_average_flops(params_.workers) + model_.eigen_flops();
      ctx.compute(charge,
                  [this, &ctx, transform = std::move(transform)]() mutable {
                    dispatch(ctx, std::move(transform));
                  });
      break;
    }
    case kColorTile:
      coordinator_.color_tile(from, msg);
      if (!coordinator_.done() || outcome_->completed) break;
      outcome_->completed = true;
      outcome_->completion_time = ctx.now();
      RIF_LOG_INFO("fusion", "job complete at t=" << to_seconds(ctx.now())
                                                  << "s");
      ctx.finish();
      if (on_complete_) {
        // Service mode: the shared runtime outlives the job. The service's
        // completion handler retires the job's (now quiescent) actors.
        on_complete_();
      } else {
        ctx.shutdown_runtime();
      }
      break;
    default:
      RIF_CHECK_MSG(false, "manager: unexpected message type");
  }
}

void ManagerActor::dispatch(scp::ActorContext& ctx,
                            std::vector<distributed::Send> sends) {
  for (auto& s : sends) {
    switch (s.msg.type) {
      case kTileAssign:
        s.msg.declared_bytes =
            model_.tile_bytes(coordinator_.tile(s.item).pixels());
        break;
      case kCovShard:
        s.msg.declared_bytes =
            model_.unique_vectors_bytes(
                static_cast<double>(coordinator_.shard_size(s.item))) +
            params_.shape.bands * 8;
        break;
      case kTransform:
        s.msg.declared_bytes = model_.transform_bytes();
        break;
      default:
        s.msg.declared_bytes = kSmallMsgBytes;
    }
    ctx.send(s.worker, std::move(s.msg));
  }
}

// ---------------------------------------------------------------------------
// WorkerActor
// ---------------------------------------------------------------------------

WorkerActor::WorkerActor(FusionParams params)
    : params_(std::move(params)), model_(params_.cost_model()) {}

void WorkerActor::on_start(scp::ActorContext& ctx) {
  ctx.send(params_.manager_tid,
           scp::Message{kRequestWork, {}, kSmallMsgBytes});
}

void WorkerActor::on_message(scp::ActorContext& ctx, scp::ThreadId /*from*/,
                             const scp::Message& msg) {
  switch (msg.type) {
    case kTileAssign:
      on_tile(ctx, msg);
      break;
    case kNoMoreTiles:
      break;  // idle until the covariance phase
    case kCovShard:
      on_cov_shard(ctx, msg);
      break;
    case kTransform:
      on_transform(ctx, msg);
      break;
    default:
      RIF_CHECK_MSG(false, "worker: unexpected message type");
  }
}

void WorkerActor::on_tile(scp::ActorContext& ctx, const scp::Message& msg) {
  TileAssignMsg assign = TileAssignMsg::decode(msg);
  const std::int64_t pixels = assign.tile.pixels();

  // Overlap: request the next sub-problem before computing this one
  // (paper §3: "a worker overlaps the request for its next sub-problem
  // with the calculation associated with the current sub-problem").
  ctx.send(params_.manager_tid,
           scp::Message{kRequestWork, {}, kSmallMsgBytes});

  tiles_.push_back(StoredTile{assign.tile, std::move(assign.data)});
  const StoredTile& stored = tiles_.back();

  if (params_.mode == ExecutionMode::kFull) {
    // Step 1 for real: build the per-tile unique set (shared shard kernel).
    ScreenResultMsg result = screen_shard(stored.tile, stored.data.data(),
                                          params_.screening_threshold);
    const double flops = static_cast<double>(result.comparisons) *
                         model_.flops_per_comparison();
    const std::uint64_t declared = model_.unique_vectors_bytes(
        static_cast<double>(result.unique_count));
    ctx.compute(flops, [&ctx, this, result = std::move(result), declared] {
      ctx.send(params_.manager_tid, result.encode(declared));
    });
  } else {
    ScreenResultMsg result;
    result.tile = stored.tile;
    result.unique_count =
        static_cast<std::uint64_t>(model_.tile_unique_size(pixels));
    result.comparisons = static_cast<std::uint64_t>(
        model_.screen_flops(pixels) / model_.flops_per_comparison());
    const std::uint64_t declared = model_.unique_vectors_bytes(
        static_cast<double>(result.unique_count));
    ctx.compute(model_.screen_flops(pixels),
                [&ctx, this, result = std::move(result), declared] {
                  ctx.send(params_.manager_tid, result.encode(declared));
                });
  }
}

void WorkerActor::on_cov_shard(scp::ActorContext& ctx,
                               const scp::Message& msg) {
  CovShardMsg shard = CovShardMsg::decode(msg);
  const double flops =
      model_.cov_flops(static_cast<std::int64_t>(shard.shard_count));

  CovSumMsg sum;
  if (params_.mode == ExecutionMode::kFull) {
    sum = cov_shard_sum(shard, params_.shape.bands);
  } else {
    sum.shard_index = shard.shard_index;
  }
  ctx.compute(flops, [&ctx, this, sum = std::move(sum)] {
    ctx.send(params_.manager_tid, sum.encode(model_.cov_sum_bytes()));
  });
}

void WorkerActor::on_transform(scp::ActorContext& ctx,
                               const scp::Message& msg) {
  auto tm = std::make_shared<TransformMsg>(TransformMsg::decode(msg));
  transform_next_tile(ctx, std::move(tm), 0);
}

void WorkerActor::transform_next_tile(scp::ActorContext& ctx,
                                      std::shared_ptr<TransformMsg> tm,
                                      std::size_t i) {
  if (i >= tiles_.size()) return;
  const StoredTile& stored = tiles_[i];
  const std::int64_t pixels = stored.tile.pixels();
  const double flops =
      model_.transform_flops(pixels) + model_.colormap_flops(pixels);

  ctx.compute(flops, [&ctx, this, tm = std::move(tm), i] {
    const StoredTile& t = tiles_[i];
    const std::int64_t px_count = t.tile.pixels();
    ColorTileMsg color;
    if (params_.mode == ExecutionMode::kFull) {
      // Steps 7-8 for real on this tile (shared shard kernel).
      color = color_shard(t.tile, t.data.data(), *tm);
    } else {
      color.tile = t.tile;
    }
    ctx.send(params_.manager_tid,
             color.encode(model_.color_tile_bytes(px_count)));
    transform_next_tile(ctx, std::move(tm), i + 1);
  });
}

std::vector<std::uint8_t> WorkerActor::snapshot_state() const {
  Writer w;
  w.put<std::uint64_t>(tiles_.size());
  for (const auto& t : tiles_) {
    w.put(t.tile);
    w.put_vector(t.data);
  }
  return std::move(w).take();
}

void WorkerActor::restore_state(const std::vector<std::uint8_t>& state) {
  Reader r(state);
  const auto n = r.get<std::uint64_t>();
  tiles_.clear();
  tiles_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    StoredTile t;
    t.tile = r.get<WireTile>();
    t.data = r.get_vector<float>();
    tiles_.push_back(std::move(t));
  }
}

std::uint64_t WorkerActor::state_bytes() const {
  std::uint64_t bytes = 1024;
  for (const auto& t : tiles_) bytes += model_.tile_bytes(t.tile.pixels());
  return bytes;
}

}  // namespace rif::core
