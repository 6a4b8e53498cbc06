// Manager and worker actors of the distributed spectral-screening PCT.
//
// The manager (logical thread 0) is the actor adapter of the shared
// protocol state machine (coordinator.h): it feeds each worker message to
// the Coordinator with the virtual clock and delivers the resulting sends,
// charging the paper's manager-side computation (the sequential tile-order
// merge of step 2, the mean of step 3, the covariance average and eigen
// step of steps 5-6) to its CPU first and declaring each message's modelled
// byte size. Workers prefetch — they request the next tile *before*
// screening the current one, the paper's communication/computation overlap.
//
// The coordinator merges strictly in tile order and shard order, so the
// distributed result is a pure function of the tile decomposition —
// independent of worker count, message timing, replication level, and
// injected failures. The integration tests exploit this: a run with crashes
// and regeneration must produce the exact composite of an undisturbed run.
// Per-item deadlines stay off here: the scp runtime's replication and
// regeneration already recover lost workers.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/distributed/coordinator.h"
#include "core/distributed/messages.h"
#include "hsi/image_cube.h"
#include "hsi/image_io.h"
#include "scp/actor.h"
#include "support/time.h"

namespace rif::core {

/// Parameters shared by the manager and all workers.
struct FusionParams {
  ExecutionMode mode = ExecutionMode::kCostOnly;
  hsi::CubeShape shape{320, 320, 105};
  int workers = 4;
  int total_tiles = 8;
  double screening_threshold = 0.05;
  int output_components = 3;
  CostModelParams cost;
  linalg::JacobiOptions jacobi;

  scp::ThreadId manager_tid = 0;
  /// Worker logical thread ids, in worker order (filled by the job runner).
  std::vector<scp::ThreadId> worker_tids;

  [[nodiscard]] CostModel cost_model() const {
    return {cost, shape.bands, output_components};
  }
};

/// Where the manager deposits results; owned by the job runner.
struct JobOutcome : distributed::CoordinatorResult {
  bool completed = false;
  SimTime completion_time = 0;
};

class ManagerActor final : public scp::Actor {
 public:
  /// `cube` must outlive the run and is required in Full mode.
  ///
  /// When `on_complete` is set the manager runs in *service mode*: on the
  /// final colour tile it invokes the callback and the shared runtime keeps
  /// running other jobs — the caller is then responsible for tearing down
  /// the job's actors (see scp::Runtime::retire_job; until then the idle
  /// workers keep heartbeating). Without it (the paper's single-job world)
  /// it shuts the runtime down.
  ManagerActor(FusionParams params, const hsi::ImageCube* cube,
               JobOutcome* outcome, std::function<void()> on_complete = {});

  void on_message(scp::ActorContext& ctx, scp::ThreadId from,
                  const scp::Message& msg) override;

  // The manager represents the sensor and is not replicated in the paper;
  // snapshot support is intentionally minimal.
  std::uint64_t state_bytes() const override { return params_.shape.bytes(); }

 private:
  /// Deliver the coordinator's sends with their modelled byte sizes.
  void dispatch(scp::ActorContext& ctx, std::vector<distributed::Send> sends);

  FusionParams params_;
  JobOutcome* outcome_;
  std::function<void()> on_complete_;
  CostModel model_;
  distributed::Coordinator coordinator_;
};

class WorkerActor final : public scp::Actor {
 public:
  explicit WorkerActor(FusionParams params);

  void on_start(scp::ActorContext& ctx) override;
  void on_message(scp::ActorContext& ctx, scp::ThreadId from,
                  const scp::Message& msg) override;

  std::vector<std::uint8_t> snapshot_state() const override;
  void restore_state(const std::vector<std::uint8_t>& state) override;
  std::uint64_t state_bytes() const override;

 private:
  struct StoredTile {
    WireTile tile;
    std::vector<float> data;  ///< empty in CostOnly mode
  };

  void on_tile(scp::ActorContext& ctx, const scp::Message& msg);
  void on_cov_shard(scp::ActorContext& ctx, const scp::Message& msg);
  void on_transform(scp::ActorContext& ctx, const scp::Message& msg);
  void transform_next_tile(scp::ActorContext& ctx,
                           std::shared_ptr<TransformMsg> tm, std::size_t i);

  FusionParams params_;
  CostModel model_;
  std::vector<StoredTile> tiles_;
};

}  // namespace rif::core
