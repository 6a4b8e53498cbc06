// The fusion manager as one transport-free state machine.
//
// The paper's manager hands out sub-cube tiles on request, merges the
// per-tile unique sets strictly in tile order (step 2), computes the mean
// (step 3), shards the unique set for the covariance sums (step 4), merges
// the sums in shard-index order and eigen-decomposes them (steps 5-6),
// broadcasts the transform and assembles the colour tiles. Coordinator is
// that manager without a carrier: events go in stamped with the caller's
// clock in seconds, messages to send come out of take_sends(). The sim's
// ManagerActor (fusion_actors.h) and the socket execute_remote_job
// (service/remote_exec.h) both drive it; they own time, byte charging and
// delivery.
//
// Determinism: merges are keyed by tile and shard index, never by which
// worker answered or when, and the shard count is frozen at the number of
// starting workers — the composite is byte-identical to fuse_parallel with
// the same counts however replies are timed, lost or re-sent.
//
// Faults: worker_lost() requeues a lost worker's unanswered shards and
// uncoloured tiles onto survivors. With shard_deadline_seconds > 0 each
// assigned tile and outstanding shard also has its own deadline; tick()
// re-sends an overdue item to another live worker with the deadline grown
// by resend_backoff, and fails the job once an item expires more than
// resend_limit times. A disconnect re-arms without charging that budget.
//
// Replies are untrusted: each is decoded with try_decode and checked
// against the job (indices in range, members well-formed, a covariance sum
// computed for this shard against this job's mean) before it touches
// state. A failing reply is dropped; its item stays owed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/distributed/messages.h"
#include "core/spectral_angle.h"
#include "hsi/image_cube.h"
#include "hsi/image_io.h"
#include "hsi/partition.h"
#include "linalg/jacobi_eig.h"
#include "linalg/stats.h"
#include "runtime/metrics.h"

namespace rif::core::distributed {

struct CoordinatorParams {
  ExecutionMode mode = ExecutionMode::kFull;
  hsi::CubeShape shape;
  const hsi::ImageCube* cube = nullptr;  ///< required in Full mode
  int total_tiles = 1;
  double screening_threshold = 0.05;
  int output_components = 3;
  linalg::JacobiOptions jacobi;
  std::int64_t job_id = 0;  ///< tags log lines
  /// Per-item deadline; <= 0 disables per-item deadlines.
  double shard_deadline_seconds = 0.0;
  int resend_limit = 3;  ///< expiries allowed per item
  double resend_backoff = 2.0;
  /// CostOnly only: merged unique-set size after a tile that found
  /// `returned` vectors folds into a set of size `merged`.
  std::function<double(double merged, double returned)> model_merge;
  /// When set, remote.tile_resends / remote.shard_resends /
  /// remote.deadline_giveups are counted here.
  runtime::MetricsRegistry* metrics = nullptr;
  /// Full mode: runs each tile's unique-set fold on this pool. The fold's
  /// members, their order and its comparison count do not depend on it.
  core::ThreadPool* pool = nullptr;
};

/// What the coordinator produces; owned by the adapter.
struct CoordinatorResult {
  std::size_t unique_set_size = 0;
  std::uint64_t screen_comparisons = 0;
  std::uint64_t merge_comparisons = 0;
  std::vector<double> eigenvalues;
  hsi::RgbImage composite;    ///< valid in Full mode only
  int tiles_distributed = 0;  ///< first assignments, not re-sends
  int tiles_colored = 0;
  int shards = 0;             ///< covariance shard count, fixed at start
  int tiles_requeued = 0;     ///< tiles reassigned after a worker loss
  int worker_disconnects = 0;
  int tiles_resent = 0;       ///< tiles re-sent after a per-item deadline
  int shards_resent = 0;      ///< cov shards re-sent after a deadline
  int deadline_giveups = 0;   ///< items whose resend budget ran out
};

/// A message for the adapter to deliver, with `declared_bytes` 0.
struct Send {
  int worker = 0;
  scp::Message msg;
  int item = -1;  ///< tile index (kTileAssign) or shard index (kCovShard)
};

/// One tile folded into the unique set, in tile order.
struct MergedTile {
  std::uint64_t returned = 0;     ///< unique vectors the worker reported
  std::uint64_t comparisons = 0;  ///< merge comparisons (Full mode)
};

class Coordinator {
 public:
  /// `workers` are the adapter's ids of the starting workers.
  Coordinator(CoordinatorParams params, std::vector<int> workers,
              CoordinatorResult& result);

  void request_work(int worker, double now);
  /// Returns the tiles this reply let the tile-order merge fold in.
  std::vector<MergedTile> screen_result(int worker, const scp::Message& msg,
                                        double now);
  void cov_sum(int worker, const scp::Message& msg, double now);
  /// Only settles a tile, so it needs no clock.
  void color_tile(int worker, const scp::Message& msg);
  void worker_lost(int worker, double now);
  /// Re-send every item whose deadline has passed.
  void tick(double now);

  [[nodiscard]] std::vector<Send> take_sends();
  [[nodiscard]] bool done() const {
    return result_.tiles_colored == static_cast<int>(tiles_.size());
  }
  /// Every worker is lost, or an item exhausted its resend budget.
  [[nodiscard]] bool failed() const { return failed_ || live_.empty(); }
  [[nodiscard]] std::optional<double> next_deadline() const;
  [[nodiscard]] const std::vector<int>& live_workers() const { return live_; }
  [[nodiscard]] const hsi::Tile& tile(int t) const {
    return tiles_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::uint64_t shard_size(int s) const {
    return shards_[static_cast<std::size_t>(s)].msg.shard_count;
  }

 private:
  struct Track {
    double deadline = 0.0;
    int attempts = 0;  ///< deadline expiries so far
    bool active = false;
  };
  struct Shard {
    CovShardMsg msg;  ///< kept for re-sends
    int owner = -1;   ///< worker that owes the sum; -1 once answered
    std::optional<linalg::CovarianceAccumulator> sum;  ///< Full mode
    Track track;
  };

  [[nodiscard]] bool is_live(int worker) const;
  void arm(Track& track, double now) const;
  void assign_tile(int worker, int t, double now);
  void send_shard(int worker, int s, double now);
  void start_covariance_phase(double now);
  void broadcast_transform(double now);
  [[nodiscard]] int next_live() {
    return live_[static_cast<std::size_t>(rr_++) % live_.size()];
  }
  /// Next live worker, preferring one other than `avoid`.
  [[nodiscard]] int pick_other(int avoid);
  /// Count one deadline expiry of an item; false once its budget is gone.
  bool expire(Track& track, const char* what, int index);
  [[nodiscard]] bool valid_members(const std::vector<float>& v) const;

  CoordinatorParams p_;
  CoordinatorResult& result_;
  int bands_;
  std::vector<hsi::Tile> tiles_;
  std::vector<int> live_;
  int rr_ = 0;  ///< round-robin cursor for reassignment
  bool failed_ = false;
  std::vector<Send> sends_;

  // Screening. holder_[t] is the worker whose memory holds tile t's pixels
  // (it colours the tile once the transform is out).
  std::vector<int> holder_;
  std::vector<bool> colored_;
  std::vector<Track> tile_track_;
  std::map<int, ScreenResultMsg> pending_;
  std::optional<UniqueSet> global_;  // Full mode
  double model_unique_count_ = 0.0;  // CostOnly mode
  int merged_tiles_ = 0;  ///< tiles [0, merged_tiles_) are in the set
  int next_tile_ = 0;

  // Covariance.
  std::vector<double> mean_;
  std::vector<Shard> shards_;
  int sums_received_ = 0;
  bool transform_sent_ = false;
};

}  // namespace rif::core::distributed
