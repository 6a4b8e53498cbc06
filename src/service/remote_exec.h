// Running one fusion job across real worker processes.
//
// execute_remote_job is the socket adapter of the shared protocol state
// machine (core/distributed/coordinator.h), the same Coordinator the sim's
// ManagerActor drives. It owns only what sockets add: the poll_event loop,
// the per-job wall deadline, job-tagged envelopes (a frame left over from
// an earlier job is never consumed), and the mapping of a disconnect onto
// Coordinator::worker_lost. Tile handout, the tile-order unique-set merge,
// the shard partition frozen at job start, the shard-order covariance
// merge, per-item deadlines with backed-off resends, disconnect requeue
// and the validation of every reply all happen inside the coordinator, so
// the composite is byte-identical to the sim run and to fuse_parallel with
// the same tile/shard counts — the sim stays the oracle for the real
// deployment. When a worker hangs, crashes or its replies keep failing
// validation, its items move to other live workers; when an item exhausts
// `resend_limit` or every worker is gone, the job reports
// `completed = false` and the caller falls back to the host pool.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/remote_pool.h"
#include "core/distributed/coordinator.h"
#include "hsi/image_cube.h"
#include "linalg/jacobi_eig.h"
#include "runtime/metrics.h"

namespace rif::service {

struct RemoteExecParams {
  const hsi::ImageCube* cube = nullptr;
  int total_tiles = 1;
  double screening_threshold = 0.05;
  int output_components = 3;
  linalg::JacobiOptions jacobi;
  std::int64_t job_id = 0;
  /// Upper bound on one poll_event wait (the loop wakes sooner when a
  /// per-item deadline is nearer).
  double poll_timeout_seconds = 2.0;
  /// Per-JOB wall deadline: give up (caller falls back to the host
  /// engine) this long after the job starts, whatever else is happening.
  double deadline_seconds = 300.0;
  /// Per-item clock: an assigned tile or outstanding covariance shard
  /// unanswered this long is re-sent to another live worker. Grows by
  /// `resend_backoff` per attempt. <= 0 disables per-item deadlines
  /// (the job deadline still applies).
  double shard_deadline_seconds = 10.0;
  /// Re-send budget per item; exceeding it fails the job to host fallback.
  int resend_limit = 3;
  double resend_backoff = 2.0;
  /// When set, resend/giveup counters are published here
  /// (remote.tile_resends / remote.shard_resends / remote.deadline_giveups).
  runtime::MetricsRegistry* metrics = nullptr;
  /// Runs the coordinator's unique-set fold (Coordinator::screen_result)
  /// in parallel; the result does not depend on it.
  core::ThreadPool* pool = nullptr;
};

/// The coordinator's result; `completed` false means the caller falls back
/// to the host engine.
struct RemoteExecResult : core::distributed::CoordinatorResult {
  bool completed = false;
};

/// Run one job over `workers` (pool indices). The shard count is fixed to
/// the number of live workers at job start, so the composite matches a sim
/// run with that worker count even if some workers die mid-job.
RemoteExecResult execute_remote_job(cluster::RemoteWorkerPool& pool,
                                    const std::vector<int>& workers,
                                    const RemoteExecParams& params);

}  // namespace rif::service
