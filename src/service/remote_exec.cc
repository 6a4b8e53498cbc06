#include "service/remote_exec.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/distributed/coordinator.h"
#include "scp/wire.h"
#include "support/check.h"
#include "support/log.h"

namespace rif::service {

RemoteExecResult execute_remote_job(cluster::RemoteWorkerPool& pool,
                                    const std::vector<int>& workers,
                                    const RemoteExecParams& p) {
  RIF_CHECK_MSG(p.cube != nullptr, "remote execution requires a cube");
  std::vector<int> live;
  for (const int w : workers) {
    if (pool.alive(w)) live.push_back(w);
  }
  if (live.empty()) return {};

  core::distributed::CoordinatorParams cp;
  cp.shape = {p.cube->width(), p.cube->height(), p.cube->bands()};
  cp.cube = p.cube;
  cp.total_tiles = p.total_tiles;
  cp.screening_threshold = p.screening_threshold;
  cp.output_components = p.output_components;
  cp.jacobi = p.jacobi;
  cp.job_id = p.job_id;
  cp.shard_deadline_seconds = p.shard_deadline_seconds;
  cp.resend_limit = p.resend_limit;
  cp.resend_backoff = p.resend_backoff;
  cp.metrics = p.metrics;
  cp.pool = p.pool;
  RemoteExecResult out;
  core::distributed::Coordinator c(cp, live, out);

  const auto envelope = [&](int w, scp::FrameKind kind) {
    scp::WireEnvelope env;
    env.kind = kind;
    env.dst_node = pool.node_of(w);
    return env;
  };
  const auto flush = [&] {
    for (auto& s : c.take_sends()) {
      scp::WireEnvelope env = envelope(s.worker, scp::FrameKind::kApp);
      env.seq = static_cast<std::uint64_t>(p.job_id);  // job tag (see wire.h)
      env.msg_type = s.msg.type;
      env.declared = s.msg.declared_bytes;
      env.payload = std::move(s.msg.payload);
      pool.send(s.worker, env);
    }
  };
  const scp::JobStartBody body{p.job_id,         cp.shape.width,
                               cp.shape.height,  cp.shape.bands,
                               p.screening_threshold, p.output_components};
  for (const int w : live) {
    scp::WireEnvelope env = envelope(w, scp::FrameKind::kJobStart);
    env.payload = body.encode();
    pool.send(w, env);
  }

  // The job deadline is a wall clock from job start — not a silence clock
  // that activity resets, so a hung item is bounded by its OWN deadline
  // (Coordinator::tick) however chatty the rest of the pool is.
  const auto start = std::chrono::steady_clock::now();
  const auto seconds = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (!c.done()) {
    const double now = seconds();
    if (now >= p.deadline_seconds) {
      RIF_LOG_WARN("remote", "job " << p.job_id
                                    << " hit its wall deadline; falling "
                                       "back to the host pool");
      return out;
    }
    c.tick(now);
    flush();
    if (c.failed()) return out;  // resend budget exhausted
    // Wake for whichever comes first: the poll cap, the job deadline, or
    // the nearest per-item deadline.
    double wait = std::min(p.poll_timeout_seconds, p.deadline_seconds - now);
    if (const auto next = c.next_deadline()) {
      wait = std::min(wait, *next - now);
    }
    auto ev = pool.poll_event(std::max(wait, 1e-3));
    if (!ev) continue;
    const double at = seconds();
    if (ev->kind == cluster::RemoteWorkerPool::Event::Kind::kClosed) {
      c.worker_lost(ev->worker, at);
      flush();
      if (c.failed()) return out;
      continue;
    }
    // Jobs run serially over a shared pool: a frame still in flight from an
    // earlier job (requeue or deadline fallback) carries that job's tag and
    // must not be consumed by this job.
    if (ev->env.kind != scp::FrameKind::kApp ||
        ev->env.seq != static_cast<std::uint64_t>(p.job_id)) {
      continue;
    }
    const scp::Message msg = std::move(ev->env).to_message();
    switch (msg.type) {
      case core::kRequestWork:
        c.request_work(ev->worker, at);
        break;
      case core::kScreenResult:
        c.screen_result(ev->worker, msg, at);
        break;
      case core::kCovSum:
        c.cov_sum(ev->worker, msg, at);
        break;
      case core::kColorTile:
        c.color_tile(ev->worker, msg);
        break;
      default:
        break;
    }
    flush();
  }

  for (const int w : c.live_workers()) {
    pool.send(w, envelope(w, scp::FrameKind::kJobEnd));
  }
  out.completed = true;
  return out;
}

}  // namespace rif::service
