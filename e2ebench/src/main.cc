// End-to-end fusion benchmark: every engine path of the spectral-screening
// PCT pipeline, measured from outside through its public entry point.
//
//   rif_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>]
//
// A run generates its workload's scene set from the seed, sets up several
// times (scenes, cube files, thread pool, two socketpair remote workers),
// makes one untimed warm-up pass per path over the scenes, repeats rounds
// until `--seconds` have passed, then sets up several times again; setup_s
// is the median over both set-up windows. A round
// calls every engine path on every scene, a quick path for several passes,
// and runs one service batch whose jobs spread over the scenes. Every
// output is checked against the cross-engine oracle (harness.h). The last
// stdout line is one JSON object: with --trace 0 the end-to-end metrics,
// with --trace 1 the per-layer metrics, which come from spans the benchmark
// records around each call into a layer's public functions, including a
// stage-by-stage replay of the two-pass engine. A missed check is counted
// as a failed operation, named on stderr, and makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/remote_pool.h"
#include "core/distributed/messages.h"
#include "core/parallel/parallel_pct.h"
#include "core/parallel/thread_pool.h"
#include "core/pct.h"
#include "core/spectral_angle.h"
#include "harness.h"
#include "hsi/chunked_reader.h"
#include "hsi/cube_io.h"
#include "hsi/partition.h"
#include "hsi/scene.h"
#include "linalg/jacobi_eig.h"
#include "linalg/kernels.h"
#include "linalg/stats.h"
#include "net/frame.h"
#include "scp/wire.h"
#include "service/remote_exec.h"
#include "service/service.h"
#include "stream/streaming_engine.h"

#ifndef RIF_E2E_BUILD_TYPE
#define RIF_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using namespace rif;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Every engine path runs with the same row tiling and, for the two-pass
// engine, the covariance shard count of the remote path, so that the
// byte-identity contracts apply between them.
constexpr int kTiles = 8;
constexpr int kRemoteWorkers = 2;
constexpr int kBands = 105;
/// Scenes per workload. The scene's texture and illumination fields move
/// K/N by 15-25% from one seed to the next at low K/N, and every timing
/// with it; a round over several scenes averages that out of each sample.
constexpr int kScenes = 4;
/// Set-up runs in two windows, before the timed rounds and after them, so
/// that setup_s, the median over both, does not rest on the machine's state
/// in one second of the run. A window sets up at least kMinSetupRounds
/// times and until kSetupSeconds have passed, at most kMaxSetupRounds times.
constexpr int kMinSetupRounds = 4;
constexpr int kMaxSetupRounds = 13;
constexpr double kSetupSeconds = 1.5;
constexpr int kMinRounds = 3;
/// A round repeats a quick path over the scenes until its sample covers
/// about this much time, so one noisy call does not make the sample.
constexpr double kPathSecondsPerRound = 1.0;
constexpr int kMaxPasses = 8;
/// No new round starts past this point, so a run ends within three minutes
/// even when the machine is slow.
constexpr double kRoundCutoffSeconds = 100.0;

struct WorkloadSpec {
  const char* name;
  int size;      ///< scene width and height
  double theta;  ///< screening threshold (radians)
  /// The 3-tenant arrival script with a memory budget that makes jobs
  /// queue; otherwise the compact 3-job batch (one job per tenant).
  bool full_mix;
  /// Pooled K/N must stay within [min, max] (see regime check).
  double min_unique_fraction;
  double max_unique_fraction;
};

// Why each workload exists: BENCHMARK.json. A wide low-K/N workload (4
// scenes of 512x512) was dropped: its fused and streaming times swing up
// to 2.5x with host contention, beyond any bound the benchmark may set;
// service_mix's direct paths cover the low-K/N regime at 384x384.
constexpr WorkloadSpec kWorkloads[] = {
    {"dense_high_unique", 80, 0.012, false, 0.70, 1.0},
    {"service_mix", 384, 0.05, true, 0.0, 0.02},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return std::nullopt;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      o.trace = value == "1";
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return o;
}

/// Counts operations and names every one that missed its check.
class Oracle {
 public:
  void record(const std::string& what, const std::string& miss) {
    ++attempted_;
    if (miss.empty()) return;
    ++failed_;
    if (what.rfind("service", 0) == 0) ++service_failed_;
    std::fprintf(stderr, "ORACLE MISS %s: %s\n", what.c_str(), miss.c_str());
  }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  /// Misses of service jobs and batches.
  [[nodiscard]] std::int64_t service_failed() const { return service_failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t service_failed_ = 0;
};

FusionOutput output_of(core::PctResult&& r) {
  return {std::move(r.composite.data), r.unique_set_size,
          std::move(r.eigenvalues)};
}

std::string verdict(const FusionOutput& out, const std::string& miss) {
  return out.composite.empty() ? "the engine reported failure" : miss;
}

// --- Set-up -------------------------------------------------------------------

struct Fixture {
  std::vector<hsi::Scene> scenes;
  std::vector<std::string> cube_paths;
  std::unique_ptr<core::ThreadPool> pool;
  std::unique_ptr<cluster::RemoteWorkerPool> remote;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    if (remote != nullptr) remote->stop();
    for (const std::string& path : cube_paths) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
      std::filesystem::remove(path + ".hdr", ec);
    }
  }
};

/// Scene generation, cube-file writes, pool construction and remote-worker
/// attach: everything setup_s covers. Null when a step fails.
std::unique_ptr<Fixture> set_up(const WorkloadSpec& w, const Options& o,
                                int threads, SpanRecorder* rec) {
  const ScopedSpan all(rec, "setup", -1, w.name, -1);
  auto f = std::make_unique<Fixture>();
  for (int i = 0; i < kScenes; ++i) {
    {
      const ScopedSpan s(rec, "hsi.generate_scene", all.id(), w.name, -1);
      hsi::SceneConfig cfg;
      cfg.width = w.size;
      cfg.height = w.size;
      cfg.bands = kBands;
      cfg.seed = o.seed * kScenes + static_cast<std::uint64_t>(i);
      f->scenes.push_back(hsi::generate_scene(cfg));
    }
    const ScopedSpan s(rec, "hsi.save_cube", all.id(), w.name, -1);
    f->cube_paths.push_back((std::filesystem::path(o.out_dir) /
                             (std::string(w.name) + "-" + std::to_string(i) +
                              ".cube"))
                                .string());
    if (!hsi::save_cube(f->cube_paths.back(), f->scenes.back().cube,
                        hsi::Interleave::kBip, f->scenes.back().wavelengths)) {
      std::fprintf(stderr, "cannot write %s\n", f->cube_paths.back().c_str());
      return nullptr;
    }
  }
  {
    const ScopedSpan s(rec, "parallel.pool_start", all.id(), w.name, -1);
    f->pool = std::make_unique<core::ThreadPool>(threads);
  }
  {
    const ScopedSpan s(rec, "cluster.attach", all.id(), w.name, -1);
    f->remote = std::make_unique<cluster::RemoteWorkerPool>();
    f->remote->start(/*first_node_id=*/100);
    for (int i = 0; i < kRemoteWorkers; ++i) f->remote->spawn_local_worker();
    if (f->remote->wait_for_workers(kRemoteWorkers, 30.0) != kRemoteWorkers) {
      std::fprintf(stderr, "remote workers did not attach\n");
      return nullptr;
    }
  }
  return f;
}

/// One set-up window: appends each set-up's seconds to `setup_s` and
/// returns the last fixture, or null when a set-up fails.
std::unique_ptr<Fixture> set_up_window(const WorkloadSpec& w, const Options& o,
                                       int threads, SpanRecorder* rec,
                                       std::vector<double>& setup_s) {
  std::unique_ptr<Fixture> fixture;
  const auto start = Clock::now();
  for (int i = 0; i < kMaxSetupRounds; ++i) {
    if (i >= kMinSetupRounds && seconds_since(start) >= kSetupSeconds) break;
    fixture.reset();
    const auto t0 = Clock::now();
    fixture = set_up(w, o, threads, rec);
    setup_s.push_back(seconds_since(t0));
    if (fixture == nullptr) return nullptr;
  }
  return fixture;
}

// --- Engine paths -------------------------------------------------------------

/// One engine path's public entry point, called on scene `s`.
struct Paths {
  const WorkloadSpec& w;
  Fixture& f;
  std::int64_t next_job_id = 1;

  [[nodiscard]] const hsi::ImageCube& cube(int s) const {
    return f.scenes[static_cast<std::size_t>(s)].cube;
  }

  [[nodiscard]] core::ParallelPctConfig parallel_config() const {
    core::ParallelPctConfig cfg;
    cfg.pct.screening_threshold = w.theta;
    cfg.threads = f.pool->size();
    cfg.tiles = kTiles;
    cfg.cov_shards = kRemoteWorkers;
    return cfg;
  }

  FusionOutput sequential(int s) const {
    core::PctConfig cfg;
    cfg.screening_threshold = w.theta;
    return output_of(core::fuse(cube(s), cfg));
  }

  FusionOutput two_pass(int s) const {
    return output_of(core::fuse_parallel(cube(s), *f.pool, parallel_config()));
  }

  FusionOutput fused(int s) const {
    return output_of(
        core::fuse_parallel_fused(cube(s), *f.pool, parallel_config()));
  }

  /// Chunks of two tiles' rows, screened as two sub-tiles each, so the
  /// chunk x sub-tile boundaries are the in-memory engines' 8 tiles.
  [[nodiscard]] stream::StreamingConfig stream_config() const {
    stream::StreamingConfig cfg;
    cfg.pct.screening_threshold = w.theta;
    cfg.chunk_lines = 2 * (w.size / kTiles);
    cfg.tiles_per_chunk = 2;
    return cfg;
  }

  /// Empty composite when the engine reports failure.
  FusionOutput stream(int s, stream::StreamingStats* stats) const {
    auto r = stream::fuse_streaming(f.cube_paths[static_cast<std::size_t>(s)],
                                    *f.pool, stream_config());
    if (!r) return {};
    if (stats != nullptr) *stats = r->stats;
    return {std::move(r->composite.data), r->unique_set_size,
            std::move(r->eigenvalues)};
  }

  /// Empty composite when the job did not complete.
  FusionOutput remote(int s, service::RemoteExecResult* counters) {
    service::RemoteExecParams p;
    p.cube = &cube(s);
    p.total_tiles = kTiles;
    p.screening_threshold = w.theta;
    p.job_id = next_job_id++;
    service::RemoteExecResult r =
        service::execute_remote_job(*f.remote, {0, 1}, p);
    if (counters != nullptr) *counters = r;
    if (!r.completed) return {};
    return {std::move(r.composite.data), r.unique_set_size,
            std::move(r.eigenvalues)};
  }
};

// --- Service batch ------------------------------------------------------------

enum class JobKind { kHostFull, kRemoteFull, kStream };

const char* to_string(JobKind k) {
  switch (k) {
    case JobKind::kHostFull: return "host-full";
    case JobKind::kRemoteFull: return "remote-full";
    case JobKind::kStream: return "stream";
  }
  return "?";
}

struct ScriptJob {
  const char* tenant;
  JobKind kind;
  double arrival_s;  ///< virtual arrival time
};

/// A Full job on the 2 host nodes; a Full job that needs 4 nodes and so
/// leases the 2 remote workers; a Streaming job over a cube file. Every job
/// covers its scene in the 8 tiles the direct paths use. Job i fuses scene
/// i mod kScenes.
constexpr ScriptJob kCompactScript[] = {
    {"alpha", JobKind::kHostFull, 0.0},
    {"bravo", JobKind::kRemoteFull, 0.0},
    {"charlie", JobKind::kStream, 0.0},
};

constexpr ScriptJob kMixScript[] = {
    {"alpha", JobKind::kHostFull, 0.0},   {"bravo", JobKind::kRemoteFull, 0.0},
    {"charlie", JobKind::kStream, 0.0},   {"alpha", JobKind::kHostFull, 0.5},
    {"charlie", JobKind::kStream, 0.5},   {"bravo", JobKind::kRemoteFull, 1.0},
    {"alpha", JobKind::kHostFull, 1.0},   {"charlie", JobKind::kStream, 1.5},
    {"alpha", JobKind::kHostFull, 2.0},   {"charlie", JobKind::kStream, 2.0},
};

std::vector<ScriptJob> script_of(const WorkloadSpec& w) {
  if (w.full_mix) return {std::begin(kMixScript), std::end(kMixScript)};
  return {std::begin(kCompactScript), std::end(kCompactScript)};
}

int scene_of_job(std::size_t job) { return static_cast<int>(job % kScenes); }

service::JobRequest request_for(const ScriptJob& j, int scene,
                                const WorkloadSpec& w, const Fixture& f) {
  service::JobRequest r;
  r.tenant = j.tenant;
  r.arrival = from_seconds(j.arrival_s);
  core::FusionJobConfig& c = r.config;
  c.screening_threshold = w.theta;
  c.shape = {w.size, w.size, kBands};
  const auto s = static_cast<std::size_t>(scene);
  switch (j.kind) {
    case JobKind::kHostFull:
      c.mode = core::ExecutionMode::kFull;
      c.cube = &f.scenes[s].cube;
      c.workers = 2;
      c.tiles_per_worker = kTiles / 2;
      break;
    case JobKind::kRemoteFull:
      c.mode = core::ExecutionMode::kFull;
      c.cube = &f.scenes[s].cube;
      c.workers = 2 + kRemoteWorkers;
      c.tiles_per_worker = kTiles / (2 + kRemoteWorkers);
      break;
    case JobKind::kStream:
      // One sub-tile per chunk, a tile's rows per chunk: 8 chunk tiles.
      r.mode = service::JobMode::kStreaming;
      r.cube_path = f.cube_paths[s];
      r.chunk_lines = w.size / kTiles;
      c.workers = 1;
      c.tiles_per_worker = 1;
      break;
  }
  return r;
}

struct BatchResult {
  double wall_s = 0.0;    ///< first submit() until run() returns
  double submit_s = 0.0;  ///< summed submit() wall time
  double run_s = 0.0;     ///< run() wall time
  service::ServiceReport report;
};

BatchResult run_service_batch(const WorkloadSpec& w, const Fixture& f,
                              int threads, SpanRecorder* rec, int parent,
                              int rep) {
  service::ServiceConfig cfg;
  cfg.worker_nodes = 2;
  cfg.execution_threads = threads;
  cfg.remote_workers = kRemoteWorkers;
  cfg.remote_spawn_local = true;
  // Two resident cubes and a streamed job fit; a third Full job queues.
  cfg.host_memory_budget = f.scenes.front().cube.bytes() * 5 / 2;
  service::FusionService svc(cfg);
  const auto script = script_of(w);
  std::vector<service::JobRequest> requests;
  for (std::size_t i = 0; i < script.size(); ++i) {
    requests.push_back(request_for(script[i], scene_of_job(i), w, f));
  }
  BatchResult b;
  const auto t0 = Clock::now();
  for (auto& r : requests) {
    const ScopedSpan s(rec, "service.submit", parent, w.name, rep);
    const auto ts = Clock::now();
    (void)svc.submit(std::move(r));
    b.submit_s += seconds_since(ts);
  }
  {
    const ScopedSpan s(rec, "service.run", parent, w.name, rep);
    const auto tr = Clock::now();
    b.report = svc.run();
    b.run_s = seconds_since(tr);
  }
  b.wall_s = seconds_since(t0);
  return b;
}

/// Each job of a batch against its direct-engine reference, the two-pass
/// engine on the job's scene at the same 8 tiles and 2 shards: byte-equal
/// for remote jobs, within the fused/streaming tolerance for host jobs.
void check_batch(BatchResult& b, const WorkloadSpec& w,
                 const std::vector<FusionOutput>& refs, Oracle& oracle) {
  const auto script = script_of(w);
  for (std::size_t i = 0; i < script.size(); ++i) {
    const std::string what = "service job " + std::to_string(i) + " (" +
                             to_string(script[i].kind) + ")";
    if (i >= b.report.jobs.size()) {
      oracle.record(what, "missing from the report");
      continue;
    }
    service::JobRecord& rec = b.report.jobs[i];
    const FusionOutput& ref = refs[static_cast<std::size_t>(scene_of_job(i))];
    std::string miss;
    if (rec.rejected != service::RejectReason::kNone) {
      miss = std::string("rejected: ") + service::to_string(rec.rejected);
    } else if (rec.failed || !rec.completed) {
      miss = "did not complete";
    } else if (script[i].kind == JobKind::kRemoteFull &&
               !rec.remote_executed) {
      miss = "fell back to the host";
    } else {
      const FusionOutput got{std::move(rec.outcome.composite.data),
                             rec.outcome.unique_set_size,
                             std::move(rec.outcome.eigenvalues)};
      if (!rec.remote_executed) {
        miss = check_tolerant(ref, got);
      } else if (rec.remote_workers != kRemoteWorkers) {
        miss = "ran on " + std::to_string(rec.remote_workers) + " shards";
      } else {
        miss = check_exact(ref, got);
      }
    }
    oracle.record(what, miss);
  }
  if (b.report.remote_fallbacks > 0) {
    oracle.record("service batch", std::to_string(b.report.remote_fallbacks) +
                                       " remote fallbacks");
  }
}

// --- Traced pieces ------------------------------------------------------------

struct ReplayCounts {
  std::uint64_t screen_comparisons = 0;
  std::uint64_t merge_comparisons = 0;
  int jacobi_sweeps = 0;
};

/// fuse_parallel replayed through its public pieces, one span per stage
/// under `parent`: partition_rows -> screen_range per tile on the pool ->
/// UniqueSet::merge in tile order -> MeanAccumulator + sharded
/// CovarianceAccumulator -> jacobi_eigen -> transform_and_map_range. With
/// the same tiles and shards its composite is byte-identical to
/// fuse_parallel's.
FusionOutput replay_two_pass(const hsi::ImageCube& cube, core::ThreadPool& pool,
                             double theta, SpanRecorder& rec, int parent,
                             const std::string& wl, int rep,
                             ReplayCounts& counts) {
  const int bands = cube.bands();
  std::vector<hsi::Tile> tiles;
  {
    const ScopedSpan s(&rec, "core.partition", parent, wl, rep);
    tiles = hsi::partition_rows({cube.width(), cube.height(), bands}, kTiles);
  }
  std::vector<core::UniqueSet> sets(tiles.size(),
                                    core::UniqueSet(bands, theta));
  {
    const ScopedSpan s(&rec, "core.screen", parent, wl, rep);
    std::vector<std::uint64_t> comps(tiles.size(), 0);
    pool.parallel_tasks(static_cast<int>(tiles.size()), [&](int i) {
      const ScopedSpan t(&rec, "core.screen_range", s.id(), wl, rep);
      const auto k = static_cast<std::size_t>(i);
      sets[k] = core::screen_range(cube, tiles[k].first_flat_index(),
                                   tiles[k].end_flat_index(), theta, &comps[k]);
    });
    for (const std::uint64_t c : comps) counts.screen_comparisons += c;
  }
  core::UniqueSet unique(bands, theta);
  {
    const ScopedSpan s(&rec, "core.merge", parent, wl, rep);
    for (const auto& set : sets) unique.merge(set, &counts.merge_comparisons);
  }
  std::vector<double> mean;
  {
    const ScopedSpan s(&rec, "linalg.mean", parent, wl, rep);
    linalg::MeanAccumulator acc(bands);
    for (std::size_t i = 0; i < unique.size(); ++i) acc.add(unique.member(i));
    mean = acc.mean();
  }
  linalg::Matrix cov;
  {
    const ScopedSpan s(&rec, "linalg.covariance", parent, wl, rep);
    const auto chunks = hsi::partition_range(
        static_cast<std::int64_t>(unique.size()), kRemoteWorkers);
    std::vector<linalg::CovarianceAccumulator> accs;
    for (int k = 0; k < kRemoteWorkers; ++k) accs.emplace_back(bands, mean);
    pool.parallel_tasks(kRemoteWorkers, [&](int k) {
      constexpr std::int64_t kRows = linalg::CovarianceAccumulator::kBlockRows;
      const hsi::Chunk& c = chunks[static_cast<std::size_t>(k)];
      for (std::int64_t i = c.begin; i < c.end; i += kRows) {
        accs[static_cast<std::size_t>(k)].add_block(
            unique.flat().data() + i * bands,
            static_cast<int>(std::min(kRows, c.end - i)));
      }
    });
    for (int k = 1; k < kRemoteWorkers; ++k) {
      accs.front().merge(accs[static_cast<std::size_t>(k)]);
    }
    cov = accs.front().covariance();
  }
  linalg::EigenResult eig;
  {
    const ScopedSpan s(&rec, "linalg.eigen", parent, wl, rep);
    eig = linalg::jacobi_eigen(cov, linalg::JacobiOptions{});
  }
  counts.jacobi_sweeps = eig.sweeps;
  FusionOutput out;
  {
    const ScopedSpan s(&rec, "core.transform", parent, wl, rep);
    const core::PctConfig pct;
    const linalg::Matrix t =
        core::transform_matrix(eig.vectors, pct.output_components);
    const auto scales = core::scales_from_eigenvalues(eig.values);
    std::vector<std::vector<float>> planes(
        static_cast<std::size_t>(pct.output_components),
        std::vector<float>(static_cast<std::size_t>(cube.pixel_count())));
    hsi::RgbImage composite(cube.width(), cube.height());
    pool.parallel_for(cube.pixel_count(),
                      [&](std::int64_t lo, std::int64_t hi) {
                        core::transform_and_map_range(cube, t, mean, scales,
                                                      planes, composite, lo,
                                                      hi);
                      });
    out.composite = std::move(composite.data);
  }
  out.unique_set_size = unique.size();
  out.eigenvalues = std::move(eig.values);
  return out;
}

/// Every tile's TileAssignMsg, as one remote job ships it, through encode
/// -> WireEnvelope::encode -> encode_frame -> FrameAssembler -> decode.
/// Returns the framed bytes, or nullopt when a round trip loses data.
std::optional<std::uint64_t> codec_probe(const hsi::ImageCube& cube,
                                         SpanRecorder& rec, int parent,
                                         const std::string& wl, int rep) {
  std::uint64_t wire_bytes = 0;
  bool ok = true;
  for (const hsi::Tile& tile : hsi::partition_rows(
           {cube.width(), cube.height(), cube.bands()}, kTiles)) {
    core::TileAssignMsg assign;
    assign.tile = core::WireTile::from(tile);
    const float* first = cube.pixel(tile.first_flat_index()).data();
    assign.data.assign(first, first + tile.pixels() * tile.bands);
    std::vector<std::uint8_t> frame;
    {
      const ScopedSpan s(&rec, "net.encode", parent, wl, rep);
      const scp::Message msg = assign.encode(0);
      scp::WireEnvelope env;
      env.kind = scp::FrameKind::kApp;
      env.seq = 1;
      env.msg_type = msg.type;
      env.declared = msg.declared_bytes;
      env.payload = msg.payload;
      frame = net::encode_frame(env.encode());
    }
    wire_bytes += frame.size();
    std::optional<core::TileAssignMsg> back;
    {
      const ScopedSpan s(&rec, "net.decode", parent, wl, rep);
      net::FrameAssembler assembler;
      std::vector<std::uint8_t> payload;
      const bool fed = assembler.feed(
          frame.data(), frame.size(),
          [&](std::vector<std::uint8_t> p) { payload = std::move(p); });
      const auto env = fed ? scp::WireEnvelope::try_decode(payload)
                           : std::optional<scp::WireEnvelope>{};
      if (env) back = core::TileAssignMsg::try_decode(env->to_message());
    }
    ok = ok && back && back->data == assign.data &&
         back->tile.index == assign.tile.index &&
         back->tile.rows == assign.tile.rows;
  }
  if (!ok) return std::nullopt;
  return wire_bytes;
}

// --- Rounds -------------------------------------------------------------------

/// Per scene: the two-pass output every other path is checked against, and
/// the sequential warm-up's bytes, which every later sequential call must
/// repeat.
struct References {
  std::vector<FusionOutput> two_pass;
  std::vector<FusionOutput> sequential;
};

/// One sample per round: a path's mean wall time per scene, or the service
/// batch's wall time.
struct PathSamples {
  std::vector<double> sequential, two_pass, fused, stream, remote, service;
};

/// Time `call` into `out`; the previous output is released before the
/// clock starts, so no unrelated deallocation lands in a timed call.
template <class F>
double time_call(FusionOutput& out, F&& call) {
  out = FusionOutput{};
  const auto t0 = Clock::now();
  out = call();
  return seconds_since(t0);
}

enum class Rule { kExact, kTolerant };

/// Call `path` on every scene, `passes` times over, checking each output;
/// returns the mean wall seconds per call.
template <class F>
double each_scene(const char* name, Rule rule,
                  const std::vector<FusionOutput>& refs, Oracle& oracle,
                  F&& path, int passes = 1) {
  double total = 0.0;
  FusionOutput out;
  for (int pass = 0; pass < passes; ++pass) {
    for (int s = 0; s < kScenes; ++s) {
      total += time_call(out, [&] { return path(s); });
      const FusionOutput& ref = refs[static_cast<std::size_t>(s)];
      oracle.record(
          std::string(name) + " scene " + std::to_string(s),
          verdict(out, rule == Rule::kExact ? check_exact(ref, out)
                                            : check_tolerant(ref, out)));
    }
  }
  return total / (passes * kScenes);
}

/// Passes over the scenes per round for each engine path.
struct Passes {
  int sequential = 1, two_pass = 1, fused = 1, stream = 1, remote = 1;
};

/// Enough passes to fill kPathSecondsPerRound, from the warm-up's mean
/// seconds per call.
int passes_for(double seconds_per_call) {
  const double pass = seconds_per_call * kScenes;
  return std::clamp(static_cast<int>(kPathSecondsPerRound / pass), 1,
                    kMaxPasses);
}

void untraced_round(Paths& p, int threads, const References& ref,
                    const Passes& n, Oracle& oracle, PathSamples& s) {
  s.sequential.push_back(each_scene(
      "sequential", Rule::kExact, ref.sequential, oracle,
      [&](int i) { return p.sequential(i); }, n.sequential));
  s.two_pass.push_back(each_scene(
      "two_pass", Rule::kExact, ref.two_pass, oracle,
      [&](int i) { return p.two_pass(i); }, n.two_pass));
  s.fused.push_back(each_scene(
      "fused", Rule::kTolerant, ref.two_pass, oracle,
      [&](int i) { return p.fused(i); }, n.fused));
  s.stream.push_back(each_scene(
      "stream", Rule::kTolerant, ref.two_pass, oracle,
      [&](int i) { return p.stream(i, nullptr); }, n.stream));
  s.remote.push_back(each_scene(
      "remote", Rule::kExact, ref.two_pass, oracle,
      [&](int i) { return p.remote(i, nullptr); }, n.remote));
  BatchResult b = run_service_batch(p.w, p.f, threads, nullptr, -1, -1);
  s.service.push_back(b.wall_s);
  check_batch(b, p.w, ref.two_pass, oracle);
}

/// Per-round numbers of the traced run that are not span durations. Span
/// sums and counts are per scene (divided by kScenes).
struct TraceSamples {
  PathSamples traced;  ///< span-wrapped path times
  std::vector<double> idle_two_pass, idle_fused, idle_stream;
  std::vector<double> unattributed;
  Ledger last_ledger;
  std::vector<double> screen_comparisons, merge_comparisons, jacobi_sweeps;
  std::vector<stream::StreamingStats> stream;  ///< one per scene call
  std::vector<double> codec_bytes;
  std::vector<double> submit_s, remote_phase_s, host_phase_s, host_util,
      other_s, remote_jobs, remote_fallbacks, jobs_failed;
  int tiles_resent = 0, shards_resent = 0, worker_disconnects = 0;
};

/// The pool's parked share of threads x wall while `call` runs.
template <class F>
double idle_fraction(core::ThreadPool& pool, F&& call) {
  const double idle0 = pool.idle_seconds();
  const auto t0 = Clock::now();
  call();
  const double wall = seconds_since(t0);
  return (pool.idle_seconds() - idle0) / (pool.size() * wall);
}

/// The untraced round's calls, each wrapped in a path span and with the
/// same passes, so obs.trace_overhead_frac compares like with like; then
/// the stage replay of the two-pass engine and the layer probes.
void traced_round(Paths& p, int threads, const References& ref,
                  const Passes& n, SpanRecorder& rec, int rep, Oracle& oracle,
                  TraceSamples& ts) {
  const std::string wl = p.w.name;
  core::ThreadPool& pool = *p.f.pool;
  const ScopedSpan round(&rec, "round", -1, wl, rep);
  // A path span per scene call, under the round.
  const auto spanned = [&](const char* span, auto path) {
    return [&, span, path](int s) {
      const ScopedSpan t(&rec, span, round.id(), wl, rep);
      return path(s);
    };
  };

  ts.traced.sequential.push_back(each_scene(
      "traced sequential", Rule::kExact, ref.sequential, oracle,
      spanned("path.sequential", [&](int s) { return p.sequential(s); }),
      n.sequential));

  ts.idle_two_pass.push_back(idle_fraction(pool, [&] {
    ts.traced.two_pass.push_back(each_scene(
        "traced two_pass", Rule::kExact, ref.two_pass, oracle,
        spanned("path.two_pass", [&](int s) { return p.two_pass(s); }),
        n.two_pass));
  }));

  // The stage replay, once per scene: the stage ledger and stage metrics.
  ReplayCounts counts;
  std::vector<int> replays;
  (void)each_scene("stage replay vs two_pass", Rule::kExact, ref.two_pass,
                   oracle, [&](int s) {
                     const ScopedSpan t(&rec, "replay.two_pass", round.id(),
                                        wl, rep);
                     replays.push_back(t.id());
                     return replay_two_pass(p.cube(s), pool, p.w.theta, rec,
                                            t.id(), wl, rep, counts);
                   });
  const std::vector<Span> spans = rec.spans();
  double unattributed = 0.0;
  for (const int id : replays) {
    ts.last_ledger = stage_ledger(spans, id);
    unattributed += ts.last_ledger.unattributed;
    oracle.record("stage ledger",
                  ts.last_ledger.consistent
                      ? ""
                      : "stage spans overlap or leave the replay");
  }
  ts.unattributed.push_back(unattributed / kScenes);
  ts.screen_comparisons.push_back(
      static_cast<double>(counts.screen_comparisons) / kScenes);
  ts.merge_comparisons.push_back(
      static_cast<double>(counts.merge_comparisons) / kScenes);
  ts.jacobi_sweeps.push_back(counts.jacobi_sweeps);

  ts.idle_fused.push_back(idle_fraction(pool, [&] {
    ts.traced.fused.push_back(each_scene(
        "traced fused", Rule::kTolerant, ref.two_pass, oracle,
        spanned("path.fused", [&](int s) { return p.fused(s); }), n.fused));
  }));

  ts.idle_stream.push_back(idle_fraction(pool, [&] {
    ts.traced.stream.push_back(each_scene(
        "traced stream", Rule::kTolerant, ref.two_pass, oracle,
        spanned("path.stream", [&](int s) {
          stream::StreamingStats stats;
          FusionOutput out = p.stream(s, &stats);
          ts.stream.push_back(stats);
          return out;
        }),
        n.stream));
  }));

  ts.traced.remote.push_back(each_scene(
      "traced remote", Rule::kExact, ref.two_pass, oracle,
      spanned("path.remote", [&](int s) {
        service::RemoteExecResult counters;
        FusionOutput out = p.remote(s, &counters);
        ts.tiles_resent += counters.tiles_resent;
        ts.shards_resent += counters.shards_resent;
        ts.worker_disconnects += counters.worker_disconnects;
        return out;
      }),
      n.remote));

  BatchResult b;
  {
    const ScopedSpan s(&rec, "path.service", round.id(), wl, rep);
    b = run_service_batch(p.w, p.f, threads, &rec, s.id(), rep);
  }
  ts.traced.service.push_back(b.wall_s);
  double remote_phase = 0.0;
  int failed = 0;
  for (const auto& job : b.report.jobs) {
    if (job.remote_executed) remote_phase += job.host_seconds;
    if (job.failed || !job.completed) ++failed;
  }
  ts.submit_s.push_back(b.submit_s);
  ts.remote_phase_s.push_back(remote_phase);
  ts.host_phase_s.push_back(b.report.host_pool.wall_seconds);
  ts.host_util.push_back(b.report.host_pool.utilization);
  ts.other_s.push_back(b.run_s - remote_phase -
                       b.report.host_pool.wall_seconds);
  ts.remote_jobs.push_back(b.report.remote_jobs);
  ts.remote_fallbacks.push_back(b.report.remote_fallbacks);
  ts.jobs_failed.push_back(failed);
  check_batch(b, p.w, ref.two_pass, oracle);
  b = BatchResult{};

  // Layer probes outside the engine paths, on every scene.
  double wire_bytes = 0.0;
  for (int s = 0; s < kScenes; ++s) {
    const std::string& path = p.f.cube_paths[static_cast<std::size_t>(s)];
    {
      const ScopedSpan t(&rec, "net.codec", round.id(), wl, rep);
      const auto bytes = codec_probe(p.cube(s), rec, t.id(), wl, rep);
      oracle.record("wire codec round trip",
                    bytes ? "" : "a tile did not survive the round trip");
      wire_bytes += bytes ? static_cast<double>(*bytes) : 0.0;
    }
    {
      const ScopedSpan t(&rec, "hsi.chunk_read", round.id(), wl, rep);
      auto reader = hsi::ChunkedCubeReader::open(path);
      bool ok = reader.has_value();
      std::vector<float> buf;
      const int chunk = p.stream_config().chunk_lines;
      for (int y = 0; ok && y < reader->lines(); y += chunk) {
        ok = reader->read_lines(y, std::min(chunk, reader->lines() - y), buf);
      }
      oracle.record("chunked read", ok ? "" : "read_lines failed");
    }
    std::optional<hsi::ImageCube> loaded;
    {
      const ScopedSpan t(&rec, "hsi.load_cube", round.id(), wl, rep);
      loaded = hsi::load_cube(path);
    }
    oracle.record("load_cube", loaded && loaded->raw() == p.cube(s).raw()
                                   ? ""
                                   : "loaded cube differs from the scene");
  }
  ts.codec_bytes.push_back(wire_bytes / kScenes);
}

/// Per-scene mean of the durations of spans named `name` in round `rep`.
double span_mean(const std::vector<Span>& spans, const std::string& name,
                 int rep) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.rep == rep && s.name == name) total += s.duration();
  }
  return total / kScenes;
}

/// Self time per span name (per round, median over rounds), largest
/// first: where the traced rounds spent their time outside child spans.
void print_self_times(const std::vector<Span>& spans, int rounds) {
  std::map<std::string, std::vector<double>> per_round;
  for (const Span& s : spans) {
    if (s.rep < 0) continue;
    auto& v = per_round[s.name];
    v.resize(static_cast<std::size_t>(rounds), 0.0);
    v[static_cast<std::size_t>(s.rep)] += self_time(spans, s.id);
  }
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, v] : per_round) rows.emplace_back(median(v), name);
  std::sort(rows.rbegin(), rows.rend());
  std::printf("  self time by span (per round, median over rounds):\n");
  for (const auto& [t, name] : rows) {
    std::printf("    %-28s %.6g s\n", name.c_str(), t);
  }
}

std::string sample_line(const std::string& name, const std::vector<double>& v,
                        const std::string& unit) {
  char buf[256];
  const Quartiles q = quartiles(v);
  std::snprintf(buf, sizeof buf,
                "  %-18s median=%.6g %s q1=%.6g q3=%.6g n=%zu", name.c_str(),
                median(v), unit.c_str(), q.q1, q.q3, v.size());
  std::string line = buf;
  if (const auto tail = tail_percentile(v)) {
    line += " " + tail->label + "=" + json_number(tail->value);
  }
  return line;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const PathSamples& s, double rss) {
  const std::vector<std::pair<std::string, const std::vector<double>*>> e2e = {
      {"setup_s", &setup_s},           {"sequential_s", &s.sequential},
      {"two_pass_s", &s.two_pass},     {"fused_s", &s.fused},
      {"stream_s", &s.stream},         {"remote_s", &s.remote},
      {"service_batch_s", &s.service}};
  std::vector<Metric> metrics;
  for (const auto& [name, v] : e2e) {
    std::printf("%s\n", sample_line(name, *v, "s").c_str());
    metrics.push_back({name, median(*v), "s"});
  }
  std::printf("  %-18s %.6g MB\n", "peak_rss_mb", rss);
  metrics.push_back({"peak_rss_mb", rss, "MB"});
  return metrics;
}

std::vector<Metric> per_layer_metrics(const std::vector<Span>& spans,
                                      const TraceSamples& ts,
                                      const PathSamples& untraced,
                                      double unique_fraction) {
  const int rounds = static_cast<int>(ts.unattributed.size());
  const auto per_round = [&](const std::string& name) {
    std::vector<double> v;
    for (int r = 0; r < rounds; ++r) v.push_back(span_mean(spans, name, r));
    return median(v);
  };
  std::vector<double> attach;
  for (const Span& s : spans) {
    if (s.name == "cluster.attach") attach.push_back(s.duration());
  }
  using SS = stream::StreamingStats;
  const auto stream_stat = [&](auto field) {
    std::vector<double> v;
    for (const SS& st : ts.stream) v.push_back(static_cast<double>(field(st)));
    return median(v);
  };
  const double codec_s = per_round("net.encode") + per_round("net.decode");
  const double wire_bytes = median(ts.codec_bytes);
  // Tracing overhead: traced path times over the same paths untraced.
  const std::vector<std::pair<const std::vector<double>*,
                              const std::vector<double>*>>
      pairs = {{&ts.traced.sequential, &untraced.sequential},
               {&ts.traced.two_pass, &untraced.two_pass},
               {&ts.traced.fused, &untraced.fused},
               {&ts.traced.stream, &untraced.stream},
               {&ts.traced.remote, &untraced.remote},
               {&ts.traced.service, &untraced.service}};
  double traced_sum = 0.0;
  double untraced_sum = 0.0;
  for (const auto& [traced, plain] : pairs) {
    traced_sum += median(*traced);
    untraced_sum += median(*plain);
  }
  return {
      {"hsi.load_s", per_round("hsi.load_cube"), "s"},
      {"hsi.chunk_read_s", per_round("hsi.chunk_read"), "s"},
      {"core.screen_s", per_round("core.screen"), "s"},
      {"core.screen_comparisons", median(ts.screen_comparisons), "count"},
      {"core.merge_s", per_round("core.merge"), "s"},
      {"core.merge_comparisons", median(ts.merge_comparisons), "count"},
      {"core.unique_fraction", unique_fraction, "fraction"},
      {"core.transform_s", per_round("core.transform"), "s"},
      {"linalg.moments_s",
       per_round("linalg.mean") + per_round("linalg.covariance"), "s"},
      {"linalg.eigen_s", per_round("linalg.eigen"), "s"},
      {"linalg.jacobi_sweeps", median(ts.jacobi_sweeps), "count"},
      {"parallel.idle_frac.two_pass", median(ts.idle_two_pass), "fraction"},
      {"parallel.idle_frac.fused", median(ts.idle_fused), "fraction"},
      {"parallel.idle_frac.stream", median(ts.idle_stream), "fraction"},
      {"stages.unattributed_s", median(ts.unattributed), "s"},
      {"stream.read_s", stream_stat([](const SS& s) { return s.read_seconds; }),
       "s"},
      {"stream.reader_stall_s",
       stream_stat([](const SS& s) { return s.reader_stall_seconds; }), "s"},
      {"stream.compute_stall_s",
       stream_stat([](const SS& s) { return s.compute_stall_seconds; }), "s"},
      {"stream.screen_s",
       stream_stat([](const SS& s) { return s.screen_seconds; }), "s"},
      {"stream.transform_s",
       stream_stat([](const SS& s) { return s.transform_seconds; }), "s"},
      {"stream.peak_buffer_mb",
       stream_stat([](const SS& s) { return s.peak_buffer_bytes / 1e6; }),
       "MB"},
      {"stream.bytes_read",
       stream_stat([](const SS& s) { return s.bytes_read; }), "bytes"},
      {"net.codec_s", codec_s, "s"},
      {"net.codec_mb_per_s", wire_bytes / 1e6 / codec_s, "MB/s"},
      {"net.job_wire_bytes", wire_bytes, "bytes"},
      {"cluster.attach_s", median(attach), "s"},
      {"remote.tiles_resent", static_cast<double>(ts.tiles_resent), "count"},
      {"remote.shards_resent", static_cast<double>(ts.shards_resent), "count"},
      {"remote.worker_disconnects", static_cast<double>(ts.worker_disconnects),
       "count"},
      {"service.submit_s", median(ts.submit_s), "s"},
      {"service.remote_phase_s", median(ts.remote_phase_s), "s"},
      {"service.host_phase_s", median(ts.host_phase_s), "s"},
      {"service.host_utilization", median(ts.host_util), "fraction"},
      {"service.other_s", median(ts.other_s), "s"},
      {"service.remote_jobs", median(ts.remote_jobs), "count"},
      {"service.remote_fallbacks", median(ts.remote_fallbacks), "count"},
      {"service.jobs_failed", median(ts.jobs_failed), "count"},
      {"obs.trace_overhead_frac", traced_sum / untraced_sum - 1.0, "fraction"},
  };
}

int run(const Options& o) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (o.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  const auto process_start = Clock::now();
  const int threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));

  Fingerprint fp;
  fp.backend = linalg::kernels::backend();
  {
    std::ifstream cpuinfo("/proc/cpuinfo");
    fp.cpu_model = cpu_model_from(cpuinfo);
  }
  fp.nproc = static_cast<int>(std::thread::hardware_concurrency());
#if defined(__clang__)
  fp.compiler = "clang " __clang_version__;
#else
  fp.compiler = "gcc " __VERSION__;
#endif
  fp.build_type = RIF_E2E_BUILD_TYPE;
  fp.seed = o.seed;
  std::printf("%s\n", fingerprint_line(fp).c_str());

  SpanRecorder recorder;
  SpanRecorder* rec = o.trace ? &recorder : nullptr;

  // The first set-up window; its last fixture is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture = set_up_window(w, o, threads, rec, setup_s);
  if (fixture == nullptr) return 3;
  Paths paths{w, *fixture};
  Oracle oracle;

  // Warm-up: one untimed pass per path over the scenes. It fixes the
  // references and sizes each path's passes per round.
  References ref;
  Passes passes;
  auto t0 = Clock::now();
  for (int s = 0; s < kScenes; ++s) {
    ref.two_pass.push_back(paths.two_pass(s));
    oracle.record("warm-up two_pass", verdict(ref.two_pass.back(), ""));
  }
  passes.two_pass = passes_for(seconds_since(t0) / kScenes);
  t0 = Clock::now();
  for (int s = 0; s < kScenes; ++s) {
    ref.sequential.push_back(paths.sequential(s));
    oracle.record("warm-up sequential", verdict(ref.sequential.back(), ""));
  }
  passes.sequential = passes_for(seconds_since(t0) / kScenes);
  passes.fused = passes_for(
      each_scene("warm-up fused", Rule::kTolerant, ref.two_pass, oracle,
                 [&](int i) { return paths.fused(i); }));
  passes.stream = passes_for(
      each_scene("warm-up stream", Rule::kTolerant, ref.two_pass, oracle,
                 [&](int i) { return paths.stream(i, nullptr); }));
  passes.remote = passes_for(
      each_scene("warm-up remote", Rule::kExact, ref.two_pass, oracle,
                 [&](int i) { return paths.remote(i, nullptr); }));
  std::printf("passes per round: sequential=%d two_pass=%d fused=%d "
              "stream=%d remote=%d\n",
              passes.sequential, passes.two_pass, passes.fused, passes.stream,
              passes.remote);
  double unique = 0.0;
  double pixels = 0.0;
  std::string per_scene;
  for (int s = 0; s < kScenes; ++s) {
    const double k =
        static_cast<double>(ref.two_pass[static_cast<std::size_t>(s)]
                                .unique_set_size);
    const double n = static_cast<double>(paths.cube(s).pixel_count());
    unique += k;
    pixels += n;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", s == 0 ? "" : " ", k / n);
    per_scene += buf;
  }
  {
    BatchResult b = run_service_batch(w, *fixture, threads, nullptr, -1, -1);
    int queued = 0;
    for (const auto& job : b.report.jobs) queued += job.wait_seconds > 0.0;
    std::printf("service batch: %d jobs, %d completed, %d remote, %d queued, "
                "at most %d concurrent\n",
                b.report.jobs_submitted, b.report.jobs_completed,
                b.report.remote_jobs, queued, b.report.max_concurrent_jobs);
    check_batch(b, w, ref.two_pass, oracle);
  }
  Regime regime;
  regime.workload = w.name;
  regime.width = w.size;
  regime.height = w.size;
  regime.bands = kBands;
  regime.theta = w.theta;
  regime.unique_fraction = unique / pixels;
  regime.tiles = kTiles;
  regime.threads = threads;
  regime.remote_workers = kRemoteWorkers;
  std::printf("%s scenes=%d K/N per scene: %s\n", regime_line(regime).c_str(),
              kScenes, per_scene.c_str());

  // Timed rounds.
  PathSamples samples;
  TraceSamples ts;
  const auto t_measure = Clock::now();
  for (int rep = 0;; ++rep) {
    if (rep >= kMinRounds && seconds_since(t_measure) >= o.seconds) break;
    if (rep >= 1 && seconds_since(process_start) >= kRoundCutoffSeconds) break;
    untraced_round(paths, threads, ref, passes, oracle, samples);
    if (rec != nullptr) {
      traced_round(paths, threads, ref, passes, *rec, rep, oracle, ts);
    }
  }

  // The closing set-up window. The high-water RSS is read first and the
  // measured fixture released, so no two fixtures are ever alive at once.
  const double rss = peak_rss_mb();
  fixture.reset();
  if (set_up_window(w, o, threads, rec, setup_s) == nullptr) return 3;

  // Regime check: a seed that leaves its regime is reported, not hidden.
  const bool in_regime = regime.unique_fraction >= w.min_unique_fraction &&
                         regime.unique_fraction <= w.max_unique_fraction &&
                         (!w.full_mix || oracle.service_failed() == 0);
  std::printf("regime check: %s %g <= K/N=%.4g <= %g%s: %s\n", w.name,
              w.min_unique_fraction, regime.unique_fraction,
              w.max_unique_fraction,
              w.full_mix ? ", every service job completed" : "",
              in_regime ? "in regime" : "LEFT ITS REGIME");

  std::vector<Metric> metrics;
  if (rec == nullptr) {
    std::printf("end-to-end (%s, per scene except the batch):\n", w.name);
    metrics = end_to_end_metrics(setup_s, samples, rss);
  } else {
    const std::vector<Span> spans = recorder.spans();
    metrics = per_layer_metrics(spans, ts, samples, regime.unique_fraction);
    std::printf("per-layer (%s, %zu traced rounds; per scene, service.* "
                "per batch):\n",
                w.name, ts.unattributed.size());
    for (const Metric& m : metrics) {
      std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    print_self_times(spans, static_cast<int>(ts.unattributed.size()));
    const Ledger& l = ts.last_ledger;
    std::printf("  stage ledger (last replay): wall %.6g s = stages %.6g s + "
                "unattributed %.6g s\n",
                l.wall, l.stage_sum, l.unattributed);
    const std::string span_path =
        (std::filesystem::path(o.out_dir) /
         ("spans-" + std::string(w.name) + "-seed" + std::to_string(o.seed) +
          ".json"))
            .string();
    std::ofstream(span_path) << recorder.to_json();
    std::printf("spans written to %s\n", span_path.c_str());
  }

  std::printf("%s\n", result_json(oracle.failed() == 0, oracle.attempted(),
                                  oracle.failed(), metrics)
                          .c_str());
  std::fflush(stdout);
  return oracle.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const auto options = e2e::parse_args(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: rif_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return e2e::run(*options);
}
