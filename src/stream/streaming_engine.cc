#include "stream/streaming_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/parallel/parallel_pct.h"
#include "hsi/chunked_reader.h"
#include "hsi/partition.h"
#include "linalg/jacobi_eig.h"
#include "linalg/stats.h"
#include "obs/span_tracer.h"
#include "runtime/chunk_geometry.h"
#include "stream/bounded_queue.h"
#include "support/check.h"
#include "support/log.h"

namespace rif::stream {

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// One recycled chunk buffer. The engine owns a fixed set of these
/// (queue_depth of them); indices circulate reader -> full queue ->
/// compute -> free queue -> reader, so allocation is bounded for the whole
/// run regardless of file size.
struct ChunkBuffer {
  int line0 = 0;
  int rows = 0;
  std::vector<float> data;  // rows * samples * bands, BIP
};

/// Registry series of one streamed run, looked up once. The engine always
/// records into a run-private registry; StreamingStats is materialized
/// from it afterwards, and the whole registry merges into an optional
/// long-lived one (StreamingConfig::metrics).
struct RunMetrics {
  runtime::MetricsRegistry& reg;
  runtime::Counter& chunks = reg.counter("chunks");
  runtime::Counter& bytes_read = reg.counter("bytes_read");
  runtime::Gauge& chunk_bytes =
      reg.gauge("chunk_bytes", runtime::GaugeKind::kMax);
  runtime::Gauge& peak_buffer_bytes =
      reg.gauge("peak_buffer_bytes", runtime::GaugeKind::kMax);
  runtime::Gauge& reader_stall =
      reg.gauge("reader_stall_seconds", runtime::GaugeKind::kSum);
  runtime::Gauge& compute_stall =
      reg.gauge("compute_stall_seconds", runtime::GaugeKind::kSum);
  runtime::Histogram& read_hist = reg.histogram("chunk_read_seconds");
  runtime::Histogram& screen_hist = reg.histogram("chunk_screen_seconds");
  runtime::Histogram& fold_hist = reg.histogram("chunk_fold_seconds");
  runtime::Histogram& transform_hist =
      reg.histogram("chunk_transform_seconds");
};

/// The per-job StreamingStats view over the run's registry.
StreamingStats stats_view(const runtime::MetricsRegistry& reg) {
  StreamingStats s;
  s.chunks = static_cast<int>(reg.counter_value("chunks"));
  s.bytes_read = reg.counter_value("bytes_read");
  s.chunk_bytes = static_cast<std::uint64_t>(reg.gauge_value("chunk_bytes"));
  s.peak_buffer_bytes =
      static_cast<std::uint64_t>(reg.gauge_value("peak_buffer_bytes"));
  s.reader_stall_seconds = reg.gauge_value("reader_stall_seconds");
  s.compute_stall_seconds = reg.gauge_value("compute_stall_seconds");
  const auto hist_sum = [&reg](const char* name) {
    const runtime::Histogram* h = reg.find_histogram(name);
    return h == nullptr ? 0.0 : h->sum();
  };
  s.read_seconds = hist_sum("chunk_read_seconds");
  // screen_seconds keeps its pre-registry meaning: the whole pass-1
  // compute stage, screening fan-out plus the in-order fold.
  s.screen_seconds =
      hist_sum("chunk_screen_seconds") + hist_sum("chunk_fold_seconds");
  s.transform_seconds = hist_sum("chunk_transform_seconds");
  return s;
}

/// Shared state of one reader pass. The reader is a dedicated std::thread:
/// it must never borrow the compute pool, or a pool blocked in pop() could
/// starve the very stage that would refill it (see bounded_queue.h).
struct ReaderPass {
  hsi::ChunkedCubeReader* reader = nullptr;
  std::vector<ChunkBuffer>* buffers = nullptr;
  BoundedQueue<int>* free_q = nullptr;
  BoundedQueue<int>* full_q = nullptr;
  int chunk_lines = 0;
  RunMetrics* metrics = nullptr;
  /// Job attribution for the reader thread's spans — the reader runs
  /// outside the consumer's JobScope, so the id travels explicitly.
  std::int64_t trace_job = obs::kNoJob;
  std::atomic<bool> io_error{false};

  void run() {
    obs::SpanTracer::instance().set_thread_name("stream-reader");
    const int lines = reader->lines();
    int line0 = 0;
    while (line0 < lines) {
      const auto idx = free_q->pop();
      if (!idx) return;  // aborted by the consumer
      ChunkBuffer& buf = (*buffers)[static_cast<std::size_t>(*idx)];
      buf.line0 = line0;
      buf.rows = std::min(chunk_lines, lines - line0);
      // Reserve EXACTLY the chunk's footprint before the read resizes the
      // buffer: resize()'s geometric growth could otherwise hand a buffer
      // up to 2x its nominal bytes.
      buf.data.reserve(static_cast<std::size_t>(
          reader->chunk_bytes(buf.rows) / sizeof(float)));
      const auto t0 = clock::now();
      bool ok;
      {
        RIF_TRACE_SPAN_JOB("chunk_read", trace_job);
        ok = reader->read_lines(line0, buf.rows, buf.data);
      }
      metrics->read_hist.observe(seconds_since(t0));
      if (!ok) {
        io_error.store(true);
        free_q->push(*idx);
        break;
      }
      metrics->bytes_read.add(reader->chunk_bytes(buf.rows));
      metrics->chunk_bytes.record(
          static_cast<double>(reader->chunk_bytes(buf.rows)));
      line0 += buf.rows;
      if (!full_q->push(*idx)) return;  // aborted by the consumer
    }
    full_q->close();  // end-of-stream (or I/O error): drain and stop
  }
};

/// Join-on-destruction wrapper so an early return (I/O error, degenerate
/// scene CHECK) can never leave the reader thread running against queues
/// about to be destroyed.
class ReaderThread {
 public:
  explicit ReaderThread(ReaderPass& pass)
      : pass_(pass), thread_([&pass] { pass.run(); }) {}
  ~ReaderThread() { join(); }

  /// Unblock the reader if necessary and wait for it; the pass counters
  /// are stable (and safely readable) once this returns.
  void join() {
    if (!thread_.joinable()) return;
    pass_.free_q->close();  // releases a reader blocked on a free buffer
    pass_.full_q->close();
    thread_.join();
  }

 private:
  ReaderPass& pass_;
  std::thread thread_;
};

/// One full reader pass over the file: owns the queue pair, feeds every
/// chunk through `consume` (in ascending chunk order, on the calling
/// thread), joins the reader and merges the pass's stall attribution into
/// the run registry. Returns false on a mid-pass I/O error. Shared by both
/// pipeline passes so stall attribution and the error path cannot diverge
/// between them.
bool run_reader_pass(hsi::ChunkedCubeReader& reader,
                     std::vector<ChunkBuffer>& buffers, int chunk_lines,
                     RunMetrics& metrics, std::int64_t trace_job,
                     const std::function<void(const ChunkBuffer&)>& consume) {
  // The free queue can hold every buffer; the full queue's capacity is
  // what is left after the slot the reader is filling and the one the
  // compute stage is draining — so in-flight memory can never exceed
  // buffers.size() chunks.
  BoundedQueue<int> free_q(buffers.size());
  BoundedQueue<int> full_q(buffers.size() - 2);
  free_q.bind_metrics(metrics.reg, "free_queue.");
  full_q.bind_metrics(metrics.reg, "full_queue.");
  for (int i = 0; i < static_cast<int>(buffers.size()); ++i) free_q.push(i);

  ReaderPass pass;
  pass.reader = &reader;
  pass.buffers = &buffers;
  pass.free_q = &free_q;
  pass.full_q = &full_q;
  pass.chunk_lines = chunk_lines;
  pass.metrics = &metrics;
  pass.trace_job = trace_job;
  ReaderThread reader_thread(pass);

  while (const auto idx = full_q.pop()) {
    consume(buffers[static_cast<std::size_t>(*idx)]);
    free_q.push(*idx);
  }
  reader_thread.join();
  metrics.compute_stall.record(full_q.pop_stall_seconds());
  metrics.reader_stall.record(free_q.pop_stall_seconds() +
                              full_q.push_stall_seconds());
  return !pass.io_error.load();
}

}  // namespace

std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              core::ThreadPool& pool,
                                              const StreamingConfig& config) {
  RIF_CHECK(config.pct.output_components >= 3);
  // Shared bounds with submit-time validation: zero/negative and absurdly
  // huge geometry fails the same way everywhere — a logged error, not a
  // crash or a near-cube allocation.
  if (const char* error = runtime::validate_chunk_geometry(
          config.chunk_lines, config.queue_depth)) {
    RIF_LOG_WARN("stream", "rejecting stream of " << cube_path << ": "
                                                  << error);
    return std::nullopt;
  }
  auto reader = hsi::ChunkedCubeReader::open(cube_path);
  if (!reader) return std::nullopt;

  // Ambient job id of the submitting task (the service's JobScope),
  // captured once: per-chunk spans run on pool workers and the reader
  // thread, outside that scope, so the id travels explicitly.
  const std::int64_t trace_job = obs::current_job();

  const int W = reader->samples();
  const int H = reader->lines();
  const int B = reader->bands();
  const int tiles_per_chunk =
      config.tiles_per_chunk > 0 ? config.tiles_per_chunk : pool.size();

  runtime::MetricsRegistry reg;
  RunMetrics metrics{reg};
  const int chunk_lines = std::min(config.chunk_lines, H);
  std::vector<ChunkBuffer> buffers(
      static_cast<std::size_t>(config.queue_depth));

  StreamingResult result;

  // --- pass 1: screen + moment sums, folded in chunk order ------------------
  core::UniqueSet unique(B, config.pct.screening_threshold);
  // Moment sums about the cube's first pixel, known once the first chunk
  // lands.
  std::optional<linalg::MomentAccumulator> total;
  std::uint64_t screen_comparisons = 0;
  {
    std::vector<core::UniqueSet> tile_sets;
    std::vector<linalg::MomentAccumulator> tile_moments;
    std::vector<std::uint8_t> dropped;
    const auto screen_chunk = [&](const ChunkBuffer& buf) {
      // Manual begin/end rather than one RAII span: screening and the
      // in-order fold are distinct trace stages of the same chunk.
      obs::SpanTracer& tracer = obs::SpanTracer::instance();
      const bool traced = tracer.enabled();
      if (traced) tracer.begin("chunk_screen", trace_job);
      const auto t0 = clock::now();
      metrics.chunks.add(1);
      if (!total) {
        total.emplace(B, std::vector<double>(buf.data.begin(),
                                             buf.data.begin() + B));
      }
      // Sub-tile the chunk exactly as the in-memory engines tile the cube,
      // screen each tile through the fused engine's kernel, then fold the
      // tiles in order into the global pair.
      const auto tiles =
          hsi::partition_rows({W, buf.rows, B}, tiles_per_chunk);
      const int tile_count = static_cast<int>(tiles.size());
      tile_sets.clear();
      tile_moments.clear();
      for (int i = 0; i < tile_count; ++i) {
        tile_sets.emplace_back(B, config.pct.screening_threshold);
        tile_moments.emplace_back(B, total->origin());
      }
      std::atomic<std::uint64_t> comparisons{0};
      pool.parallel_tasks(tile_count, [&](int i) {
        const auto& tile = tiles[static_cast<std::size_t>(i)];
        comparisons += core::screen_tile_moments(
            buf.data.data() + tile.first_flat_index() * B, tile.pixels(),
            tile_sets[static_cast<std::size_t>(i)],
            tile_moments[static_cast<std::size_t>(i)]);
      });
      screen_comparisons += comparisons.load();
      metrics.screen_hist.observe(seconds_since(t0));
      if (traced) tracer.end("chunk_screen", trace_job);
      if (traced) tracer.begin("chunk_fold", trace_job);
      const auto t1 = clock::now();
      for (int i = 0; i < tile_count; ++i) {
        core::fold_unique_moments(unique, *total,
                                  tile_sets[static_cast<std::size_t>(i)],
                                  tile_moments[static_cast<std::size_t>(i)],
                                  pool, dropped, &result.merge_comparisons);
      }
      metrics.fold_hist.observe(seconds_since(t1));
      if (traced) tracer.end("chunk_fold", trace_job);
    };
    RIF_TRACE_SPAN_JOB("stream_pass1", trace_job);
    if (!run_reader_pass(*reader, buffers, chunk_lines, metrics, trace_job,
                         screen_chunk)) {
      RIF_LOG_WARN("stream", "I/O error streaming " << cube_path);
      return std::nullopt;
    }
  }
  result.screen_comparisons = screen_comparisons;
  result.unique_set_size = unique.size();
  // A degenerate scene is a property of the INPUT, not a program bug: fail
  // the job (caller sees nullopt and reports it) instead of aborting a
  // service that may have other jobs in flight.
  if (unique.size() < 3) {
    RIF_LOG_WARN("stream", "degenerate scene in "
                               << cube_path << ": unique set has "
                               << unique.size() << " pixels (need >= 3)");
    return std::nullopt;
  }
  RIF_CHECK(total.has_value() && total->count() == unique.size());

  // --- barrier: statistics + eigen-solve -------------------------------------
  result.mean = total->mean();
  linalg::EigenResult eig;
  {
    RIF_TRACE_SPAN_JOB("stream_eigen", trace_job);
    const linalg::Matrix cov = total->covariance();
    eig = linalg::jacobi_eigen(cov, config.pct.jacobi);
  }
  result.eigenvalues = eig.values;
  result.eigenvectors = eig.vectors;
  result.jacobi_sweeps = eig.sweeps;

  // --- pass 2: streamed blocked transform + colour map -----------------------
  const linalg::Matrix t =
      core::transform_matrix(eig.vectors, config.pct.output_components);
  const std::vector<double> bias = core::projection_bias(t, result.mean);
  const auto scales = core::scales_from_eigenvalues(eig.values);
  const int comps = t.rows();
  result.composite = hsi::RgbImage(W, H);
  std::vector<float> plane_chunk;  // one chunk of components, when sunk
  {
    const auto transform_chunk = [&](const ChunkBuffer& buf) {
      obs::ScopedSpan transform_span("chunk_transform", trace_job);
      const auto t0 = clock::now();
      const std::int64_t count = static_cast<std::int64_t>(buf.rows) * W;
      const std::int64_t first_flat =
          static_cast<std::int64_t>(buf.line0) * W;
      float* planes = nullptr;
      if (config.plane_sink) {
        plane_chunk.resize(static_cast<std::size_t>(count) * comps);
        planes = plane_chunk.data();
      }
      pool.parallel_for(count, [&](std::int64_t lo, std::int64_t hi) {
        core::transform_and_map_chunk(
            buf.data.data() + lo * B, hi - lo, t, bias, scales,
            planes != nullptr ? planes + lo * comps : nullptr,
            result.composite, first_flat + lo);
      });
      if (config.plane_sink) {
        config.plane_sink(first_flat, count, comps, planes);
      }
      metrics.transform_hist.observe(seconds_since(t0));
    };
    RIF_TRACE_SPAN_JOB("stream_pass2", trace_job);
    if (!run_reader_pass(*reader, buffers, chunk_lines, metrics, trace_job,
                         transform_chunk)) {
      RIF_LOG_WARN("stream", "I/O error streaming " << cube_path);
      return std::nullopt;
    }
  }

  // Buffers only ever grow and all stay live until the run ends, so the
  // footprint's high-water is the final sum of their capacities.
  std::uint64_t buffer_bytes = 0;
  for (const ChunkBuffer& buf : buffers) {
    buffer_bytes += buf.data.capacity() * sizeof(float);
  }
  metrics.peak_buffer_bytes.record(static_cast<double>(buffer_bytes));
  result.stats = stats_view(reg);
  if (config.metrics != nullptr) {
    reg.merge_into(*config.metrics, config.metrics_prefix);
  }
  return result;
}

std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              int threads,
                                              const StreamingConfig& config) {
  core::ThreadPool pool(threads);
  return fuse_streaming(cube_path, pool, config);
}

}  // namespace rif::stream
