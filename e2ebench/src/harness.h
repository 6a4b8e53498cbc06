// Helpers of the end-to-end fusion benchmark that carry no engine code:
// sample statistics, the result line, the machine fingerprint, the
// benchmark's own span recorder with its stage ledger, and the output
// oracle. Kept apart from main.cc so the helper tests exercise exactly
// what the benchmark runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <istream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

// --- Sample statistics -----------------------------------------------------

/// Median of `v` (mean of the two middle values for even sizes). NaN when
/// `v` is empty.
double median(std::vector<double> v);

/// Quartile cut points as Python's `statistics.quantiles(v, n=4)` gives
/// them (the default "exclusive" method). Requires at least two samples.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// The highest of p90 / p99 / p999 with at least ten samples beyond it,
/// or nullopt when there are too few samples for any tail.
struct Tail {
  std::string label;  ///< "p90", "p99" or "p999"
  double value = 0.0;
};
std::optional<Tail> tail_percentile(std::vector<double> v);

// --- Result line -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A number with all its significant digits (round-trips a double).
std::string json_number(double v);

/// The benchmark's last stdout line: exactly the keys correct, attempted,
/// failed and metrics, each metric as {"value": ..., "unit": ...}.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics);

// --- Fingerprint -----------------------------------------------------------

struct Fingerprint {
  std::string backend;     ///< active SIMD tier of the kernel layer
  std::string cpu_model;
  int nproc = 0;
  std::string compiler;
  std::string build_type;
  std::uint64_t seed = 0;
};

/// "model name" of the first processor in a /proc/cpuinfo listing, or
/// "unknown".
std::string cpu_model_from(std::istream& cpuinfo);

/// One line naming every fingerprint field.
std::string fingerprint_line(const Fingerprint& f);

/// The regime a workload ran in; printed beside every number.
struct Regime {
  std::string workload;
  int width = 0;
  int height = 0;
  int bands = 0;
  double theta = 0.0;
  double unique_fraction = 0.0;  ///< K/N of the two-pass engine
  int tiles = 0;
  int threads = 0;
  int remote_workers = 0;
};
std::string regime_line(const Regime& r);

// --- Spans -------------------------------------------------------------------

struct Span {
  int id = -1;
  int parent = -1;  ///< -1 for a root span
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  std::string workload;
  int rep = -1;  ///< repetition index; -1 for set-up and warm-up
  [[nodiscard]] double duration() const { return end - start; }
};

/// Thread-safe in-memory span list; spans are written out once, at the end
/// of the run. Pool tasks record into it concurrently.
class SpanRecorder {
 public:
  SpanRecorder();
  /// Open a span and return its id.
  int begin(const std::string& name, int parent, const std::string& workload,
            int rep);
  void end(int id);
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] double now() const;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op, so untraced code pays
/// nothing but a branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int parent,
             const std::string& workload, int rep)
      : rec_(rec),
        id_(rec != nullptr ? rec->begin(name, parent, workload, rep) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Length of the union of [start, end) intervals.
double covered_length(std::vector<std::pair<double, double>> intervals);

/// A span's duration minus the part of it its direct children cover.
double self_time(const std::vector<Span>& spans, int id);

/// How a span's wall time splits into its direct children (the stages)
/// and the rest. `stage_sum + unattributed == wall` by construction;
/// `consistent` is false when stages overlap each other or leave the
/// parent, i.e. when the stages do not partition the wall time.
struct Ledger {
  double wall = 0.0;
  double stage_sum = 0.0;
  double unattributed = 0.0;
  bool consistent = false;
};
Ledger stage_ledger(const std::vector<Span>& spans, int parent_id);

// --- Output oracle ---------------------------------------------------------

/// The part of an engine's output the cross-engine contracts compare.
struct FusionOutput {
  std::vector<std::uint8_t> composite;
  std::size_t unique_set_size = 0;
  std::vector<double> eigenvalues;
};

/// Byte-identity contract (two-pass, remote, stage replay, and repeated
/// runs of one deterministic engine). Empty string when `got` matches,
/// otherwise the first difference in words.
std::string check_exact(const FusionOutput& ref, const FusionOutput& got);

/// Tolerance contract of the fused and streaming engines against two-pass:
/// the same unique-set size, eigenvalues within 1e-9 x max(1, |ref|), and
/// composite bytes within 1.
std::string check_tolerant(const FusionOutput& ref, const FusionOutput& got);

}  // namespace e2e
