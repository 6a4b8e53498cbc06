#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace e2e {

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) {
    const double x = ld == 1 ? v[0] : std::numeric_limits<double>::quiet_NaN();
    return {x, x, x};
  }
  // statistics.quantiles(method="exclusive"), integer arithmetic included.
  const long n = 4;
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

std::optional<Tail> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::optional<Tail> best;
  // Nearest-rank percentiles in per-mille, in integers so that 100 samples
  // put exactly ten beyond p90.
  const std::pair<const char*, std::size_t> levels[] = {
      {"p90", 900}, {"p99", 990}, {"p999", 999}};
  for (const auto& [label, per_mille] : levels) {
    const std::size_t rank = (per_mille * n + 999) / 1000;  // ceil, 1-based
    if (rank == 0 || n - rank < 10) break;
    best = Tail{label, v[rank - 1]};
  }
  return best;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::string cpu_model_from(std::istream& cpuinfo) {
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto first = line.find_first_not_of(" \t", colon + 1);
    if (first == std::string::npos) continue;
    return line.substr(first);
  }
  return "unknown";
}

std::string fingerprint_line(const Fingerprint& f) {
  std::ostringstream os;
  os << "machine: backend=" << f.backend << " cpu=\"" << f.cpu_model
     << "\" nproc=" << f.nproc << " compiler=\"" << f.compiler
     << "\" build=" << f.build_type << " seed=" << f.seed;
  return os.str();
}

std::string regime_line(const Regime& r) {
  std::ostringstream os;
  os << "regime: workload=" << r.workload << " scene=" << r.width << "x"
     << r.height << "x" << r.bands << " theta=" << r.theta
     << " K/N=" << r.unique_fraction << " tiles=" << r.tiles
     << " threads=" << r.threads << " remote_workers=" << r.remote_workers;
  return os.str();
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::begin(const std::string& name, int parent,
                        const std::string& workload, int rep) {
  const double t = now();
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{id, parent, name, t, t, workload, rep});
  return id;
}

void SpanRecorder::end(int id) {
  const double t = now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "  {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"name\": " + json_string(s.name) +
           ", \"start\": " + json_number(s.start) +
           ", \"end\": " + json_number(s.end) +
           ", \"workload\": " + json_string(s.workload) +
           ", \"rep\": " + std::to_string(s.rep) + "}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  return out + "]\n";
}

double covered_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

namespace {

std::vector<std::pair<double, double>> child_intervals(
    const std::vector<Span>& spans, int id) {
  std::vector<std::pair<double, double>> out;
  for (const Span& s : spans) {
    if (s.parent == id) out.emplace_back(s.start, s.end);
  }
  return out;
}

}  // namespace

double self_time(const std::vector<Span>& spans, int id) {
  const Span& s = spans[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> inside;
  for (const auto& [a, b] : child_intervals(spans, id)) {
    const double lo = std::max(a, s.start);
    const double hi = std::min(b, s.end);
    if (hi > lo) inside.emplace_back(lo, hi);
  }
  return s.duration() - covered_length(std::move(inside));
}

Ledger stage_ledger(const std::vector<Span>& spans, int parent_id) {
  const Span& p = spans[static_cast<std::size_t>(parent_id)];
  const auto stages = child_intervals(spans, parent_id);
  Ledger l;
  l.wall = p.duration();
  bool inside = true;
  for (const auto& [a, b] : stages) {
    l.stage_sum += b - a;
    inside = inside && a >= p.start && b <= p.end;
  }
  l.unattributed = l.wall - l.stage_sum;
  // Overlapping stages would count one instant twice: their durations would
  // sum past the length of their union.
  const double overlap = l.stage_sum - covered_length(stages);
  l.consistent = inside && overlap <= 1e-9 * std::max(1.0, l.wall) &&
                 l.unattributed >= 0.0;
  return l;
}

std::string check_exact(const FusionOutput& ref, const FusionOutput& got) {
  if (got.unique_set_size != ref.unique_set_size) {
    return "unique-set size " + std::to_string(got.unique_set_size) +
           " != " + std::to_string(ref.unique_set_size);
  }
  if (got.eigenvalues != ref.eigenvalues) return "eigenvalues differ";
  if (got.composite.size() != ref.composite.size()) {
    return "composite size differs";
  }
  const auto [a, b] = std::mismatch(ref.composite.begin(), ref.composite.end(),
                                    got.composite.begin());
  if (a != ref.composite.end()) {
    return "composite byte " + std::to_string(a - ref.composite.begin()) +
           " is " + std::to_string(*b) + ", expected " + std::to_string(*a);
  }
  return "";
}

std::string check_tolerant(const FusionOutput& ref, const FusionOutput& got) {
  if (got.unique_set_size != ref.unique_set_size) {
    return "unique-set size " + std::to_string(got.unique_set_size) +
           " != " + std::to_string(ref.unique_set_size);
  }
  if (got.eigenvalues.size() != ref.eigenvalues.size()) {
    return "eigenvalue count differs";
  }
  for (std::size_t i = 0; i < ref.eigenvalues.size(); ++i) {
    // The rule the engine tests assert: relative above 1, absolute below.
    const double r = ref.eigenvalues[i];
    if (!(std::abs(got.eigenvalues[i] - r) <=
          1e-9 * std::max(1.0, std::abs(r)))) {
      return "eigenvalue " + std::to_string(i) + " off by more than 1e-9";
    }
  }
  if (got.composite.size() != ref.composite.size()) {
    return "composite size differs";
  }
  for (std::size_t i = 0; i < ref.composite.size(); ++i) {
    if (std::abs(int{got.composite[i]} - int{ref.composite[i]}) > 1) {
      return "composite byte " + std::to_string(i) + " is " +
             std::to_string(got.composite[i]) + ", expected " +
             std::to_string(ref.composite[i]) + " +-1";
    }
  }
  return "";
}

}  // namespace e2e
