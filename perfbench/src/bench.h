// Shared plumbing of the benchmark program: clocks, the result record
// (metrics with their units and in-run samples, attempted / failed
// operation counts), and the in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// One reported metric. `samples` are the repeated in-run measurements
/// the value summarizes (set-ups, jobs, windows); the result file gives
/// their min, median and spread.
struct Metric {
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;
};

/// Everything one run reports.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void set(const std::string& name, const std::string& unit, double value,
           std::vector<double> samples = {});
  /// Count one checked operation; `ok == false` records a failure.
  void check(bool ok, const std::string& what);
};

/// In-memory span recorder. Spans are appended from any thread to one
/// mutex-guarded process-wide store (a lock and a vector push each) and
/// written out when the run ends. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: root
    std::uint64_t request = 0;  ///< shared by the spans of one request
    std::int64_t t0_ns = 0, t1_ns = 0;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t record(const char* name, std::int64_t t0_ns,
                       std::int64_t t1_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0);
  /// Write the spans recorded so far as a Chrome trace-event JSON file.
  void write(const std::string& path) const;

 private:
  bool enabled_;
};

/// RAII span around a call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer), name_(name), parent_(parent), t0_(now_ns()) {}
  ~ScopedSpan() { tracer_.record(name_, t0_, now_ns(), parent_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::int64_t t0_;
};

/// Median of a sample (0 if empty).
double median(std::vector<double> v);

/// What a workload needs from the command line and the environment.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// When this pass started: process start for the first pass, so the
  /// first set-up covers process start-up too.
  std::int64_t start_ns = 0;
  int setups = 3;        ///< set-ups per pass (setup_s is their median)
  /// Also measure the figures only the per-layer report shows (the
  /// serve capacity ladder).
  bool layer_figures = false;
  std::string out_dir;   ///< results, traces and recorded reports
  std::string work_dir;  ///< scratch files of this run (packages)
};

/// Result of one pass of a workload: end-to-end metrics plus the layer
/// figures its traced pass observed.
struct PassOutput {
  Result e2e;
  std::map<std::string, double> layer;  ///< per-layer metric -> value
};

}  // namespace perfbench
