// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out <dir> [--source-id <id>]
//   perfbench --prepare      (train + cache the resnet20 bundle)
//
// --trace 0 runs the workload once and reports the end-to-end metrics.
// --trace 1 runs it untraced, then traced with spans recorded in memory
// around every public call, then the per-layer probes; it reports the
// per-layer metrics plus the traced-minus-untraced difference of each
// end-to-end metric (trace_overhead.*), and writes the spans as a Chrome
// trace file. Every run writes a result file with run metadata and each
// metric's in-run min, median and spread. The last stdout line is the
// result JSON; the exit code is 1 when any output check failed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "common/cpu_features.h"
#include "common/logging.h"
#include "exp/workspace.h"
#include "schedule.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---------------------------------------------------------------------
// bench.h implementations
// ---------------------------------------------------------------------
void Result::set(const std::string& name, const std::string& unit,
                 double value, std::vector<double> samples) {
  Metric& m = metrics[name];
  m.unit = unit;
  m.value = value;
  m.samples = samples.empty() ? std::vector<double>{value} : samples;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {
std::mutex g_trace_mu;
std::vector<Tracer::Span> g_spans;  // all tracers share one store
std::uint64_t g_next_span = 1;
}  // namespace

std::uint64_t Tracer::record(const char* name, std::int64_t t0_ns,
                             std::int64_t t1_ns, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(g_trace_mu);
  Span s;
  s.name = name;
  s.id = g_next_span++;
  s.parent = parent;
  s.request = request;
  s.t0_ns = t0_ns;
  s.t1_ns = t1_ns;
  g_spans.push_back(s);
  return s.id;
}

void Tracer::write(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(g_trace_mu);
    spans = g_spans;
  }
  std::int64_t base = INT64_MAX;
  for (const Span& s : spans) base = std::min(base, s.t0_ns);
  std::ofstream f(path);
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.request ? 2 : 1)
      << ",\"ts\":" << static_cast<double>(s.t0_ns - base) * 1e-3
      << ",\"dur\":" << static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}}";
  }
  f << "\n]}\n";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed by --trace 0 (BENCHMARK.json end_to_end).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"ok_frac", "ratio"},
    {"trials_per_s", "trials/s"},
};

// Per-layer metrics, printed by --trace 1 (BENCHMARK.json per_layer). A
// layer the workload does not exercise reports 0.
const MetricDef kPerLayer[] = {
    {"serve.p99_ms", "ms"},
    {"serve.max_rate_rps", "req/s"},
    {"serve.host_p50_us", "us"},
    {"serve.host_p99_us", "us"},
    {"serve.outstanding_p99", "count"},
    {"serve.gen_lag_p99_us", "us"},
    {"serve.coverage_period_us", "us"},
    {"serve.scan_bytes_per_s", "B/s"},
    {"serve.coverage_alarms", "count"},
    {"serve.ttd_p50_ms", "ms"},
    {"serve.ttd_max_ms", "ms"},
    {"serve.detections", "count"},
    {"serve.groups_recovered", "count"},
    {"serve.quarantines", "count"},
    {"serve.epoch_retries", "count"},
    {"serve.epoch_fallbacks", "count"},
    {"serve.writer_sections", "count"},
    {"qnn.forward_b1_us", "us"},
    {"qnn.forward_b1_gmac_s", "GMAC/s"},
    {"qnn.forward_b64_img_s", "img/s"},
    {"qnn.forward_b64_pool_img_s", "img/s"},
    {"qnn.calibrate_ms", "ms"},
    {"exp.accuracy_subset_ms", "ms"},
    {"exp.make_bundle_ms", "ms"},
    {"core.attach_ms.radar2", "ms"},
    {"core.attach_ms.radar3", "ms"},
    {"core.attach_ms.crc13", "ms"},
    {"core.scan_gb_s.radar2", "GB/s"},
    {"core.scan_gb_s.radar3", "GB/s"},
    {"core.scan_gb_s.crc13", "GB/s"},
    {"core.memcpy_gb_s", "GB/s"},
    {"core.session_t1_gb_s", "GB/s"},
    {"core.session_t4_gb_s", "GB/s"},
    {"core.slice_us", "us"},
    {"core.recover_us", "us"},
    {"quant.restore_us", "us"},
    {"attack.profile_ms.random_msb", "ms"},
    {"attack.profile_ms.rowhammer", "ms"},
    {"campaign.profile_s", "s"},
    {"campaign.eval_s", "s"},
    {"campaign.img_per_s", "img/s"},
    {"campaign.replica_share", "ratio"},
    {"core.table4_overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".";
  std::string source_id = "unknown";
  bool prepare = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--prepare") {
      a.prepare = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 0);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--out") a.out = v;
    else if (k == "--source-id") a.source_id = v;
    else return false;
  }
  return a.prepare || (!a.workload.empty() && a.seconds > 0.0 &&
                       (a.trace == 0 || a.trace == 1));
}

PassOutput run_workload(const RunContext& ctx, Tracer& tr) {
  if (ctx.workload == "serve_steady") return run_serve(ctx, tr, false);
  if (ctx.workload == "serve_attack") return run_serve(ctx, tr, true);
  if (ctx.workload == "campaign_detect") return run_campaign(ctx, tr, false);
  if (ctx.workload == "campaign_eval") return run_campaign(ctx, tr, true);
  throw std::runtime_error("unknown workload: " + ctx.workload);
}

/// Fill ok_frac from the pass's checks (failures / attempted).
void finish_e2e(Result& r) {
  const double ok = r.attempted > 0
                        ? 1.0 - static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                        : 0.0;
  r.set("ok_frac", "ratio", ok);
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

/// In-run summary of a metric's samples: min, median, IQR / median.
std::string sample_summary(const Metric& m) {
  const double med = median(m.samples);
  double mn = m.samples.empty() ? 0.0 : m.samples[0];
  for (const double s : m.samples) mn = std::min(mn, s);
  const double spread =
      med != 0.0 ? (quantile(m.samples, 0.75) - quantile(m.samples, 0.25)) /
                       med
                 : 0.0;
  return "\"min\":" + num(mn) + ",\"median\":" + num(med) +
         ",\"spread\":" + num(spread) + ",\"n\":" +
         std::to_string(m.samples.size());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::int64_t process_start = now_ns();
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out DIR [--source-id ID] | --prepare\n");
    return 2;
  }
  radar::set_log_level(radar::LogLevel::kWarn);
  try {
    if (args.prepare) {
      const std::int64_t t0 = now_ns();
      const radar::exp::ModelBundle b =
          radar::exp::make_bundle(kModel, true, false);
      std::printf("prepared %s bundle in %.1f s\n", kModel,
                  seconds_since(t0));
      return 0;
    }

    RunContext ctx;
    ctx.workload = args.workload;
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.start_ns = process_start;
    ctx.out_dir = args.out;
    ctx.work_dir = args.out + "/work-" + std::to_string(::getpid());
    if (args.trace == 1) {
      // Two passes plus the probes: each pass sets up once, at half length.
      ctx.setups = 1;
      ctx.seconds /= 2.0;
    }
    std::filesystem::create_directories(ctx.work_dir);

    Result checks;  // every pass's output checks count
    std::map<std::string, Metric> reported;
    const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
    const std::size_t ndefs = args.trace ? std::size(kPerLayer)
                                         : std::size(kEndToEnd);
    Tracer off(false);
    PassOutput plain = run_workload(ctx, off);
    finish_e2e(plain.e2e);
    auto absorb = [&](const Result& r) {
      checks.attempted += r.attempted;
      checks.failed += r.failed;
      for (const std::string& f : r.failures) checks.failures.push_back(f);
    };
    absorb(plain.e2e);
    std::string trace_path;
    if (args.trace == 0) {
      for (std::size_t i = 0; i < ndefs; ++i)
        reported[defs[i].name] = plain.e2e.metrics[defs[i].name];
    } else {
      Tracer on(true);
      ctx.start_ns = now_ns();
      ctx.layer_figures = true;
      PassOutput traced = run_workload(ctx, on);
      finish_e2e(traced.e2e);
      absorb(traced.e2e);
      std::map<std::string, double> layer = traced.layer;
      for (const auto& [k, v] : run_layer_probes(on)) layer[k] = v;
      for (std::size_t i = 0; i < ndefs; ++i) {
        Metric m;
        m.unit = defs[i].unit;
        const auto it = layer.find(defs[i].name);
        m.value = it == layer.end() ? 0.0 : it->second;
        m.samples = {m.value};
        reported[defs[i].name] = m;
      }
      for (const MetricDef& d : kEndToEnd) {
        Metric m;
        m.unit = d.unit;
        m.value = traced.e2e.metrics[d.name].value -
                  plain.e2e.metrics[d.name].value;
        m.samples = {m.value};
        reported[std::string("trace_overhead.") + d.name] = m;
      }
      trace_path = args.out + "/trace-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".json";
      on.write(trace_path);
    }
    std::filesystem::remove_all(ctx.work_dir);

    // ---- human summary ----
    std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
    for (const auto& [name, m] : reported)
      std::printf("%-34s %16.6g  %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    std::printf("checks: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    for (const std::string& f : checks.failures)
      std::printf("  FAILED: %s\n", f.c_str());

    // ---- run metadata + per-metric spread, to the result file ----
    std::ostringstream meta;
    meta << "{\"workload\":" << json_str(args.workload)
         << ",\"seed\":" << args.seed << ",\"seconds\":" << num(args.seconds)
         << ",\"trace\":" << args.trace
         << ",\"cores\":" << std::thread::hardware_concurrency()
         << ",\"simd\":"
         << json_str(radar::cpu::level_name(radar::cpu::active_level()))
         << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
         << ",\"source\":" << json_str(args.source_id);
    if (!trace_path.empty()) meta << ",\"trace_file\":" << json_str(trace_path);
    meta << "}";
    std::printf("meta %s\n", meta.str().c_str());
    {
      std::ofstream f(args.out + "/result-" + args.workload + "-seed" +
                      std::to_string(args.seed) + "-trace" +
                      std::to_string(args.trace) + ".json");
      f << "{\"meta\":" << meta.str() << ",\"metrics\":{";
      bool first = true;
      for (const auto& [name, m] : reported) {
        f << (first ? "" : ",") << "\n" << json_str(name) << ":{\"value\":"
          << num(m.value) << ",\"unit\":" << json_str(m.unit) << ","
          << sample_summary(m) << "}";
        first = false;
      }
      f << "},\"attempted\":" << checks.attempted
        << ",\"failed\":" << checks.failed << "}\n";
    }

    // ---- the result line ----
    std::string line = "{\"correct\":";
    line += checks.failed == 0 ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(checks.attempted);
    line += ",\"failed\":" + std::to_string(checks.failed);
    line += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : reported) {
      line += (first ? "" : ",") + json_str(name) + ":{\"value\":" +
              num(m.value) + ",\"unit\":" + json_str(m.unit) + "}";
      first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
