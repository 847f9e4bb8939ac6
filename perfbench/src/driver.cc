// recur benchmark driver: runs one workload (closure or serve) from a seed
// for a number of seconds and prints every metric by name with its unit,
// then one JSON result line. Usually started through run.py, which builds
// it first; see perfbench/README.md.
//
//   perfbench_driver --workload serve --seed 3 --seconds 10 --trace 0
//       [--work-dir DIR] [--trace-out FILE] [--git-sha SHA]
//       [--source-digest HEX] [--tiny]
//
// Every run executes all three phases (closure, serve and restart), in
// interleaved steps, so every workload reports every end-to-end metric;
// the workload's own phase gets a double share of the measuring time (see
// Share). With --trace 0 the result holds the end-to-end metrics, measured
// untraced and scaled to a reference host speed (kProbeReferenceSeconds);
// the unscaled values are printed as `raw` lines. With
// --trace 1 the run measures twice, half the time each — untraced, then
// traced — and the result holds the per-layer metrics plus the tracing
// overhead (traced minus untraced).
// Exits 1 when any correctness check fails, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "phases.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-up repetitions at each end of a run; setup_s is the fastest of
/// them all, as the other timings take their fastest repetition (see the
/// README).
constexpr int kSetupReps = 5;
/// Host-speed normalization: every end-to-end timing is multiplied by
/// kProbeReferenceSeconds / (the run's fastest host probe), so it reads as
/// on a host where the probe takes this long. The host's speed moves by up
/// to a quarter over minutes, every metric with it (see the README).
constexpr double kProbeReferenceSeconds = 0.005;
/// Length of one slice of served traffic.
constexpr double kSliceSeconds = 0.5;
/// Untimed warm-up of each phase before an untraced measuring pass.
constexpr double kWarmupSeconds = 1.0;
/// How long a measuring pass may overrun its budget while a phase still
/// lacks its minimum samples.
constexpr double kOvertimeSeconds = 40;

using Phases = std::vector<std::pair<std::string, std::unique_ptr<Phase>>>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// The end-to-end metrics and their units, in report order.
const std::vector<std::pair<std::string, std::string>>& E2eUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"fixpoint_s", "s"},
      {"fixpoint_par_s", "s"},
      {"query_p50_us", "us"},
      {"query_p99_us", "us"},
      {"insert_p50_us", "us"},
      {"insert_p95_us", "us"},
      {"delete_p50_us", "us"},
      {"delete_p95_us", "us"},
      {"serve_ops_per_s", "1/s"},
      {"snapshot_ms", "ms"},
      {"restart_ms", "ms"},
      {"snapshot_bytes_per_edb_byte", "ratio"},
  };
  return units;
}

/// Power of the host-speed scale a metric takes by its unit: timings scale
/// with it, rates against it, sizes and ratios not at all.
int ScalePower(const std::string& unit) {
  if (unit == "s" || unit == "ms" || unit == "us") return 1;
  return unit == "1/s" ? -1 : 0;
}

/// Relative share of the measuring time: the workload's own phase weighs
/// double, so it gets half the time and each other phase a quarter.
double Share(const Args& args, const std::string& phase) {
  return phase == args.workload ? 2 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return (args->workload == "closure" || args->workload == "serve") &&
         args->seconds > 0;
}

/// Failed ops over attempted ops; sheds count as failures.
double ErrorRate(const Report& report) {
  return report.attempted == 0 ? 1.0
                               : static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintStamp(const Args& args, const RunConfig& config,
                const Report& report, double steal_s, double probe_s,
                double scale) {
  std::string sizes = "{";
  for (size_t i = 0; i < report.sizes.size(); ++i) {
    if (i > 0) sizes += ", ";
    sizes += JsonString(report.sizes[i].first) + ": " +
             JsonNumber(report.sizes[i].second);
  }
  sizes += "}";
  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %d, \"compiler\": %s, \"build_type\": %s, "
      "\"git_sha\": %s, \"source_digest\": %s, \"steal_s\": %s, "
      "\"host_probe_ms\": %s, \"host_scale\": %s, \"sizes\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0, config.nproc,
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.git_sha).c_str(),
      JsonString(args.source_digest).c_str(), JsonNumber(steal_s).c_str(),
      JsonNumber(probe_s * 1e3).c_str(), JsonNumber(scale).c_str(),
      sizes.c_str());
}

void WriteTrace(const std::string& path, const Args& args,
                const Report& report) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"workload\": " << JsonString(args.workload)
      << ", \"seed\": " << args.seed << ", \"spans\": [\n";
  for (size_t i = 0; i < report.spans.size(); ++i) {
    const Span& s = report.spans[i];
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": "
        << JsonString(s.name) << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}"
        << (i + 1 < report.spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

int Run(const Args& args) {
  RunConfig config;
  config.seed = args.seed;
  config.nproc = NumProcs();
  config.work_dir = args.work_dir;
  config.tiny = args.tiny;
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  Report report;
  const double steal_before = StealSeconds();
  auto make_phases = [&] {
    Phases v;
    v.emplace_back("closure", MakeClosurePhase(config));
    v.emplace_back("serve", MakeServePhase(config));
    v.emplace_back("restart", MakeRestartPhase(config));
    return v;
  };
  std::vector<double> setups, probes;
  auto set_up = [&](const Phases& phases, Report* into) {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      double total = 0;
      for (const auto& [name, phase] : phases) total += phase->Setup(into);
      setups.push_back(total);
    }
  };
  E2eValues e2e, traced_e2e;
  {
    const Phases phases = make_phases();
    set_up(phases, &report);

    auto measure = [&](double budget, Tracer* tracer) {
      const bool traced = tracer != nullptr;
      if (!traced) {
        // Untimed steps first: allocator, page cache and plan caches warm
        // up, as they are in a long-running process.
        for (const auto& [name, phase] : phases) {
          phase->Begin(nullptr);
          const Clock::time_point warm = Clock::now();
          do {
            phase->Step(kSliceSeconds, nullptr, &report);
          } while (SecondsSince(warm) < kWarmupSeconds);
        }
      }
      std::vector<double> used(phases.size(), 0);
      for (const auto& [name, phase] : phases) phase->Begin(tracer);
      const Clock::time_point start = Clock::now();
      for (;;) {
        const double elapsed = SecondsSince(start);
        size_t next = phases.size();
        for (size_t i = 0; i < phases.size(); ++i) {
          if (!phases[i].second->Enough(traced)) next = i;
        }
        if (elapsed >= budget) {
          if (next == phases.size()) break;
          if (elapsed >= budget + kOvertimeSeconds) {
            report.Mismatch("phase " + phases[next].first +
                            " did not collect its minimum samples");
            break;
          }
        } else {
          // The phase furthest behind its share of the time goes next.
          next = 0;
          for (size_t i = 1; i < phases.size(); ++i) {
            if (used[i] / Share(args, phases[i].first) <
                used[next] / Share(args, phases[next].first)) {
              next = i;
            }
          }
        }
        // The host's speed, sampled as often as the program's.
        probes.push_back(HostProbeSeconds());
        const Clock::time_point step = Clock::now();
        phases[next].second->Step(kSliceSeconds, tracer, &report);
        used[next] += SecondsSince(step);
      }
      E2eValues values;
      for (const auto& [name, phase] : phases) {
        for (const auto& [k, v] : phase->End(tracer, &report)) values[k] = v;
      }
      return values;
    };

    Tracer tracer(true);
    e2e = measure(args.trace ? args.seconds / 2 : args.seconds, nullptr);
    if (args.trace) {
      traced_e2e = measure(args.seconds / 2, &tracer);
      for (const auto& [name, phase] : phases) {
        phase->ReportSetupLayers(&report);
      }
    }
    for (const auto& [name, phase] : phases) phase->Verify(&report);
    tracer.DrainInto(&report.spans);
    // Phases (and their server threads and work files) end here.
  }
  {
    // The same set-ups again on fresh phases, a run's length after the
    // first ones, so a slow spell of the host at the start of a run does
    // not decide setup_s. Only their failures are kept.
    Report late;
    set_up(make_phases(), &late);
    report.mismatches.insert(report.mismatches.end(), late.mismatches.begin(),
                             late.mismatches.end());
  }
  std::filesystem::remove_all(config.work_dir, ec);

  e2e["setup_s"] = Min(setups);
  e2e["peak_rss_mb"] = PeakRssMb();
  const double probe_s = Min(probes);
  const double scale = probe_s > 0 ? kProbeReferenceSeconds / probe_s : 1;
  std::vector<Metric> raw;
  for (const auto& [name, unit] : E2eUnits()) {
    auto it = e2e.find(name);
    if (it == e2e.end()) {
      report.Mismatch("metric " + name + " was not measured");
      continue;
    }
    const double factor = std::pow(scale, ScalePower(unit));
    raw.push_back({name, it->second, unit});
    report.E2e(name, it->second * factor, unit);
    auto traced = traced_e2e.find(name);
    if (args.trace && traced != traced_e2e.end() && unit != "ratio") {
      report.Layer("trace.overhead." + name,
                   (traced->second - it->second) * factor, unit);
    }
  }
  if (args.trace) report.Layer("error_rate", ErrorRate(report), "ratio");

  PrintStamp(args, config, report, StealSeconds() - steal_before, probe_s,
             scale);
  for (const Metric& m : report.end_to_end) {
    std::printf("e2e %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : raw) {
    std::printf("raw %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : report.per_layer) {
    std::printf("layer %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("e2e error_rate %.6g ratio (%llu failed of %llu attempted)\n",
              ErrorRate(report),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  if (args.trace) {
    for (const auto& [name, seconds] : SelfTimes(report.spans)) {
      std::printf("self %s %.6g s\n", name.c_str(), seconds);
    }
    if (!args.trace_out.empty()) WriteTrace(args.trace_out, args, report);
  }
  for (const std::string& m : report.mismatches) {
    std::printf("MISMATCH %s\n", m.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted == 0 ? 1
                                                            : report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(args.trace ? report.per_layer : report.end_to_end).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload closure|serve --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out "
                 "FILE] [--git-sha SHA] [--source-digest HEX] [--tiny]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
