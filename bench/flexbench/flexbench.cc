// flexbench: one workload per process, measured end to end.
//
//   flexbench --workload=NAME [--seed=N] [--out=DIR] [--seconds=S]
//             [--trace=0|1] [--smoke]
//
// NAME is interactive, bi, analytics or htap. The process sets up the
// workload's inputs from the seed, runs its untraced measured window, the
// traced pass when --trace=1, and its output oracles, then writes
// <out>/<workload>.json (metrics with units and sample counts, failures)
// and, when traced, <out>/<workload>.trace.json. Exits 1 when any
// operation failed or any oracle disagreed. bench/flexbench/run.py is the
// one command that builds this binary and runs it; see README.md.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=interactive|bi|analytics|htap "
               "[--seed=N] [--out=DIR] [--seconds=S] [--trace=0|1] "
               "[--smoke]\n",
               argv0);
  return 2;
}

/// Parses "--name=value" into `value`; false if `arg` is another flag.
bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flex::flexbench;
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    char* end = nullptr;
    if (Flag(argv[i], "--workload", &value)) {
      config.workload = value;
    } else if (Flag(argv[i], "--seed", &value)) {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage(argv[0]);
    } else if (Flag(argv[i], "--out", &value)) {
      config.out_dir = value;
    } else if (Flag(argv[i], "--seconds", &value)) {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0)) {
        return Usage(argv[0]);
      }
    } else if (Flag(argv[i], "--trace", &value)) {
      if (value != "0" && value != "1") return Usage(argv[0]);
      config.trace = value == "1";
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.smoke) config.seconds = std::min(config.seconds, 1.0);

  void (*run)(const Config&, Report*) = nullptr;
  if (config.workload == "interactive") run = RunInteractive;
  if (config.workload == "bi") run = RunBi;
  if (config.workload == "analytics") run = RunAnalytics;
  if (config.workload == "htap") run = RunHtap;
  if (run == nullptr) return Usage(argv[0]);

  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "flexbench: cannot create %s: %s\n",
                 config.out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  Report report;
  // Per-layer metrics only some workloads produce; the others report 0.
  const struct {
    const char* name;
    const char* unit;
  } kWorkloadSpecific[] = {{"gen.late_p99_ratio", "ratio"},
                           {"recover.records_per_s", "1/s"},
                           {"wal.bytes_per_record", "bytes"},
                           {"pie.f1_over_f4", "ratio"}};
  for (const auto& m : kWorkloadSpecific) report.PerLayer(m.name, 0.0, m.unit, 0);

  run(config, &report);
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);

  const std::string path = config.out_dir + "/" + config.workload + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(report.ToJson(config).c_str(), f) < 0 ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "flexbench: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("%s: %llu attempted, %llu failed -> %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), path.c_str());
  return report.failed() == 0 ? 0 : 1;
}
