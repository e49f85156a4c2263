#ifndef FLEX_BENCH_FLEXBENCH_HARNESS_H_
#define FLEX_BENCH_FLEXBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"

namespace flex::flexbench {

/// Settings of one benchmark process. Each process runs exactly one workload,
/// so its peak RSS belongs to that workload alone.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  std::string out_dir = ".";
  double seconds = 10.0;  ///< Length of the untraced measured window.
  bool trace = false;     ///< Run the traced pass after the window.
  bool smoke = false;     ///< Tiny inputs and short windows, oracles on.

  /// Set-up runs this many times and the median is reported (MedianSetup).
  int setup_reps() const { return smoke ? 1 : 5; }
  double warmup_seconds() const { return smoke ? 0.2 : 1.0; }
};

/// One reported number. `samples` is how many observations it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Everything one workload process reports: the end-to-end metrics from the
/// untraced window, the per-layer metrics, and the failure accounting.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                uint64_t samples);
  void PerLayer(const std::string& name, double value, const std::string& unit,
                uint64_t samples);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation or oracle mismatch; keeps the first few
  /// messages for the result file.
  void Fail(const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The result file: {"workload", "seed", ..., "correct", "attempted",
  /// "failed", "failures", "end_to_end", "per_layer"}.
  std::string ToJson(const Config& config) const;

 private:
  void Put(std::map<std::string, Metric>* metrics, const std::string& name,
           double value, const std::string& unit, uint64_t samples);

  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> per_layer_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ------------------------------------------------------------- statistics

/// q-th percentile (q in [0, 100]) by linear interpolation between closest
/// ranks; 0 for an empty set.
double Percentile(std::vector<double> samples, double q);

/// Latency samples in milliseconds, grouped by operation type (query
/// template, kernel, commit).
class LatencyBook {
 public:
  void Add(const std::string& type, double ms) { by_type_[type].push_back(ms); }
  void Merge(const LatencyBook& other);

  uint64_t count() const;
  /// Geometric mean over operation types of each type's q-th percentile:
  /// every type weighs the same whatever its frequency or scale, so a
  /// regression in a 20 us query moves it as much as one in a 20 ms query.
  double GeomeanPercentile(double q) const;
  const std::map<std::string, std::vector<double>>& by_type() const {
    return by_type_;
  }

 private:
  std::map<std::string, std::vector<double>> by_type_;
};

/// Reports latency_p50_ms and latency_tail_ms (geomean over types of the
/// `tail_q` percentile) from `book`, and throughput_per_s as `completed`
/// operations over `window_s`.
void ReportLatency(const LatencyBook& book, double tail_q, uint64_t completed,
                   double window_s, Report* report);

// ---------------------------------------------------------------- loops

/// Closed loop: `clients` threads each call `step(client)` back to back (a
/// client's next request waits for its previous reply) until `seconds`
/// have passed. Returns the window's wall time in seconds.
double RunClosedLoop(size_t clients, double seconds,
                     const std::function<void(size_t client)>& step);

/// Runs `step(client, i)` for i in [0, per_client) on `clients` threads.
void RunFixed(size_t clients, size_t per_client,
              const std::function<void(size_t client, size_t i)>& step);

// ---------------------------------------------------------------- set-up

/// Wall time of the phases of one set-up.
struct SetupPhases {
  double generate_s = 0.0;  ///< Data generation (SNB or RMAT).
  double load_s = 0.0;      ///< Store build, partitioning, service start.
  double compile_s = 0.0;   ///< Parse + optimize of every query template.
  double parse_s = 0.0;     ///< The parse part of compile_s.
  double total() const { return generate_s + load_s + compile_s; }
};

/// Reports setup_s as the median total of `runs`, the phase shares of the
/// median run as setup.*_pct, and the parse share of compile as
/// compile.parse_pct.
void ReportSetup(std::vector<SetupPhases> runs, Report* report);

/// Runs `build` in a forked child process and returns the phase times it
/// measured; nullopt if the child failed. The child exits without tearing
/// its state down.
std::optional<SetupPhases> SetupInChild(
    const std::function<void(SetupPhases*)>& build);

/// Times config.setup_reps() set-ups, reports them through ReportSetup and
/// returns the state of the last one. Every set-up but the last runs in its
/// own child process: set-up speed depends on where a process's memory
/// lands, and repeated builds in one process reuse the same pages and run
/// uniformly fast or slow (up to 40% apart), so only separate processes
/// give independent samples. Each sample is therefore a cold start, as a
/// user's is. Call before the process starts any thread (fork).
template <typename T>
std::unique_ptr<T> MedianSetup(
    const Config& config, Report* report,
    const std::function<std::unique_ptr<T>(SetupPhases*)>& build) {
  std::vector<SetupPhases> runs;
  for (int i = 1; i < config.setup_reps(); ++i) {
    std::optional<SetupPhases> phases =
        SetupInChild([&](SetupPhases* p) { build(p); });
    if (!phases.has_value()) {
      report->Fail("set-up failed in a child process");
      continue;
    }
    runs.push_back(*phases);
  }
  SetupPhases phases;
  std::unique_ptr<T> result = build(&phases);
  runs.push_back(phases);
  ReportSetup(std::move(runs), report);
  return result;
}

// -------------------------------------------------------------- counters

/// Every standard counter (plus the rows-per-batch histogram) at one
/// instant; the difference of two snapshots is a window's activity.
struct CounterSnapshot {
  std::map<std::string, uint64_t> counters;
  uint64_t rows_per_batch_count = 0;
  uint64_t rows_per_batch_sum = 0;

  static CounterSnapshot Take();
  /// this - before, per counter.
  CounterSnapshot Since(const CounterSnapshot& before) const;
  uint64_t Get(const char* name) const;
};

/// Per-layer metrics derived from a window's counter deltas over `ops`
/// operations. Metrics of layers the workload bypasses read 0.
void ReportCounters(const CounterSnapshot& delta, uint64_t ops,
                    Report* report);

// ---------------------------------------------------------------- tracing

/// One traced operation: its trace and the benchmark's root span in it.
struct TracedOp {
  std::unique_ptr<trace::Trace> trace;
  uint64_t root = trace::kNoParent;
};

/// Opens a trace for one operation of `type` with the benchmark's root
/// span.
TracedOp BeginTracedOp(const std::string& type, const char* root_name);

/// Attributes the self time of every span of `ops` to the layer that
/// recorded it and reports each layer's share of all self time as
/// <layer>.pct (bypassed layers read 0), plus trace.op_us, gaia.parallelism
/// and trace.overhead_ratio: the traced over the untraced latency_p50 (same
/// definition, same operation types). Writes the spans as one JSON array to
/// <out>/<workload>.trace.json. An open span or a self time outside
/// [0, duration] counts as a failure.
void ReportTracedPass(const Config& config, const std::vector<TracedOp>& ops,
                      const LatencyBook& traced, const LatencyBook& untraced,
                      Report* report);

/// High-water resident set size of this process, in MiB.
double PeakRssMb();

/// Derives an independent stream seed from the workload seed, so adding a
/// stream never shifts another stream's draws.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

}  // namespace flex::flexbench

#endif  // FLEX_BENCH_FLEXBENCH_HARNESS_H_
