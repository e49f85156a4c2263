#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <latch>
#include <sstream>
#include <thread>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "ir/plan.h"

namespace flex::flexbench {

namespace {

void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out << ' ';
    } else {
      *out << c;
    }
  }
  *out << '"';
}

/// Full-precision rendering: the comparison tooling needs every digit.
std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMetrics(std::ostringstream* out,
                   const std::map<std::string, Metric>& metrics) {
  *out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) *out << ", ";
    first = false;
    AppendJsonString(out, name);
    *out << ": {\"value\": " << FormatNumber(m.value) << ", \"unit\": ";
    AppendJsonString(out, m.unit);
    *out << ", \"samples\": " << m.samples << "}";
  }
  *out << "}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Every layer a traced span can be attributed to, so each workload reports
// the same set (a bypassed layer reads 0).
std::vector<std::string> AllLayers() {
  std::vector<std::string> layers = {
      "harness",      "query.front",     "query.dispatch",
      "compile",      "hiactor.queue",   "hiactor.execute",
      "gaia.self",    "gaia.shard",      "gaia.exchange",
      "storage.read", "wal.append",      "commit.apply",
      "pie.compute_and_wait",            "pie.flush",
      "other"};
  for (int k = static_cast<int>(ir::OpKind::kScan);
       k <= static_cast<int>(ir::OpKind::kFusedExpand); ++k) {
    layers.push_back(std::string("op.") +
                     ir::OpKindName(static_cast<ir::OpKind>(k)));
  }
  return layers;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The layer a span's self time belongs to (span table: common/trace_spans.h;
/// the benchmark's own spans are named "bench.*").
std::string LayerOf(const trace::Span& span) {
  const std::string& n = span.name;
  if (n == "bench.commit") return "commit.apply";
  if (StartsWith(n, "bench.")) return "harness";
  if (n == "query") return "query.front";
  if (n == "execute") return "query.dispatch";
  if (n == "compile") return "compile";
  if (n == "hiactor.queue") return "hiactor.queue";
  if (n == "hiactor.execute") return "hiactor.execute";
  if (n == "gaia") return "gaia.self";
  if (StartsWith(n, "gaia.shard[")) return "gaia.shard";
  if (n == "gaia.exchange") return "gaia.exchange";
  if (n == "storage.read") return "storage.read";
  if (n == "wal.append") return "wal.append";
  if (StartsWith(n, "superstep[") || StartsWith(n, "recover[")) {
    return "pie.compute_and_wait";
  }
  if (StartsWith(n, "flush[")) return "pie.flush";
  if (span.category == "operator") {
    // "op.fused_scan" / "op.fused_expand" mark the fused pipeline inside a
    // FUSED_SCAN / FUSED_EXPAND operator span; both count for that kind.
    if (!StartsWith(n, "op.")) return "op." + n;
    std::string kind = n.substr(3);
    for (char& c : kind) c = static_cast<char>(std::toupper(c));
    return "op." + kind;
  }
  return "other";
}

bool AnyOpen(const std::vector<trace::Span>& spans) {
  for (const trace::Span& s : spans) {
    if (s.end_us == 0) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------- Report

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, uint64_t samples) {
  Put(&end_to_end_, name, value, unit, samples);
}

void Report::PerLayer(const std::string& name, double value,
                      const std::string& unit, uint64_t samples) {
  Put(&per_layer_, name, value, unit, samples);
}

void Report::Put(std::map<std::string, Metric>* metrics,
                 const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  (*metrics)[name] = {value, unit, samples};
}

void Report::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
}

std::string Report::ToJson(const Config& config) const {
  std::ostringstream out;
  out << "{\"workload\": ";
  AppendJsonString(&out, config.workload);
  out << ", \"seed\": " << config.seed
      << ", \"seconds\": " << FormatNumber(config.seconds)
      << ", \"traced\": " << (config.trace ? "true" : "false")
      << ", \"smoke\": " << (config.smoke ? "true" : "false")
      << ", \"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out << ", ";
    AppendJsonString(&out, failures_[i]);
  }
  out << "], \"end_to_end\": ";
  AppendMetrics(&out, end_to_end_);
  out << ", \"per_layer\": ";
  AppendMetrics(&out, per_layer_);
  out << "}\n";
  return out.str();
}

// ------------------------------------------------------------ statistics

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void LatencyBook::Merge(const LatencyBook& other) {
  for (const auto& [type, samples] : other.by_type_) {
    auto& mine = by_type_[type];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
}

uint64_t LatencyBook::count() const {
  uint64_t n = 0;
  for (const auto& [type, samples] : by_type_) n += samples.size();
  return n;
}

double LatencyBook::GeomeanPercentile(double q) const {
  double log_sum = 0.0;
  size_t types = 0;
  for (const auto& [type, samples] : by_type_) {
    if (samples.empty()) continue;
    log_sum += std::log(std::max(Percentile(samples, q), 1e-9));
    ++types;
  }
  return types > 0 ? std::exp(log_sum / static_cast<double>(types)) : 0.0;
}

void ReportLatency(const LatencyBook& book, double tail_q, uint64_t completed,
                   double window_s, Report* report) {
  const uint64_t n = book.count();
  report->EndToEnd("throughput_per_s",
                   Ratio(static_cast<double>(completed), window_s), "1/s",
                   completed);
  report->EndToEnd("latency_p50_ms", book.GeomeanPercentile(50), "ms", n);
  report->EndToEnd("latency_tail_ms", book.GeomeanPercentile(tail_q), "ms", n);
}

// ----------------------------------------------------------------- loops

double RunClosedLoop(size_t clients, double seconds,
                     const std::function<void(size_t client)>& step) {
  std::atomic<bool> stop{false};
  std::latch ready(static_cast<std::ptrdiff_t>(clients) + 1);
  Timer wall;
  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ready.arrive_and_wait();
        while (!stop.load(std::memory_order_acquire)) step(c);
      });
    }
    ready.arrive_and_wait();
    wall.Restart();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_release);
  }  // jthreads join here.
  return wall.ElapsedSeconds();
}

void RunFixed(size_t clients, size_t per_client,
              const std::function<void(size_t client, size_t i)>& step) {
  std::vector<std::jthread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < per_client; ++i) step(c, i);
    });
  }
}

// ---------------------------------------------------------------- set-up

void ReportSetup(std::vector<SetupPhases> runs, Report* report) {
  if (runs.empty()) return;
  std::sort(runs.begin(), runs.end(),
            [](const SetupPhases& a, const SetupPhases& b) {
              return a.total() < b.total();
            });
  const SetupPhases& median = runs[runs.size() / 2];
  const double total = median.total();
  report->EndToEnd("setup_s", total, "s", runs.size());
  report->PerLayer("setup.generate_pct", 100.0 * Ratio(median.generate_s, total),
                   "%", 1);
  report->PerLayer("setup.load_pct", 100.0 * Ratio(median.load_s, total), "%",
                   1);
  report->PerLayer("setup.compile_pct", 100.0 * Ratio(median.compile_s, total),
                   "%", 1);
  report->PerLayer("compile.parse_pct",
                   100.0 * Ratio(median.parse_s, median.compile_s), "%", 1);
}

std::optional<SetupPhases> SetupInChild(
    const std::function<void(SetupPhases*)>& build) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    SetupPhases phases;
    build(&phases);
    const bool sent =
        write(fds[1], &phases, sizeof(phases)) == sizeof(phases);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  SetupPhases phases;
  size_t got = 0;
  while (got < sizeof(phases)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&phases) + got,
                           sizeof(phases) - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(phases) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return phases;
}

// -------------------------------------------------------------- counters

CounterSnapshot CounterSnapshot::Take() {
  auto& registry = metrics::MetricsRegistry::Instance();
  CounterSnapshot snap;
  for (const metrics::MetricSpec& spec : metrics::AllStackMetrics()) {
    if (std::string(spec.kind) == "counter") {
      snap.counters[spec.name] = registry.GetCounter(spec.name)->Value();
    }
  }
  const metrics::Histogram* rows =
      registry.GetHistogram(metrics::kQueryRowsPerBatch);
  snap.rows_per_batch_count = rows->TotalCount();
  snap.rows_per_batch_sum = rows->SumMicros();
  return snap;
}

CounterSnapshot CounterSnapshot::Since(const CounterSnapshot& before) const {
  CounterSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = before.counters.find(name);
    delta.counters[name] =
        value - (it != before.counters.end() ? it->second : 0);
  }
  delta.rows_per_batch_count =
      rows_per_batch_count - before.rows_per_batch_count;
  delta.rows_per_batch_sum = rows_per_batch_sum - before.rows_per_batch_sum;
  return delta;
}

uint64_t CounterSnapshot::Get(const char* name) const {
  auto it = counters.find(name);
  return it != counters.end() ? it->second : 0;
}

void ReportCounters(const CounterSnapshot& d, uint64_t ops, Report* report) {
  namespace m = metrics;
  const double n = static_cast<double>(ops);
  auto per_op = [&](const char* counter) {
    return Ratio(static_cast<double>(d.Get(counter)), n);
  };
  const double hits = static_cast<double>(d.Get(m::kPlanCacheHitsTotal));
  const double misses = static_cast<double>(d.Get(m::kPlanCacheMissesTotal));
  const double supersteps = static_cast<double>(d.Get(m::kPieSuperstepsTotal));

  report->PerLayer("plan_cache.hit_ratio", Ratio(hits, hits + misses),
                   "ratio", d.Get(m::kPlanCacheHitsTotal) +
                                d.Get(m::kPlanCacheMissesTotal));
  report->PerLayer("admission.rejections",
                   static_cast<double>(d.Get(m::kTenantRejectionsTotal)),
                   "count", ops);
  report->PerLayer(
      "hiactor.steal_ratio",
      Ratio(static_cast<double>(d.Get(m::kHiactorTasksStolenTotal)),
            static_cast<double>(d.Get(m::kHiactorTasksCompletedTotal))),
      "ratio", d.Get(m::kHiactorTasksCompletedTotal));
  report->PerLayer("query.rows_per_batch",
                   Ratio(static_cast<double>(d.rows_per_batch_sum),
                         static_cast<double>(d.rows_per_batch_count)),
                   "rows", d.rows_per_batch_count);
  report->PerLayer("fused.rows_pruned_per_query",
                   per_op(m::kFusedRowsPrunedTotal), "count", ops);
  report->PerLayer("storage.scans_per_query", per_op(m::kStorageScansTotal),
                   "count", ops);
  report->PerLayer("storage.adj_visits_per_query",
                   per_op(m::kStorageAdjVisitsTotal), "count", ops);
  report->PerLayer("storage.index_lookups_per_query",
                   per_op(m::kStorageIndexLookupsTotal), "count", ops);
  report->PerLayer("storage.snapshots_pinned_per_query",
                   per_op(m::kStorageSnapshotsPinnedTotal), "count", ops);
  report->PerLayer(
      "wal.records_per_sync",
      Ratio(static_cast<double>(d.Get(m::kWalRecordsAppendedTotal)),
            static_cast<double>(d.Get(m::kWalSyncsTotal))),
      "count", d.Get(m::kWalSyncsTotal));
  report->PerLayer("pie.supersteps_per_run", Ratio(supersteps, n), "count",
                   ops);
  report->PerLayer(
      "msg.sent_per_superstep",
      Ratio(static_cast<double>(d.Get(m::kMsgsSentTotal)), supersteps),
      "count", d.Get(m::kPieSuperstepsTotal));
  report->PerLayer(
      "msg.bytes_per_superstep",
      Ratio(static_cast<double>(d.Get(m::kMsgBytesFlushedTotal)), supersteps),
      "bytes", d.Get(m::kPieSuperstepsTotal));
}

// ---------------------------------------------------------------- tracing

namespace {

/// Accumulates span self times by layer over many traced operations. Self
/// time is a span's duration minus the union of its children's intervals
/// clipped to the span: Gaia shard spans overlap, so subtracting the sum of
/// the children would undercount the parent.
class LayerProfile {
 public:
  /// Adds one operation's trace. `root` is the benchmark's own span around
  /// the operation; every other parentless span (the stack opens some spans
  /// without a parent) is attributed under it. Returns false if a span
  /// stays open or a self time falls outside [0, duration].
  bool Add(const trace::Trace& trace, uint64_t root) {
    std::vector<trace::Span> spans = trace.spans();
    // HiActor closes its execute span after resolving the caller's future,
    // so a reply can arrive a moment before the trace is complete.
    for (int i = 0; i < 2000 && AnyOpen(spans); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      spans = trace.spans();
    }
    if (AnyOpen(spans) || root == trace::kNoParent || root > spans.size()) {
      return false;
    }
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      uint64_t parent = spans[i].parent;
      if (parent == trace::kNoParent && spans[i].id != root) parent = root;
      if (parent != trace::kNoParent && parent <= spans.size()) {
        children[parent - 1].push_back(i);
      }
    }
    bool ok = true;
    std::vector<std::pair<uint64_t, uint64_t>> intervals;
    for (size_t i = 0; i < spans.size(); ++i) {
      const trace::Span& span = spans[i];
      intervals.clear();
      for (size_t c : children[i]) {
        const uint64_t lo = std::max(spans[c].start_us, span.start_us);
        const uint64_t hi = std::min(spans[c].end_us, span.end_us);
        if (lo < hi) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      uint64_t covered = 0;
      uint64_t reach = span.start_us;
      for (const auto& [lo, hi] : intervals) {
        const uint64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      const uint64_t duration = span.duration_us();
      if (covered > duration) {
        ok = false;
        continue;
      }
      self_us_[LayerOf(span)] += static_cast<double>(duration - covered);
      if (span.name == "gaia") gaia_us_ += static_cast<double>(duration);
      if (StartsWith(span.name, "gaia.shard[")) {
        shard_us_ += static_cast<double>(duration);
      }
    }
    root_us_ += static_cast<double>(spans[root - 1].duration_us());
    ++ops_;
    return ok;
  }

  void ReportTo(Report* report) const {
    double total = 0.0;
    for (const auto& [layer, us] : self_us_) total += us;
    for (const std::string& layer : AllLayers()) {
      auto it = self_us_.find(layer);
      const double us = it != self_us_.end() ? it->second : 0.0;
      report->PerLayer(layer + ".pct", 100.0 * Ratio(us, total), "%", ops_);
    }
    const double ops = static_cast<double>(ops_);
    report->PerLayer("trace.op_us", Ratio(root_us_, ops), "us", ops_);
    // Busy shard time per unit of Gaia wall time: 4 means the 4 workers
    // were all busy for the whole query, 1 means no parallel speedup.
    report->PerLayer("gaia.parallelism", Ratio(shard_us_, gaia_us_), "ratio",
                     ops_);
  }

 private:
  std::map<std::string, double> self_us_;
  double gaia_us_ = 0.0;   ///< Wall time of "gaia" spans.
  double shard_us_ = 0.0;  ///< Wall time of "gaia.shard[i]" spans.
  double root_us_ = 0.0;
  uint64_t ops_ = 0;
};

}  // namespace

TracedOp BeginTracedOp(const std::string& type, const char* root_name) {
  TracedOp op;
  op.trace = std::make_unique<trace::Trace>(type);
  op.root = op.trace->BeginSpan(root_name, "bench");
  return op;
}

void ReportTracedPass(const Config& config, const std::vector<TracedOp>& ops,
                      const LatencyBook& traced, const LatencyBook& untraced,
                      Report* report) {
  const std::string dump_path =
      config.out_dir + "/" + config.workload + ".trace.json";
  LayerProfile profile;
  std::FILE* f = std::fopen(dump_path.c_str(), "w");
  if (f == nullptr) report->Fail("cannot write " + dump_path);
  if (f != nullptr) std::fputs("[\n", f);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!profile.Add(*ops[i].trace, ops[i].root)) {
      report->Fail("trace of " + ops[i].trace->query_id() +
                   ": open span or self time outside [0, duration]");
    }
    if (f != nullptr) {
      std::fputs(ops[i].trace->ToJson().c_str(), f);
      std::fputs(i + 1 < ops.size() ? ",\n" : "\n", f);
    }
  }
  if (f != nullptr) {
    std::fputs("]\n", f);
    if (std::fclose(f) != 0) report->Fail("cannot write " + dump_path);
  }
  profile.ReportTo(report);
  report->PerLayer("trace.overhead_ratio",
                   Ratio(traced.GeomeanPercentile(50),
                         untraced.GeomeanPercentile(50)),
                   "ratio", traced.count());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace flex::flexbench
