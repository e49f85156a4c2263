// Exp-2 / Fig 7(f): the SNB Interactive mini-suite (C1-C14, S1-S7, U1-U8)
// on the OLTP deployment — GART storage + HiActor engine with compiled
// stored procedures — against the conventional-graph-DB baseline
// (NaiveGraphDB: unoptimized plans, single-threaded, global lock).
// Paper: 8.92x average latency advantage and 2.45x higher throughput
// (33,261 vs 13,532 ops/s) vs TuGraph.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/trace.h"
#include "optimizer/optimizer.h"
#include "query/service.h"
#include "runtime/gaia.h"
#include "snb/snb.h"

namespace {

// ---- Columnar-execution A/B: the same optimized plans, run by the
// tuple-at-a-time reference (Interpreter::RunTupleAtATime) and by batched
// Gaia at 1 worker. Both arms are single-threaded, so the ratio isolates
// the execution strategy. `--json=PATH` emits the BENCH_exp2_snb.json
// schema for the tools/check.sh ratchet; `--min-geomean=X` turns the
// speedup floor into a hard gate.
int RunAb(bool smoke, const std::string& json_path, double min_geomean) {
  using namespace flex;
  bench::PrintHeader(smoke ? "Exp-2 A/B: reference vs batched Gaia (smoke)"
                           : "Exp-2 A/B: reference vs batched Gaia, 1 worker");

  snb::SnbConfig config;
  config.num_persons = smoke ? 120 : 4000;
  snb::SnbStats stats;
  auto data = snb::GenerateSnb(config, &stats);
  auto gart = storage::GartStore::Build(data).value();
  auto snapshot = gart->GetSnapshot();

  query::QueryService service(snapshot.get(), 1);  // Compile only.
  query::Interpreter reference(snapshot.get());
  runtime::GaiaEngine engine(snapshot.get(), 1);

  // The full 41-query SNB suite: interactive complex + short reads plus
  // the BI scan/aggregation queries, so the A/B covers both regimes —
  // point lookups where batching is overhead-bound, and the scan-heavy
  // plans where fused pipelines, pushdown, and columnar GROUP pay.
  std::vector<snb::QuerySpec> reads = snb::InteractiveComplexQueries();
  auto shorts = snb::InteractiveShortQueries();
  reads.insert(reads.end(), shorts.begin(), shorts.end());
  auto bi = snb::BiQueries();
  reads.insert(reads.end(), bi.begin(), bi.end());

  std::vector<ir::Plan> plans;
  for (const auto& q : reads) {
    plans.push_back(
        service.Compile(query::Language::kCypher, q.cypher).value());
  }

  std::printf("%-5s %12s %12s %10s\n", "query", "reference", "batched",
              "speedup");
  std::string json = "{\n  \"bench\": \"exp2_snb_interactive_ab\",\n"
                     "  \"results\": [\n";
  double log_sum = 0.0;
  const int kSamples = smoke ? 3 : 11;
  for (size_t i = 0; i < reads.size(); ++i) {
    auto run_once = [&](bool batched, Rng& rng) {
      std::vector<PropertyValue> params = reads[i].params(rng, stats);
      Result<std::vector<ir::Row>> rows = std::vector<ir::Row>{};
      if (batched) {
        rows = engine.Run(plans[i], std::move(params));
      } else {
        query::ExecOptions opts;
        opts.params = std::move(params);
        rows = reference.RunTupleAtATime(plans[i], opts);
      }
      FLEX_CHECK(rows.ok());
      bench::Sink(rows.value().size());
    };
    // Calibrate an inner-loop count so each timed sample spans >= ~0.5 ms:
    // most interactive queries finish in microseconds, where a single-run
    // sample is all timer noise on a shared host.
    int inner = 1;
    {
      Rng rng(900 + i);
      run_once(false, rng);  // Warm caches.
      Timer cal;
      run_once(false, rng);
      const double single = cal.ElapsedMillis();
      inner = std::max(
          1, static_cast<int>(std::ceil(0.5 / std::max(single, 1e-4))));
    }
    // Median of samples, identical parameter-draw sequences per mode.
    auto time_mode = [&](bool batched, uint64_t seed) {
      Rng rng(seed);
      run_once(batched, rng);  // Warmup.
      std::vector<double> samples;
      for (int s = 0; s < kSamples; ++s) {
        Timer timer;
        for (int r = 0; r < inner; ++r) run_once(batched, rng);
        samples.push_back(timer.ElapsedMillis() / inner);
      }
      std::nth_element(samples.begin(), samples.begin() + kSamples / 2,
                       samples.end());
      return samples[kSamples / 2];
    };
    const double row_ms = time_mode(false, 300 + i);
    const double batched_ms = time_mode(true, 300 + i);
    log_sum += std::log(row_ms / batched_ms);
    // Four decimals: the point reads take a few microseconds.
    std::printf("%-5s %10.4fms %10.4fms %10s\n", reads[i].name.c_str(),
                row_ms, batched_ms, bench::Ratio(row_ms, batched_ms).c_str());
    char line[128];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s_row\", \"ms\": %.4f},\n"
                  "    {\"name\": \"%s_batched\", \"ms\": %.4f}%s\n",
                  reads[i].name.c_str(), row_ms, reads[i].name.c_str(),
                  batched_ms, i + 1 < reads.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";

  const double geomean = std::exp(log_sum / reads.size());
  std::printf("\nbatched/reference geomean speedup: %.2fx at 1 worker\n",
              geomean);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    FLEX_CHECK(f != nullptr);
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("A/B results: %s\n", json_path.c_str());
  }
  if (min_geomean > 0.0 && geomean < min_geomean) {
    std::printf("FAIL: geomean %.2fx below the %.2fx floor\n", geomean,
                min_geomean);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flex;
  bool ab_only = false;
  bool smoke = false;
  std::string json_path;
  double min_geomean = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ab-only") == 0) {
      ab_only = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--min-geomean=", 14) == 0) {
      min_geomean = std::atof(argv[i] + 14);
    }
  }
  if (ab_only) return RunAb(smoke, json_path, min_geomean);

  bench::PrintHeader(
      "Exp-2 / Fig 7(f): SNB Interactive on GART + HiActor vs naive DB");

  snb::SnbConfig config;
  config.num_persons = 800;
  snb::SnbStats stats;
  auto data = snb::GenerateSnb(config, &stats);
  auto gart = storage::GartStore::Build(data).value();
  auto snapshot = gart->GetSnapshot();

  const size_t kShards = 4;
  query::QueryService service(snapshot.get(), kShards);
  query::NaiveGraphDB naive(snapshot.get());

  auto complex_queries = snb::InteractiveComplexQueries();
  auto short_queries = snb::InteractiveShortQueries();
  auto updates = snb::InteractiveUpdates();
  std::vector<snb::QuerySpec> reads = complex_queries;
  reads.insert(reads.end(), short_queries.begin(), short_queries.end());

  // Compile once: stored procedures on HiActor; plain logical plans
  // (no optimizer) for the baseline.
  std::vector<ir::Plan> naive_plans;
  for (const auto& q : reads) {
    FLEX_CHECK(
        service.RegisterProcedure(q.name, query::Language::kCypher, q.cypher)
            .ok());
    naive_plans.push_back(
        query::ParseQuery(query::Language::kCypher, q.cypher,
                          snapshot->schema())
            .value());
  }

  // ---- Per-query average latency.
  std::printf("%-5s %12s %12s %10s\n", "query", "Flex", "naive", "speedup");
  const int kReps = 8;
  double ratio_sum = 0.0;
  for (size_t i = 0; i < reads.size(); ++i) {
    Rng rng_a(100 + i), rng_b(100 + i);
    const double flex_ms = bench::TimeMs(
        [&] {
          auto fut = service.hiactor().SubmitProcedure(
              reads[i].name, reads[i].params(rng_a, stats));
          FLEX_CHECK(fut.ok());
          FLEX_CHECK(fut.value().get().ok());
        },
        kReps);
    const double naive_ms = bench::TimeMs(
        [&] {
          FLEX_CHECK(
              naive.RunPlan(naive_plans[i], reads[i].params(rng_b, stats))
                  .ok());
        },
        kReps);
    ratio_sum += naive_ms / flex_ms;
    std::printf("%-5s %10.3fms %10.3fms %10s\n", reads[i].name.c_str(),
                flex_ms, naive_ms, bench::Ratio(naive_ms, flex_ms).c_str());
  }

  // ---- Per-query traces: one traced run of every read query through the
  // full Run path (compile + HiActor execute), dumped as a JSON array. The
  // root "query" span is the reported wall time; its direct children
  // (compile, execute) must account for it up to scheduling slack.
  {
    std::vector<std::string> dumps;
    Rng rng(200);
    for (const auto& q : reads) {
      trace::Trace trace(q.name);
      query::RunOptions opts;
      opts.engine = query::EngineKind::kHiActor;
      opts.trace = &trace;
      FLEX_CHECK(service
                     .Run(query::Language::kCypher, q.cypher, opts,
                          q.params(rng, stats))
                     .ok());
      const uint64_t wall_us = trace.SpanDurationMicros(1);
      const uint64_t child_us = trace.ChildDurationMicros(1);
      // Children are timed inside the root span, so they can never exceed
      // it; they may undershoot by the retry-loop glue between spans.
      FLEX_CHECK(child_us <= wall_us + 1);
      dumps.push_back(trace.ToJson());
    }
    bench::WriteTraceJsonArray("exp2_snb_interactive.traces.json", dumps);
  }

  // ---- Update latencies (applied to GART, committed in batches).
  Rng urng(7);
  uint64_t serial = 0;
  for (const auto& u : updates) {
    const double ms = bench::TimeMs(
        [&] {
          FLEX_CHECK(u.apply(gart.get(), urng, stats, serial++).ok());
        },
        20);
    std::printf("%-5s %10.4fms   (GART write)\n", u.name.c_str(), ms);
  }
  gart->CommitVersion();

  // ---- Mixed-stream throughput: short reads dominate, as in the audit.
  const int kOps = 3000;
  Timer flex_timer;
  {
    std::vector<std::future<Result<std::vector<ir::Row>>>> futures;
    futures.reserve(kOps);
    Rng rng(55);
    for (int op = 0; op < kOps; ++op) {
      const auto& q = op % 10 < 7
                          ? short_queries[op % short_queries.size()]
                          : complex_queries[op % complex_queries.size()];
      auto fut = service.hiactor().SubmitProcedure(q.name, q.params(rng, stats));
      FLEX_CHECK(fut.ok());
      futures.push_back(std::move(fut).value());
    }
    for (auto& f : futures) FLEX_CHECK(f.get().ok());
  }
  const double flex_qps = kOps / flex_timer.ElapsedSeconds();

  Timer naive_timer;
  {
    Rng rng(55);
    for (int op = 0; op < kOps / 4; ++op) {  // Fewer reps: it's slow.
      const size_t qi = op % 10 < 7
                            ? complex_queries.size() + op % short_queries.size()
                            : op % complex_queries.size();
      FLEX_CHECK(
          naive.RunPlan(naive_plans[qi], reads[qi].params(rng, stats)).ok());
    }
  }
  const double naive_qps = (kOps / 4) / naive_timer.ElapsedSeconds();

  std::printf(
      "\navg latency speedup: %.2fx (paper 8.92x)\n"
      "throughput: Flex %.0f ops/s vs naive %.0f ops/s = %.2fx "
      "(paper 2.45x)\n",
      ratio_sum / reads.size(), flex_qps, naive_qps, flex_qps / naive_qps);
  return 0;
}
