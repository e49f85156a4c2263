#include "query/service.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "lang/cypher.h"
#include "lang/gremlin.h"

namespace flex::query {

Result<ir::Plan> ParseQuery(Language lang, const std::string& text,
                            const GraphSchema& schema) {
  Result<ir::Plan> plan = Status::InvalidArgument("unknown language");
  switch (lang) {
    case Language::kCypher:
      plan = lang::ParseCypher(text, schema);
      break;
    case Language::kGremlin:
      plan = lang::ParseGremlin(text, schema);
      break;
  }
  // The engines and the optimizer walk a plan operator by operator, some
  // of them recursively; the bound also caps how many SELECTs the
  // optimizer can AND into one predicate.
  if (plan.ok() && plan.value().ops.size() > ir::kMaxQueryDepth) {
    return Status::ParseError("query has " +
                              std::to_string(plan.value().ops.size()) +
                              " operators; the limit is " +
                              std::to_string(ir::kMaxQueryDepth));
  }
  return plan;
}

QueryService::QueryService(const grin::GrinGraph* graph, size_t num_workers,
                           optimizer::OptimizerOptions options,
                           ServingOptions serving)
    : graph_(graph),
      catalog_(optimizer::Catalog::Build(*graph)),
      options_(options),
      gaia_(graph, num_workers),
      hiactor_(graph, num_workers),
      plan_cache_(serving.plan_cache_capacity),
      admission_(serving.default_tenant_slots) {}

Result<ir::Plan> QueryService::Compile(Language lang,
                                       const std::string& text) const {
  FLEX_ASSIGN_OR_RETURN(ir::Plan logical,
                        ParseQuery(lang, text, graph_->schema()));
  // The schema enables FusePipelines (pushdown legality is
  // schema-dependent); schema-less callers of Optimize get unfused plans.
  return optimizer::Optimize(logical, &catalog_, options_,
                             &graph_->schema());
}

Result<std::string> QueryService::Explain(Language lang,
                                          const std::string& text) const {
  FLEX_ASSIGN_OR_RETURN(ir::Plan plan, Compile(lang, text));
  return plan.DebugString(&graph_->schema());
}

Result<std::vector<ir::Row>> QueryService::Run(
    Language lang, const std::string& text, EngineKind engine,
    std::vector<PropertyValue> params) {
  RunOptions options;
  options.engine = engine;
  return Run(lang, text, options, std::move(params));
}

namespace {

/// Transient failures worth a retry: a dropped actor task / MVCC conflict
/// (kAborted) or corruption that exhausted in-engine recovery (kDataLoss).
/// Everything else is deterministic and retrying would just repeat it.
bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kAborted ||
         status.code() == StatusCode::kDataLoss;
}

}  // namespace

Result<std::vector<ir::Row>> QueryService::Run(
    Language lang, const std::string& text, const RunOptions& options,
    std::vector<PropertyValue> params) {
  // Admission first: a tenant over quota is rejected before any compile
  // work (fail-fast is the point — the rejected call must not consume the
  // resources the quota protects). Rejections are visible through
  // flex_tenant_rejections_total, not the accepted-query counters.
  TenantAdmission::Slot slot;
  FLEX_RETURN_NOT_OK(admission_.Acquire(options.tenant, &slot));

  FLEX_COUNTER_INC(metrics::kQueriesTotal);
  trace::ScopedSpan root_span(options.trace, "query", "query");
  Timer latency_timer;
  // One deferred exit point so the latency histogram and failure counter
  // observe every outcome, compile errors included.
  auto finish =
      [&](Result<std::vector<ir::Row>> result) -> Result<std::vector<ir::Row>> {
    FLEX_HISTOGRAM_OBSERVE_US(
        metrics::kQueryLatencyUs,
        static_cast<uint64_t>(latency_timer.ElapsedMicros()));
    if (!result.ok()) FLEX_COUNTER_INC(metrics::kQueryFailuresTotal);
    return result;
  };

  // Parameterized hot path: repeated templates resolve to one immutable
  // cached plan (shared by every concurrent client) and skip
  // parse/optimize entirely. Concurrent misses on the same template both
  // compile; Insert keeps one copy.
  std::shared_ptr<const ir::Plan> shared_plan;
  {
    trace::ScopedSpan compile_span(options.trace, "compile", "compile",
                                   root_span.id());
    // Parameters ($i placeholders) are bound at execution, never folded
    // into the plan, so calls sharing text (and flags + backend) share
    // one cached plan safely.
    const std::string cache_key =
        PlanCacheKey(lang == Language::kCypher ? 'c' : 'g', text,
                     options_.FlagBits(), graph_->capabilities());
    shared_plan = plan_cache_.Lookup(cache_key);
    if (shared_plan == nullptr) {
      Result<ir::Plan> compiled = Compile(lang, text);
      if (!compiled.ok()) return finish(compiled.status());
      shared_plan = std::make_shared<const ir::Plan>(
          std::move(compiled).value());
      plan_cache_.Insert(cache_key, shared_plan);
    }
  }

  trace::ScopedSpan execute_span(options.trace, "execute", "execute",
                                 root_span.id());
  auto attempt =
      [&](std::vector<PropertyValue> p) -> Result<std::vector<ir::Row>> {
    if (options.engine == EngineKind::kGaia) {
      return gaia_.Run(*shared_plan, std::move(p), options.deadline,
                       options.cancel, options.trace, execute_span.id());
    }
    runtime::QueryTask task;
    task.plan = shared_plan;
    task.params = std::move(p);
    task.deadline = options.deadline;
    task.cancel = options.cancel;
    task.trace = options.trace;
    task.trace_parent = execute_span.id();
    return hiactor_.Execute(std::move(task));
  };

  std::optional<Rng> retry_rng;  // Built on first retry only.
  for (int tries = 0;; ++tries) {
    Result<std::vector<ir::Row>> result = attempt(params);
    if (result.ok() || !IsRetryable(result.status()) ||
        tries >= options.max_retries) {
      return finish(std::move(result));
    }
    // Backing off still honours the deadline: if it expires while we
    // sleep, the next attempt is rejected at admission, not executed.
    FLEX_COUNTER_INC(metrics::kQueryRetriesTotal);
    if (!retry_rng.has_value()) {
      uint64_t seed = options.retry_jitter_seed;
      if (seed == 0) {
        // Per-call seeds from a process-wide counter: clients that failed
        // together draw different jitter and spread their retries.
        static std::atomic<uint64_t> counter{1};
        seed = counter.fetch_add(0x9e3779b97f4a7c15ULL,
                                 std::memory_order_relaxed);
      }
      retry_rng.emplace(seed);
    }
    std::this_thread::sleep_for(
        RetryBackoffFor(options, tries, &retry_rng.value()));
  }
}

std::chrono::milliseconds RetryBackoffFor(const RunOptions& options,
                                          int attempt, Rng* rng) {
  const int64_t cap =
      std::max<int64_t>(1, options.retry_backoff_max.count());
  int64_t base = std::max<int64_t>(1, options.retry_backoff.count());
  for (int i = 0; i < attempt && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  // Jitter factor uniform in [0.75, 1.25); the result stays in
  // [1, retry_backoff_max] regardless.
  const double factor = 0.75 + 0.5 * rng->NextDouble();
  const auto jittered =
      static_cast<int64_t>(static_cast<double>(base) * factor);
  return std::chrono::milliseconds(
      std::clamp<int64_t>(jittered, 1, cap));
}

Status QueryService::RegisterProcedure(const std::string& name, Language lang,
                                       const std::string& text) {
  FLEX_ASSIGN_OR_RETURN(ir::Plan plan, Compile(lang, text));
  hiactor_.RegisterProcedure(name, std::move(plan));
  // Registration is the catalog-change surface: drop every cached plan so
  // no future lookup can resolve against pre-registration state. Queries
  // already holding a looked-up plan finish on it (snapshot semantics).
  plan_cache_.InvalidateAll();
  return Status::OK();
}

Result<std::vector<ir::Row>> NaiveGraphDB::Run(
    Language lang, const std::string& text,
    std::vector<PropertyValue> params) {
  FLEX_ASSIGN_OR_RETURN(ir::Plan plan,
                        ParseQuery(lang, text, graph_->schema()));
  return RunPlan(plan, std::move(params));
}

Result<std::vector<ir::Row>> NaiveGraphDB::RunPlan(
    const ir::Plan& plan, std::vector<PropertyValue> params) {
  FLEX_RETURN_NOT_OK(ir::CheckParams(plan, params.size()));
  MutexLock lock(&mu_);  // One query at a time.
  Interpreter interpreter(graph_);
  ExecOptions opts;
  opts.params = std::move(params);
  return interpreter.RunTupleAtATime(plan, opts);
}

}  // namespace flex::query
