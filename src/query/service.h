#ifndef FLEX_QUERY_SERVICE_H_
#define FLEX_QUERY_SERVICE_H_

#include <chrono>
#include <memory>
#include <string>

#include "common/deadline.h"
#include "common/random.h"
#include "common/trace.h"
#include "optimizer/optimizer.h"
#include "query/admission.h"
#include "query/plan_cache.h"
#include "runtime/gaia.h"
#include "runtime/hiactor.h"

namespace flex::query {

/// Which language a query text is written in.
enum class Language { kCypher, kGremlin };

/// Which engine executes it — the OLAP/OLTP split of §5.
enum class EngineKind { kGaia, kHiActor };

/// Per-query execution policy for QueryService::Run.
struct RunOptions {
  EngineKind engine = EngineKind::kGaia;
  /// Propagated through the engine into every operator boundary (and, for
  /// analytics, superstep boundary). Infinite by default.
  Deadline deadline;
  /// Optional; must outlive the call. Cancellation wins over deadline.
  const CancellationToken* cancel = nullptr;
  /// Transient failures — kAborted (dropped task, MVCC conflict) and
  /// kDataLoss (corruption that survived in-engine recovery) — are retried
  /// up to this many additional attempts with exponential backoff.
  /// Deterministic errors (parse, plan, invalid argument) never retry.
  int max_retries = 0;
  /// Sleep before the first retry; doubles per attempt (saturating at
  /// retry_backoff_max), then jitters +-25% so concurrent clients that
  /// failed together don't retry in lockstep (synchronized retry storms).
  std::chrono::milliseconds retry_backoff{1};
  /// Upper bound on the pre-jitter backoff; the jittered sleep never
  /// exceeds it either.
  std::chrono::milliseconds retry_backoff_max{1000};
  /// Seed for the jitter Rng. 0 (the default) derives a per-call seed from
  /// a process-wide counter, desynchronizing concurrent clients; tests pin
  /// a nonzero seed for reproducible sleeps.
  uint64_t retry_jitter_seed = 0;
  /// Optional per-query trace. Run opens a root "query" span with
  /// "compile" and "execute" children; the engines and interpreter nest
  /// their own spans below those. Must outlive the call.
  trace::Trace* trace = nullptr;
  /// Tenant id for admission control. Every Run draws one in-flight slot
  /// from this tenant's quota (TenantAdmission); the empty id is itself a
  /// tenant, so single-tenant callers need no configuration. Rejected
  /// acquisitions fail fast with kResourceExhausted before compiling.
  std::string tenant;
};

/// Serving-front configuration for QueryService (defaults preserve the
/// single-client behaviour: cache on, no quotas).
struct ServingOptions {
  /// Plan-cache entry capacity (0 disables caching).
  size_t plan_cache_capacity = 128;
  /// Quota for tenants never passed to SetTenantQuota.
  /// TenantAdmission::kUnlimited means no admission limit.
  int64_t default_tenant_slots = TenantAdmission::kUnlimited;
};

/// The interactive stack facade (Figure 5): parse (Gremlin or Cypher) →
/// GraphIR → RBO + CBO → execute on Gaia (OLAP) or HiActor (OLTP).
///
/// Run() is safe to call from many client threads concurrently: both
/// engines share persistent worker pools sized at construction, the plan
/// cache deduplicates compiles of repeated query templates, and
/// TenantAdmission caps each tenant's in-flight queries (DESIGN.md
/// §Concurrent serving).
class QueryService {
 public:
  /// `graph` must outlive the service. `num_workers` sizes both engines.
  QueryService(const grin::GrinGraph* graph, size_t num_workers,
               optimizer::OptimizerOptions options = {},
               ServingOptions serving = {});

  /// Parses and optimizes without running (plan inspection / tests).
  Result<ir::Plan> Compile(Language lang, const std::string& text) const;

  /// EXPLAIN: compiles `text` and renders the optimized physical plan —
  /// operator tree, fused pipelines with their pushed/residual conjunct
  /// split, and output columns — without executing it.
  Result<std::string> Explain(Language lang, const std::string& text) const;

  /// End-to-end execution.
  Result<std::vector<ir::Row>> Run(Language lang, const std::string& text,
                                   EngineKind engine = EngineKind::kGaia,
                                   std::vector<PropertyValue> params = {});

  /// End-to-end execution with a full policy: deadline, cancellation, and
  /// bounded retry of transient failures.
  Result<std::vector<ir::Row>> Run(Language lang, const std::string& text,
                                   const RunOptions& options,
                                   std::vector<PropertyValue> params = {});

  /// Compiles and registers a stored procedure on the HiActor engine.
  Status RegisterProcedure(const std::string& name, Language lang,
                           const std::string& text);

  /// Sets `tenant`'s concurrency-slot quota (effective for future Runs).
  void SetTenantQuota(const std::string& tenant, int64_t slots) {
    admission_.SetQuota(tenant, slots);
  }

  /// Drops every cached plan. Called internally on RegisterProcedure;
  /// exposed for catalog-change call sites and tests.
  void InvalidatePlanCache() { plan_cache_.InvalidateAll(); }

  runtime::HiActorEngine& hiactor() { return hiactor_; }
  const runtime::GaiaEngine& gaia() const { return gaia_; }
  const optimizer::Catalog& catalog() const { return catalog_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  const TenantAdmission& admission() const { return admission_; }

 private:
  const grin::GrinGraph* graph_;
  optimizer::Catalog catalog_;
  optimizer::OptimizerOptions options_;
  runtime::GaiaEngine gaia_;
  runtime::HiActorEngine hiactor_;
  PlanCache plan_cache_;
  TenantAdmission admission_;
};

/// Conventional-graph-database baseline for Exp-2 (stands in for the
/// paper's audited comparators): same storage and parser, but no query
/// optimization, tuple-at-a-time single-threaded execution
/// (Interpreter::RunTupleAtATime), and one global lock serializing all
/// queries.
class NaiveGraphDB {
 public:
  explicit NaiveGraphDB(const grin::GrinGraph* graph) : graph_(graph) {}

  Result<std::vector<ir::Row>> Run(Language lang, const std::string& text,
                                   std::vector<PropertyValue> params = {});

  /// Pre-parsed plan execution (skips re-parsing in throughput loops).
  Result<std::vector<ir::Row>> RunPlan(const ir::Plan& plan,
                                       std::vector<PropertyValue> params = {});

 private:
  const grin::GrinGraph* graph_;
  Mutex mu_;
};

/// Shared parse helper.
Result<ir::Plan> ParseQuery(Language lang, const std::string& text,
                            const GraphSchema& schema);

/// The sleep before retry attempt `attempt` (0-based): retry_backoff
/// doubled `attempt` times, saturated at retry_backoff_max, then scaled by
/// a jitter factor drawn uniformly from [0.75, 1.25] (clamped back under
/// the cap). Exposed for the bounds test; Run() drives it with an Rng
/// seeded from retry_jitter_seed.
std::chrono::milliseconds RetryBackoffFor(const RunOptions& options,
                                          int attempt, Rng* rng);

}  // namespace flex::query

#endif  // FLEX_QUERY_SERVICE_H_
