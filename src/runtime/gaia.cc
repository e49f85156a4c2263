#include "runtime/gaia.h"

#include <algorithm>
#include <string>

#include "common/mutex.h"

namespace flex::runtime {

namespace {

/// Per-query completion latch. The persistent pool serves many concurrent
/// queries, so a query must wait for its own shard tasks only —
/// ThreadPool::Wait() would block on unrelated queries' work too.
class ShardLatch {
 public:
  explicit ShardLatch(size_t count) : remaining_(count) {}

  void CountDown() {
    MutexLock lock(&mu_);
    if (--remaining_ == 0) done_.SignalAll();
  }

  void Wait() {
    MutexLock lock(&mu_);
    while (remaining_ > 0) done_.Wait(&mu_);
  }

 private:
  Mutex mu_;
  CondVar done_;
  size_t remaining_ GUARDED_BY(mu_);
};

/// A scan inside the prefix (cartesian restart of a new MATCH) must see
/// every vertex in every worker; morsel-sharding would drop rows. Such
/// plans run single-threaded.
bool HasInnerScan(const ir::Plan& plan, size_t split) {
  for (size_t i = 1; i < split; ++i) {
    if (plan.ops[i].kind == ir::OpKind::kScan ||
        plan.ops[i].kind == ir::OpKind::kFusedScan) {
      return true;
    }
  }
  return false;
}

}  // namespace

GaiaEngine::GaiaEngine(const grin::GrinGraph* graph, size_t num_workers)
    : graph_(graph),
      num_workers_(num_workers),
      pool_(num_workers > 1 ? std::make_unique<ThreadPool>(num_workers)
                            : nullptr) {}

Result<std::vector<ir::Row>> GaiaEngine::Run(
    const ir::Plan& plan, std::vector<PropertyValue> params,
    Deadline deadline, const CancellationToken* cancel, trace::Trace* trace,
    uint64_t trace_parent) const {
  // Admission: a dead-on-arrival query, or one short of parameters, must
  // not reach the workers.
  FLEX_RETURN_NOT_OK(CheckRunnable(deadline, cancel, "gaia"));
  FLEX_RETURN_NOT_OK(ir::CheckParams(plan, params.size()));
  trace::ScopedSpan engine_span(trace, "gaia", "engine", trace_parent);
  query::Interpreter interpreter(graph_);
  auto options = [&](uint64_t parent) {
    query::ExecOptions opts;
    opts.params = params;
    opts.deadline = deadline;
    opts.cancel = cancel;
    opts.trace = trace;
    opts.trace_parent = parent;
    return opts;
  };

  // Split at the first blocking (exchange-requiring) operator.
  size_t split = plan.ops.size();
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (query::Interpreter::IsBlocking(plan.ops[i])) {
      split = i;
      break;
    }
  }

  // An id-pinned leading scan resolves at most one row through the oid
  // index, so sharding such a plan buys no parallelism and pays dispatch +
  // latch on every query — the dominant cost for point lookups. Run it
  // single-threaded instead.
  const bool shardable = pool_ != nullptr && !plan.ops.empty() &&
                         (plan.ops[0].kind == ir::OpKind::kScan ||
                          plan.ops[0].kind == ir::OpKind::kFusedScan) &&
                         plan.ops[0].id_lookup == nullptr && split > 0 &&
                         !HasInnerScan(plan, split);
  if (!shardable) return interpreter.Run(plan, options(engine_span.id()));

  // Morsel-driven prefix: every worker pulls contiguous scan windows from
  // one shared source, so load balances dynamically and no worker idles
  // on a skewed shard.
  query::ScanMorselSource morsels;
  std::vector<Result<std::vector<ir::Batch>>> partials(
      num_workers_, Result<std::vector<ir::Batch>>(std::vector<ir::Batch>{}));
  ShardLatch latch(num_workers_);
  for (size_t w = 0; w < num_workers_; ++w) {
    pool_->Submit([&, w] {
      {
        // Scoped so the span ends before CountDown: the waiter may read
        // the trace the instant the latch releases.
        trace::ScopedSpan shard_span(trace,
                                     "gaia.shard[" + std::to_string(w) + "]",
                                     "engine", engine_span.id());
        query::ExecOptions opts = options(shard_span.id());
        opts.morsels = &morsels;
        partials[w] = interpreter.RunRangeBatched(plan, 0, split, {}, opts);
      }
      latch.CountDown();
    });
  }
  latch.Wait();
  // Exchange: concatenate the worker batch lists and restore global scan
  // order by order_key. Each scan window was claimed by exactly one worker
  // and batches never span windows, so the sort reproduces the
  // single-threaded row order exactly (stable: a worker's own batches are
  // already ordered, and EXPAND outputs inherit their source batch's key).
  std::vector<ir::Batch> all;
  {
    trace::ScopedSpan exchange_span(trace, "gaia.exchange", "engine",
                                    engine_span.id());
    for (auto& partial : partials) {
      FLEX_RETURN_NOT_OK(partial.status());
      auto batches = std::move(partial).value();
      all.insert(all.end(), std::make_move_iterator(batches.begin()),
                 std::make_move_iterator(batches.end()));
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const ir::Batch& a, const ir::Batch& b) {
                       return a.order_key < b.order_key;
                     });
  }
  // Blocking suffix, still columnar: GROUP aggregates natively over the
  // order-restored batches; ORDER / LIMIT / DEDUP bridge through rows
  // inside RunRangeBatched, bit-identically to the reference.
  auto suffix = interpreter.RunRangeBatched(plan, split, plan.ops.size(),
                                            std::move(all),
                                            options(engine_span.id()));
  FLEX_RETURN_NOT_OK(suffix.status());
  return ir::BatchesToRows(suffix.value());
}

}  // namespace flex::runtime
