#include "runtime/hiactor.h"

#include "common/fault.h"
#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::runtime {

HiActorEngine::HiActorEngine(const grin::GrinGraph* default_graph,
                             size_t num_shards)
    : default_graph_(default_graph) {
  FLEX_CHECK(num_shards > 0);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

HiActorEngine::~HiActorEngine() {
  {
    // Publish stop_ under wake_mu_ so a worker between its predicate check
    // and its wait cannot miss the shutdown signal.
    MutexLock lock(&wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_.SignalAll();
  for (auto& t : workers_) t.join();
}

void HiActorEngine::RegisterProcedure(const std::string& name, ir::Plan plan) {
  MutexLock lock(&procs_mu_);
  procedures_[name] = std::make_shared<const ir::Plan>(std::move(plan));
}

Result<std::future<Result<std::vector<ir::Row>>>>
HiActorEngine::SubmitProcedure(const std::string& name,
                               std::vector<PropertyValue> params,
                               std::shared_ptr<const grin::GrinGraph> graph) {
  std::shared_ptr<const ir::Plan> plan;
  {
    MutexLock lock(&procs_mu_);
    auto it = procedures_.find(name);
    if (it == procedures_.end()) {
      return Status::NotFound("stored procedure: " + name);
    }
    plan = it->second;
  }
  QueryTask task;
  task.plan = std::move(plan);
  task.params = std::move(params);
  task.graph = std::move(graph);
  return Submit(std::move(task));
}

std::future<Result<std::vector<ir::Row>>> HiActorEngine::Submit(
    QueryTask query) {
  Task task;
  task.query = std::move(query);
  std::future<Result<std::vector<ir::Row>>> future =
      task.promise.get_future();
  // Admission: a task that is already dead (expired deadline, cancelled
  // token) or short of parameters must not consume a queue slot or
  // execute.
  {
    Status admit = CheckRunnable(task.query.deadline, task.query.cancel,
                                 "hiactor.submit");
    if (admit.ok()) {
      admit = ir::CheckParams(*task.query.plan, task.query.params.size());
    }
    if (!admit.ok()) {
      task.promise.set_value(std::move(admit));
      return future;
    }
  }
  const size_t shard =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  {
    MutexLock lock(&shards_[shard]->mu);
    // Admission: bounded queue depth. Shedding here — before the enqueue —
    // keeps every accepted task's queueing delay bounded, the overload
    // behaviour actor systems prefer over unbounded mailboxes.
    const size_t depth = max_queue_depth_.load(std::memory_order_relaxed);
    if (depth > 0 && shards_[shard]->queue.size() >= depth) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      FLEX_COUNTER_INC(metrics::kQueriesShedTotal);
      task.promise.set_value(Status::ResourceExhausted(
          "shard " + std::to_string(shard) + " queue depth " +
          std::to_string(depth) + " reached; submission shed"));
      return future;
    }
    if (task.query.trace != nullptr) {
      task.queue_span = task.query.trace->BeginSpan(
          "hiactor.queue", "engine", task.query.trace_parent);
    }
    shards_[shard]->queue.push_back(std::move(task));
    FLEX_GAUGE_ADD(metrics::kHiactorPendingTasks, 1);
  }
  {
    // The 0→1 transition of pending_ is what wakes sleepers; doing it under
    // wake_mu_ pairs it with the worker's locked predicate check.
    MutexLock lock(&wake_mu_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_.Signal();
  return future;
}

Result<std::vector<ir::Row>> HiActorEngine::Execute(QueryTask task) {
  return Submit(std::move(task)).get();
}

bool HiActorEngine::TryRunOne(size_t home) {
  // Own queue first, then steal from peers (the work-stealing scheduler
  // HiActor uses to balance skewed query streams).
  for (size_t probe = 0; probe < shards_.size(); ++probe) {
    const size_t s = (home + probe) % shards_.size();
    Task task;
    {
      MutexLock lock(&shards_[s]->mu);
      if (shards_[s]->queue.empty()) continue;
      if (probe == 0) {
        task = std::move(shards_[s]->queue.front());
        shards_[s]->queue.pop_front();
      } else {
        task = std::move(shards_[s]->queue.back());  // Steal cold end.
        shards_[s]->queue.pop_back();
      }
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
    FLEX_GAUGE_ADD(metrics::kHiactorPendingTasks, -1);
    if (probe > 0) FLEX_COUNTER_INC(metrics::kHiactorTasksStolenTotal);
    // The queueing-delay span ends at dispatch regardless of how the task
    // resolves below.
    if (task.query.trace != nullptr) {
      task.query.trace->EndSpan(task.queue_span);
    }
    // Chaos: "hiactor.dispatch" with a fail policy drops the task at the
    // shard boundary (resolved kAborted, the retryable transient); with a
    // delay policy it emulates a slow shard and falls through to run.
    if (FLEX_FAULT_POINT("hiactor.dispatch")) {
      completed_.fetch_add(1, std::memory_order_release);
      FLEX_COUNTER_INC(metrics::kHiactorTasksCompletedTotal);
      task.promise.set_value(Status::Aborted(
          "hiactor.dispatch fault: task dropped by its shard"));
      return true;
    }
    // The deadline may have expired (or the query been cancelled) while
    // the task sat queued; resolve without running.
    Status runnable = CheckRunnable(task.query.deadline, task.query.cancel,
                                    "hiactor.dispatch");
    if (!runnable.ok()) {
      completed_.fetch_add(1, std::memory_order_release);
      FLEX_COUNTER_INC(metrics::kHiactorTasksCompletedTotal);
      task.promise.set_value(std::move(runnable));
      return true;
    }
    const grin::GrinGraph* graph =
        task.query.graph != nullptr ? task.query.graph.get() : default_graph_;
    query::Interpreter interpreter(graph);
    trace::ScopedSpan execute_span(task.query.trace, "hiactor.execute",
                                   "engine", task.query.trace_parent);
    query::ExecOptions opts;
    opts.params = std::move(task.query.params);
    opts.deadline = task.query.deadline;
    opts.cancel = task.query.cancel;
    opts.trace = task.query.trace;
    opts.trace_parent = execute_span.id();
    // Count before resolving the future so a caller that joined on the
    // future observes the completion.
    completed_.fetch_add(1, std::memory_order_release);
    FLEX_COUNTER_INC(metrics::kHiactorTasksCompletedTotal);
    task.promise.set_value(interpreter.Run(*task.query.plan, opts));
    return true;
  }
  return false;
}

void HiActorEngine::WorkerLoop(size_t home) {
  while (!stop_.load(std::memory_order_acquire)) {
    if (TryRunOne(home)) continue;
    MutexLock lock(&wake_mu_);
    while (!stop_.load(std::memory_order_acquire) &&
           pending_.load(std::memory_order_acquire) == 0) {
      wake_.Wait(&wake_mu_);
    }
    // pending_ > 0 here may be stale (another worker claimed the task);
    // the outer loop re-probes the queues and comes back if empty.
  }
  // Drain remaining tasks so no future is abandoned.
  while (TryRunOne(home)) {
  }
}

}  // namespace flex::runtime
