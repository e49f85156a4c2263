#ifndef FLEX_RUNTIME_HIACTOR_H_
#define FLEX_RUNTIME_HIACTOR_H_

#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/trace.h"
#include "query/interpreter.h"

namespace flex::runtime {

/// One unit of work: a (usually registered) plan plus its parameters,
/// optionally pinned to a specific MVCC snapshot.
struct QueryTask {
  std::shared_ptr<const ir::Plan> plan;
  std::vector<PropertyValue> params;
  /// Overrides the engine's default graph (e.g. a fresh GART snapshot);
  /// the shared_ptr keeps the snapshot alive until the task completes.
  std::shared_ptr<const grin::GrinGraph> graph;
  /// Checked at submission, again at dispatch, and between operators while
  /// the task runs. An already-expired deadline is rejected at Submit.
  Deadline deadline;
  /// Optional; must outlive the task. Cancellation wins over deadline.
  const CancellationToken* cancel = nullptr;
  /// Optional per-query trace: Submit records a "hiactor.queue" span (the
  /// task's queueing delay) and dispatch a "hiactor.execute" span, both
  /// under `trace_parent`. Must outlive the task.
  trace::Trace* trace = nullptr;
  uint64_t trace_parent = trace::kNoParent;
};

/// HiActor-like actor engine (§5.3): the OLTP path. Queries become actor
/// tasks dispatched to shards; every shard is one worker thread draining
/// its own run queue and stealing from peers when idle. Optimized for
/// high-QPS streams of small queries (stored procedures), not for a
/// single large query's latency.
class HiActorEngine {
 public:
  HiActorEngine(const grin::GrinGraph* default_graph, size_t num_shards);
  ~HiActorEngine();

  HiActorEngine(const HiActorEngine&) = delete;
  HiActorEngine& operator=(const HiActorEngine&) = delete;

  /// Registers a parameterized plan under `name` (stored procedure).
  void RegisterProcedure(const std::string& name, ir::Plan plan)
      EXCLUDES(procs_mu_);

  /// Enqueues a registered procedure; the future resolves with its rows.
  Result<std::future<Result<std::vector<ir::Row>>>> SubmitProcedure(
      const std::string& name, std::vector<PropertyValue> params,
      std::shared_ptr<const grin::GrinGraph> graph = nullptr);

  /// Enqueues an ad-hoc task. A task whose plan references a $i beyond
  /// its params resolves with kInvalidArgument without being queued.
  std::future<Result<std::vector<ir::Row>>> Submit(QueryTask task);

  /// Convenience: submit + wait.
  Result<std::vector<ir::Row>> Execute(QueryTask task);

  /// Total tasks completed since construction. Tasks shed at admission or
  /// rejected at Submit (expired deadline) are not counted: they never ran.
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// Admission control: a shard whose queue already holds `depth` tasks
  /// sheds new submissions with kResourceExhausted instead of letting the
  /// backlog (and every queued task's latency) grow without bound. 0
  /// disables shedding (the default).
  void set_max_queue_depth(size_t depth) {
    max_queue_depth_.store(depth, std::memory_order_relaxed);
  }

  /// Submissions shed by admission control so far.
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Task {
    QueryTask query;
    std::promise<Result<std::vector<ir::Row>>> promise;
    /// Open "hiactor.queue" span, closed at dispatch (0 when untraced).
    uint64_t queue_span = trace::kNoParent;
  };

  struct Shard {
    Mutex mu;
    std::deque<Task> queue GUARDED_BY(mu);
  };

  void WorkerLoop(size_t home);
  bool TryRunOne(size_t home);

  const grin::GrinGraph* default_graph_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Shard workers ARE the engine's thread pool (long-lived, one per shard,
  // each owning a run queue) — the one legitimate raw-thread site outside
  // flex::ThreadPool.
  std::vector<std::thread> workers_;  // flexlint: allow(raw-thread)
  // Sleep/wake protocol: transitions that can wake a sleeping worker
  // (pending_ 0→1, stop_) happen under wake_mu_ so the signal cannot fall
  // between a worker's predicate check and its wait (lost-wakeup audit,
  // DESIGN.md). Decrements may stay outside the lock: they only make the
  // predicate false, never true.
  Mutex wake_mu_;
  CondVar wake_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_shard_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> pending_{0};
  std::atomic<size_t> max_queue_depth_{0};
  std::atomic<uint64_t> shed_{0};

  Mutex procs_mu_;
  std::unordered_map<std::string, std::shared_ptr<const ir::Plan>> procedures_
      GUARDED_BY(procs_mu_);
};

}  // namespace flex::runtime

#endif  // FLEX_RUNTIME_HIACTOR_H_
