#ifndef FLEX_RUNTIME_GAIA_H_
#define FLEX_RUNTIME_GAIA_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "query/interpreter.h"

namespace flex::runtime {

/// Gaia-like dataflow engine (§5.3): the OLAP path. A physical plan is cut
/// at its first blocking operator; the streaming prefix (SOURCE →
/// FLATMAP/MAP/FILTER chain) runs data-parallel across workers, and the
/// blocking suffix (ORDER / GROUP / LIMIT / DEDUP and everything after)
/// runs after an exchange that gathers their output — the
/// latency-oriented data-parallel design the paper contrasts with
/// HiActor's throughput orientation.
///
/// The prefix is morsel-driven: workers claim contiguous scan windows from
/// a shared atomic source and stream ~kBatchSize columnar batches; the
/// exchange concatenates the batch lists and restores global scan order by
/// each batch's order_key, so results are bit-identical at any worker
/// count.
class GaiaEngine {
 public:
  GaiaEngine(const grin::GrinGraph* graph, size_t num_workers);

  /// Runs `plan`. An already-expired deadline (or cancelled token) is
  /// rejected up front with kDeadlineExceeded / kCancelled before any
  /// operator executes; during execution both are re-checked at every
  /// operator and batch boundary in every worker. A plan referencing a
  /// $i beyond `params` is rejected up front with kInvalidArgument.
  ///
  /// When `trace` is non-null, a "gaia" span is recorded under
  /// `trace_parent` with per-shard / exchange / suffix children.
  Result<std::vector<ir::Row>> Run(
      const ir::Plan& plan, std::vector<PropertyValue> params = {},
      Deadline deadline = {}, const CancellationToken* cancel = nullptr,
      trace::Trace* trace = nullptr,
      uint64_t trace_parent = trace::kNoParent) const;

  size_t num_workers() const { return num_workers_; }

 private:
  const grin::GrinGraph* graph_;
  size_t num_workers_;
  /// Persistent workers, sized once at construction. Queries submit their
  /// shard tasks here and wait on a per-query latch — the old design
  /// constructed (and joined) a fresh ThreadPool inside every Run, paying
  /// num_workers thread spawns per query. Null when num_workers_ <= 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace flex::runtime

#endif  // FLEX_RUNTIME_GAIA_H_
