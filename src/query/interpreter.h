#ifndef FLEX_QUERY_INTERPRETER_H_
#define FLEX_QUERY_INTERPRETER_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "common/trace.h"
#include "grin/grin.h"
#include "ir/batch.h"
#include "ir/plan.h"
#include "ir/row.h"

namespace flex::query {

/// Morsel source for one scan: workers claim contiguous position windows
/// [k*kBatchSize, (k+1)*kBatchSize) off an atomic counter. The claims
/// partition the position space, so every scan position is visited by
/// exactly one worker; each claimed window becomes at most one output
/// batch whose order_key is its first position, which lets the exchange
/// restore global scan order with a sort.
struct ScanMorselSource {
  std::atomic<size_t> next{0};

  /// First position of the next unclaimed window.
  size_t Claim() {
    return next.fetch_add(ir::kBatchSize, std::memory_order_relaxed);
  }
};

/// Options controlling one execution of a physical plan.
struct ExecOptions {
  /// Bound values for $i parameters (stored procedures).
  std::vector<PropertyValue> params;
  /// Morsel-driven sharding of the leading columnar SCAN / FUSED_SCAN:
  /// when set, the scan claims position windows from this shared source,
  /// so the workers running one prefix partition the scan between them.
  /// Null (the default) claims every window from a private source.
  ScanMorselSource* morsels = nullptr;
  /// Checked between operators and at batch boundaries inside operators:
  /// execution stops with kDeadlineExceeded / kCancelled instead of
  /// running further.
  Deadline deadline;
  const CancellationToken* cancel = nullptr;
  /// Optional per-query trace: each operator records a span (name =
  /// OpKindName) under `trace_parent`, and scans nest a "storage.read"
  /// child. Must outlive the call. The columnar path and the reference
  /// (RunTupleAtATime) produce the same span tree shape.
  trace::Trace* trace = nullptr;
  uint64_t trace_parent = trace::kNoParent;
};

/// Executor for GraphIR plans over any GRIN backend. Both engines are
/// built on its columnar path: Gaia runs the non-blocking prefix
/// morsel-wise across workers and the blocking suffix after an exchange;
/// HiActor runs whole (point) plans inside actor tasks.
class Interpreter {
 public:
  explicit Interpreter(const grin::GrinGraph* graph) : graph_(graph) {}

  /// Executes the full plan over columnar batches.
  Result<std::vector<ir::Row>> Run(const ir::Plan& plan,
                                   const ExecOptions& opts = {}) const;

  /// Executes the full plan one row at a time, single-threaded and
  /// unsharded (`opts.morsels` is ignored). This is the reference the
  /// columnar path is held to: NaiveGraphDB runs on it, and the parity
  /// suites require Run to match it bit for bit.
  Result<std::vector<ir::Row>> RunTupleAtATime(
      const ir::Plan& plan, const ExecOptions& opts = {}) const;

  /// Executes ops [begin, end) over columnar batches. SCAN, EXPAND, GETV,
  /// PROJECT, SELECT and GROUP run natively, with filters refining the
  /// shared selection vector; ORDER / LIMIT / DEDUP and variable-length
  /// expansion bridge through the row operators, so results are
  /// bit-identical to RunTupleAtATime.
  Result<std::vector<ir::Batch>> RunRangeBatched(const ir::Plan& plan,
                                                 size_t begin, size_t end,
                                                 std::vector<ir::Batch> input,
                                                 const ExecOptions& opts) const;

  /// True if `op` requires all rows at once (Gaia exchange point).
  static bool IsBlocking(const ir::Op& op);

 private:
  /// One operator of the tuple-at-a-time reference. `leading` is true
  /// for the plan's first operator: a leading scan produces rows from
  /// nothing, while a later scan extends each input row (a cartesian
  /// product) and so yields nothing from no rows.
  Status Apply(const ir::Op& op, bool leading, std::vector<ir::Row>* rows,
               const ExecOptions& opts, uint64_t op_span) const;

  Status ApplyBatched(const ir::Op& op, bool leading,
                      std::vector<ir::Batch>* batches, const ExecOptions& opts,
                      uint64_t op_span) const;

  /// Leading SCAN / FUSED_SCAN, columnar: claims position windows from
  /// `opts.morsels` (or a private source) and visits each through GRIN.
  /// A fused scan's pushed conjuncts run inside the backend's scan loop,
  /// so filtered-out rows never materialize; the residual refines the
  /// window's batch, and a folded projection builds the output directly
  /// from natively gathered property columns.
  Status ColumnarScan(const ir::Op& op, std::vector<ir::Batch>* out,
                      const ExecOptions& opts, uint64_t op_span) const;

  const grin::GrinGraph* graph_;
};

/// Renders rows as text lines (tests and result reporting).
std::vector<std::string> RowsToStrings(const std::vector<ir::Row>& rows);

}  // namespace flex::query

#endif  // FLEX_QUERY_INTERPRETER_H_
