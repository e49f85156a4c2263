#ifndef FLEX_GRAPE_PIE_H_
#define FLEX_GRAPE_PIE_H_

#include <atomic>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/barrier.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "grape/fragment.h"
#include "grape/message_manager.h"

namespace flex::grape {

/// Per-fragment view handed to PIE callbacks: message send/receive plus the
/// current superstep.
template <typename MSG>
class PieContext {
 public:
  PieContext(const Fragment* frag, MessageManager<MSG>* messages)
      : frag_(frag), messages_(messages) {}

  int round() const { return round_; }

  /// Sends `msg` to local vertex `lid` (inner or outer), delivered next
  /// round to its owner, addressed by its local id there.
  void SendTo(vid_t lid, const MSG& msg) {
    messages_->Send(frag_->fid(), frag_->OwnerOf(lid), frag_->RemoteLid(lid),
                    msg);
  }

  /// Streams this fragment's inbound messages for the current round, each
  /// as `fn(lid, msg)` with `lid` an inner local id of this fragment (or
  /// kInvalidVid for Broadcast and SendToSelf). A delivery failure
  /// (kDataLoss after exhausted recovery) is latched into receive_status()
  /// — apps keep their void callbacks; the runtime checks the latch after
  /// each compute phase and aborts the run cleanly.
  template <typename Fn>
  void ForEachMessage(Fn&& fn) const {
    Status st = messages_->Receive(frag_->fid(), std::forward<Fn>(fn));
    if (!st.ok() && recv_status_.ok()) recv_status_ = std::move(st);
  }

  /// First delivery error observed by ForEachMessage (OK if none).
  const Status& receive_status() const { return recv_status_; }

  /// Sends `msg` to every fragment, addressed to the sentinel target
  /// kInvalidVid (global aggregation channel, e.g. PageRank dangling mass).
  void Broadcast(const MSG& msg) {
    for (partition_t p = 0; p < frag_->num_fragments(); ++p) {
      messages_->Send(frag_->fid(), p, kInvalidVid, msg);
    }
  }

  /// Sends a sentinel-addressed message to this fragment only (used by
  /// adapters for keep-alive markers the next round ignores).
  void SendToSelf(const MSG& msg) {
    messages_->Send(frag_->fid(), frag_->fid(), kInvalidVid, msg);
  }

  /// Called by the runtime at the start of each superstep.
  void BeginRound(int round) { round_ = round; }

 private:
  const Fragment* frag_;
  MessageManager<MSG>* messages_;
  int round_ = 0;
  /// Mutable: ForEachMessage is const for the apps' benefit but must
  /// record a failed delivery.
  mutable Status recv_status_;
};

/// The PIE programming model [44] (§6): users supply a *partial evaluation*
/// over each fragment (PEval) and an *incremental evaluation* (IncEval)
/// driven by inbound messages; GRAPE auto-parallelizes the sequential logic
/// across fragments with BSP supersteps. One app instance per fragment
/// holds that fragment's state.
template <typename MSG>
class PieApp {
 public:
  virtual ~PieApp() = default;
  virtual void PEval(const Fragment& frag, PieContext<MSG>& ctx) = 0;
  virtual void IncEval(const Fragment& frag, PieContext<MSG>& ctx) = 0;
};

/// Knobs for RunPieChecked beyond the fragments and apps.
struct PieOptions {
  MessageMode mode = MessageMode::kAggregated;
  int max_rounds = 1000000;
  /// Checked at every superstep boundary (and once before round 0): an
  /// expired deadline stops the run with kDeadlineExceeded before another
  /// superstep executes.
  Deadline deadline;
  /// Optional; checked alongside the deadline. Cancellation wins.
  const CancellationToken* cancel = nullptr;
  /// Optional per-query trace: the superstep leader records superstep /
  /// flush / recover spans under `trace_parent`. Must outlive the run.
  trace::Trace* trace = nullptr;
  uint64_t trace_parent = trace::kNoParent;
};

/// Runs a PIE computation to fixpoint: supersteps continue while any
/// fragment sent messages, up to `options.max_rounds`. One worker thread
/// per fragment (the in-process stand-in for one compute node per
/// fragment). Returns the number of rounds executed (PEval is round 0).
///
/// Failure semantics:
///  - The "pie.compute" fault site emulates a fail-stop worker loss: the
///    fragment's compute for that round is skipped entirely. The superstep
///    leader detects it at the next barrier and re-executes the lost
///    fragment's compute before flushing — sends land in the pre-Flush
///    outgoing buffers, so recovery is invisible to the other fragments.
///  - Message-delivery failures that survive the MessageManager's own
///    retransmission (kDataLoss) abort the run with that Status.
///  - Deadline expiry / cancellation stop the run at the next superstep
///    boundary with kDeadlineExceeded / kCancelled.
template <typename MSG>
Result<int> RunPieChecked(
    const std::vector<std::unique_ptr<Fragment>>& fragments,
    const std::vector<std::unique_ptr<PieApp<MSG>>>& apps,
    const PieOptions& options = {}) {
  const partition_t nfrag = static_cast<partition_t>(fragments.size());
  FLEX_CHECK_EQ(apps.size(), fragments.size());
  {
    // Admission: an already-dead query must not execute a superstep.
    Status st = CheckRunnable(options.deadline, options.cancel, "grape.pie");
    if (!st.ok()) return st;
  }

  MessageManager<MSG> messages(nfrag, options.mode);
  Barrier barrier(nfrag);
  std::atomic<bool> proceed{true};
  std::atomic<bool> stop{false};
  std::atomic<int> rounds{0};
  // failed[fid] is set by fragment fid's worker when its compute was
  // fail-stopped, and read + cleared by the superstep leader; the barrier
  // between those accesses publishes them.
  std::vector<uint8_t> failed(nfrag, 0);
  Mutex err_mu;
  Status first_error;

  std::vector<PieContext<MSG>> contexts;
  contexts.reserve(nfrag);
  for (partition_t fid = 0; fid < nfrag; ++fid) {
    contexts.emplace_back(fragments[fid].get(), &messages);
  }

  auto record_error = [&](Status st) {
    MutexLock lock(&err_mu);
    if (first_error.ok()) first_error = std::move(st);
    stop.store(true, std::memory_order_release);
  };

  // One fragment's compute for one round; `round` 0 is PEval. The fault
  // check comes first so a killed worker does no partial work (fail-stop).
  auto compute = [&](partition_t fid, int round) {
    if (FLEX_FAULT_POINT("pie.compute")) {
      failed[fid] = 1;
      return;
    }
    PieContext<MSG>& ctx = contexts[fid];
    ctx.BeginRound(round);
    if (round == 0) {
      apps[fid]->PEval(*fragments[fid], ctx);
    } else {
      apps[fid]->IncEval(*fragments[fid], ctx);
    }
    if (!ctx.receive_status().ok()) record_error(ctx.receive_status());
  };

  // Re-executes every fail-stopped fragment's compute. Runs on the leader
  // between barriers (or after the pool drains), so it is single-threaded
  // and the round's incoming messages are still intact (pre-Flush).
  auto recover = [&](int round) {
    for (partition_t fid = 0; fid < nfrag; ++fid) {
      if (failed[fid] == 0) continue;
      failed[fid] = 0;
      FLEX_COUNTER_INC(metrics::kPieRecoveriesTotal);
      PieContext<MSG>& ctx = contexts[fid];
      ctx.BeginRound(round);
      if (round == 0) {
        apps[fid]->PEval(*fragments[fid], ctx);
      } else {
        apps[fid]->IncEval(*fragments[fid], ctx);
      }
      if (!ctx.receive_status().ok()) record_error(ctx.receive_status());
    }
  };

  // Superstep trace state, touched only by one thread at a time between
  // barriers (the phase-1 and phase-2 leaders may be *different* threads;
  // the barrier's own synchronization publishes the state from one to the
  // other and to the next round). One counter bump and one histogram
  // observation per superstep — not per fragment.
  trace::Trace* const tr = options.trace;
  uint64_t open_superstep =
      tr != nullptr
          ? tr->BeginSpan("superstep[0]", "superstep", options.trace_parent)
          : trace::kNoParent;
  uint64_t open_flush = trace::kNoParent;
  Timer superstep_timer;

  // The superstep boundary is a two-phase barrier. Phase 1 (one leader,
  // everyone else parked at the next barrier): repair the previous round's
  // fail-stopped fragments, enforce the deadline, drain the send counters.
  // Then every fragment worker frames its *own* destination's incoming
  // traffic concurrently — the per-destination flush work is independent,
  // so the nfrag² channel walk no longer serializes on the leader while
  // the other workers idle. Phase 2 (one leader): aggregate the shard
  // results and decide whether another round is needed.
  //
  // Each worker observes its own compute per round into
  // flex_pie_compute_us and the time it spent blocked in that round's
  // barrier awaits into flex_pie_barrier_wait_us, so a slow superstep
  // tells the slowest fragment apart from the ones waiting on it.
  auto worker = [&](partition_t fid) {
    uint64_t waited_us = 0;
    auto await = [&] {
      Timer wait;
      const bool leader = barrier.Await();
      waited_us += static_cast<uint64_t>(wait.ElapsedMicros());
      return leader;
    };
    auto timed_compute = [&](int round) {
      Timer busy;
      compute(fid, round);
      FLEX_HISTOGRAM_OBSERVE_US(metrics::kPieComputeUs,
                                static_cast<uint64_t>(busy.ElapsedMicros()));
    };
    timed_compute(0);
    for (int round = 1; round <= options.max_rounds; ++round) {
      waited_us = 0;
      if (await()) {
        // Phase 1 leader: recovery must precede the flush shards (its
        // re-executed computes append to the pre-flush outgoing buffers),
        // and the counter drain must follow recovery (recovery sends).
        bool any_failed = false;
        for (partition_t f = 0; f < nfrag; ++f) {
          any_failed = any_failed || failed[f] != 0;
        }
        {
          trace::ScopedSpan recover_span(
              any_failed ? tr : nullptr,
              "recover[" + std::to_string(round - 1) + "]", "recover",
              open_superstep);
          recover(round - 1);
        }
        Status st =
            CheckRunnable(options.deadline, options.cancel, "grape.pie");
        if (!st.ok()) record_error(std::move(st));
        messages.BeginFlush();
        open_flush = tr != nullptr
                         ? tr->BeginSpan("flush[" + std::to_string(round - 1) +
                                             "]",
                                         "flush", open_superstep)
                         : trace::kNoParent;
      }
      // Publishes phase 1 (recovery sends, drained counters) to all
      // workers, then each worker frames its own destination's traffic.
      await();
      messages.FlushShard(fid);
      if (await()) {
        // Phase 2 leader: every shard is framed (published by the barrier
        // just crossed); summarize and decide.
        const size_t fragments_with_traffic = messages.EndFlush();
        if (tr != nullptr) tr->EndSpan(open_flush);
        const bool traffic = fragments_with_traffic > 0;
        proceed.store(traffic && !stop.load(std::memory_order_acquire),
                      std::memory_order_release);
        rounds.store(round, std::memory_order_relaxed);
        FLEX_COUNTER_INC(metrics::kPieSuperstepsTotal);
        FLEX_HISTOGRAM_OBSERVE_US(
            metrics::kPieSuperstepDurationUs,
            static_cast<uint64_t>(superstep_timer.ElapsedMicros()));
        superstep_timer.Restart();
        if (tr != nullptr) {
          tr->EndSpan(open_superstep);
          open_superstep =
              proceed.load(std::memory_order_acquire)
                  ? tr->BeginSpan("superstep[" + std::to_string(round) + "]",
                                  "superstep", options.trace_parent)
                  : trace::kNoParent;
        }
      }
      await();
      FLEX_HISTOGRAM_OBSERVE_US(metrics::kPieBarrierWaitUs, waited_us);
      if (!proceed.load(std::memory_order_acquire)) break;
      timed_compute(round);
    }
  };

  // One pool worker per fragment; the pool is sized to the fragment count
  // so all workers run concurrently (they rendezvous at the barrier every
  // superstep, which deadlocks if any fragment's worker were queued).
  ThreadPool pool(nfrag);
  for (partition_t fid = 0; fid < nfrag; ++fid) {
    pool.Submit([&worker, fid] { worker(fid); });
  }
  pool.Wait();
  // A kill in the very last executed round (max_rounds reached) has no
  // further barrier to repair it; converge the app state here. Messages
  // sent during this repair are dropped with everyone else's unflushed
  // sends, exactly as if the round had completed normally.
  recover(rounds.load(std::memory_order_relaxed));
  if (tr != nullptr) tr->EndSpan(open_superstep);  // max_rounds exit.
  {
    MutexLock lock(&err_mu);
    if (!first_error.ok()) return first_error;
  }
  return rounds.load(std::memory_order_relaxed);
}

/// The one runner behind the app convenience functions: builds one app per
/// fragment with `make()`, runs them through RunPieChecked (failures are
/// fatal) and gathers each fragment's inner-vertex values, read by
/// `get(app, v)`, into one global vector. Every vertex has exactly one
/// owner, so every entry is written.
template <typename MSG, typename App, typename Make, typename Get>
auto RunAndMerge(const std::vector<std::unique_ptr<Fragment>>& fragments,
                 Make&& make, Get&& get, const PieOptions& options = {}) {
  using T = std::decay_t<std::invoke_result_t<Get&, const App&, vid_t>>;
  std::vector<std::unique_ptr<PieApp<MSG>>> apps;
  std::vector<const App*> typed;
  for (size_t i = 0; i < fragments.size(); ++i) {
    std::unique_ptr<App> app = make();
    typed.push_back(app.get());
    apps.push_back(std::move(app));
  }
  Result<int> rounds = RunPieChecked(fragments, apps, options);
  FLEX_CHECK(rounds.ok());
  std::vector<T> merged(fragments.empty() ? 0 : fragments[0]->total_vertices());
  for (size_t i = 0; i < fragments.size(); ++i) {
    for (vid_t v : fragments[i]->inner_vertices()) {
      merged[v] = get(*typed[i], v);
    }
  }
  return merged;
}

}  // namespace flex::grape

#endif  // FLEX_GRAPE_PIE_H_
