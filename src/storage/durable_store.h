#ifndef FLEX_STORAGE_DURABLE_STORE_H_
#define FLEX_STORAGE_DURABLE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/trace.h"
#include "grin/grin.h"
#include "storage/gart/gart_store.h"
#include "storage/wal.h"

namespace flex::storage {

/// Deadline/cancellation/tracing context for one commit; checked at the
/// batch boundary (the write path's quantum), like every other layer.
struct CommitOptions {
  Deadline deadline = Deadline::Infinite();
  const CancellationToken* cancel = nullptr;
  trace::Trace* trace = nullptr;
};

/// Crash-consistent front of a GartStore: every mutation is staged in
/// memory, and CommitBatch() makes the batch durable (one WAL write +
/// fsync — group commit) *before* applying it to the in-memory store and
/// publishing the epoch. The WAL-then-apply order plus GART's MVCC
/// publication gives the crash contract:
///
///   - die in WalWriter::Append/Sync  -> the batch was never durable and
///     never visible; recovery truncates the torn tail and lands on the
///     previous epoch.
///   - die during the apply           -> the batch is durable; the
///     half-applied in-memory state was never visible (the epoch had not
///     been published) and is abandoned with the process; recovery
///     replays the WAL and lands *after* the batch.
///
/// Either way the recovered store is bit-identical to an uninterrupted
/// run at the same epoch, which is exactly what the chaos suite asserts.
///
/// Identity is by (label, oid), the stable external name that survives a
/// replay; the log never records vids.
///
/// Not thread-safe for concurrent writers (one logical writer, as in
/// GART's single write-head design); readers PinSnapshot() concurrently
/// without coordination.
class DurableStore {
 public:
  /// Replays the WAL at `wal_path` onto `gart` and takes it over. `gart`
  /// must be in the state the store had when that WAL was created (a fresh
  /// Create(schema), or the same bulk Build) — WAL epochs are absolute,
  /// and replay validates them as it republishes versions. Emits a
  /// "storage.recover" span on `trace` covering the replay.
  static Result<std::unique_ptr<DurableStore>> Open(
      std::shared_ptr<GartStore> gart, const std::string& wal_path,
      trace::Trace* trace = nullptr);

  /// Stats from the Open()-time replay (how much was recovered).
  const WalReplayStats& recovery_stats() const { return recovery_stats_; }

  // Staged mutations: recorded in the batch, applied to GART only once
  // durable. Validation happens at apply time — a record GART rejects
  // (kResourceExhausted included) fails the commit and fail-stops the
  // store, so writers must stage well-formed batches.
  Status AppendVertex(label_t label, oid_t oid,
                      std::vector<PropertyValue> props);
  Status AppendEdge(label_t edge_label, oid_t src, oid_t dst,
                    double weight = 1.0, int64_t ts = 0);
  Status UpdateProperty(label_t label, oid_t oid, uint32_t col,
                        const PropertyValue& value);
  Status RemoveEdge(label_t edge_label, oid_t src, oid_t dst);

  size_t staged_records() const { return staged_.size(); }

  /// Group-commits the staged batch: WAL append + fsync (one frame buffer,
  /// "wal.append" span), then the apply to GART, then epoch publication.
  /// On any failure the store fail-stops: the batch contract is broken and
  /// only a reopen (recovery) may serve writes again. An empty batch is a
  /// no-op returning the current epoch.
  Result<version_t> CommitBatch(const CommitOptions& options = {});

  /// True once a commit failed; all further writes are rejected.
  bool failed() const { return failed_; }

  version_t read_version() const { return gart_->read_version(); }

  /// GRIN view at the newest committed epoch, or at `version`.
  std::unique_ptr<grin::GrinGraph> PinSnapshot() const {
    return gart_->GetSnapshot();
  }
  std::unique_ptr<grin::GrinGraph> PinSnapshot(version_t version) const {
    return gart_->GetSnapshot(version);
  }

 private:
  DurableStore(std::shared_ptr<GartStore> gart,
               std::unique_ptr<WalWriter> writer, WalReplayStats stats);

  Status CheckWritable() const;

  std::shared_ptr<GartStore> gart_;
  std::unique_ptr<WalWriter> writer_;
  WalReplayStats recovery_stats_;
  std::vector<WalRecord> staged_;  ///< Current batch, in append order.
  uint64_t next_seq_;              ///< Seq the next record will take.
  bool failed_ = false;
};

/// CRC32 fingerprint of everything a snapshot exposes: per-label visible
/// vertices (oid, label, properties) and per-vertex out-adjacency
/// (neighbor, weight, edge id) in deterministic visit order. Two stores
/// are bit-identical for readers iff their fingerprints match — this is
/// the equality the crash-recovery chaos suite asserts between a recovered
/// store and an uninterrupted reference run.
uint32_t SnapshotFingerprint(const grin::GrinGraph& graph);

}  // namespace flex::storage

#endif  // FLEX_STORAGE_DURABLE_STORE_H_
