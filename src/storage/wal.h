#ifndef FLEX_STORAGE_WAL_H_
#define FLEX_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/property.h"
#include "graph/types.h"

namespace flex::storage {

/// Write-ahead log for the mutable graph store (the durability half of the
/// paper's evolving-graph story: GART keeps the working set in memory, so
/// crash consistency has to come from a log, as in ZipG's log-structured
/// store).
///
/// File layout:
///
///   [8-byte magic "FLXWAL01"]
///   frame*                       where frame =
///     [varint payload_len][u32 crc32 LE][payload_len bytes payload]
///
/// and payload =
///
///   [varint seq][u8 record_type][type-specific fields]
///
/// The CRC (slice-by-8, common/crc32.h) covers the payload only; the length
/// prefix is implicitly validated by the CRC of the bytes it delimits plus
/// the torn-tail rule below. Integers are varint/zigzag (common/varint.h);
/// doubles are 8 raw little-endian bytes (bit-exact round-trip matters for
/// the bit-identical recovery guarantee).
///
/// Batches are group-committed: every mutation record of a batch plus one
/// trailing kCommitBatch record are encoded into a single buffer and hit
/// the file with one write() + one fsync(). Replay therefore treats the
/// kCommitBatch record as the batch's atomic commit point: mutation
/// records are staged and only delivered once their commit record is read
/// intact. A tail of staged records with no commit record is an aborted
/// batch and is discarded (and truncated away by the recovery layer).
///
/// Failure taxonomy on replay:
///   - torn tail (file ends mid-frame): expected after a crash between
///     write() and fsync(); replay stops cleanly, reports the valid prefix
///     length, and the caller truncates.
///   - CRC mismatch on a complete frame: silent corruption, not a crash
///     artifact; replay fail-stops with kDataLoss (restore from a replica
///     rather than serve wrong data).
///   - duplicate record (seq <= last committed seq): idempotent replay
///     skips it, so a retried append that was already durable cannot
///     double-apply.
enum class WalRecordType : uint8_t {
  kAddVertex = 1,
  kAddEdge = 2,
  kUpdateProperty = 3,
  kDeleteEdge = 4,
  kCommitBatch = 5,
};

/// Human-readable record-type name; "Unknown" off the table. The tests walk
/// this the same way the StatusCode drift guard does, so a new record type
/// cannot be added without extending the replay switch and this table.
const char* WalRecordTypeName(WalRecordType type);

/// Decoded form of one WAL record. Fields are a union-by-convention over
/// the record types (e.g. `src` holds the vertex oid for kAddVertex and
/// kUpdateProperty, the edge source for kAddEdge/kDeleteEdge).
struct WalRecord {
  uint64_t seq = 0;  ///< Monotonic per-log sequence number.
  WalRecordType type = WalRecordType::kCommitBatch;
  label_t label = 0;  ///< Vertex label (AddVertex/UpdateProperty) or edge label.
  oid_t src = 0;      ///< Vertex oid, or edge source oid.
  oid_t dst = 0;      ///< Edge destination oid.
  double weight = 0;  ///< kAddEdge.
  int64_t ts = 0;     ///< kAddEdge.
  uint32_t col = 0;   ///< kUpdateProperty: property column index.
  version_t epoch = 0;       ///< kCommitBatch: version this batch publishes.
  uint64_t record_count = 0; ///< kCommitBatch: mutation records in the batch.
  std::vector<PropertyValue> props;  ///< kAddVertex row / kUpdateProperty[0].
};

/// Encodes `record` (seq + type + fields, no framing) onto `out`.
void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out);

/// Decodes one record payload. Fails with kDataLoss on any malformed field
/// (these bytes passed their CRC, so malformation is an encoder/decoder
/// drift bug or a deliberate corruption test, never a torn write).
Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size);

/// Wraps an encoded payload in a frame ([len][crc][payload]) onto `out`.
void AppendWalFrame(const uint8_t* payload, size_t size,
                    std::vector<uint8_t>* out);

/// Replay statistics, also the contract the recovery tests assert on.
struct WalReplayStats {
  uint64_t applied_records = 0;     ///< Mutation records delivered to apply.
  uint64_t committed_batches = 0;   ///< kCommitBatch records honoured.
  uint64_t duplicates_skipped = 0;  ///< Records with seq <= last committed.
  uint64_t dropped_tail_records = 0;  ///< Staged records with no commit.
  bool torn_tail = false;           ///< File ended mid-frame.
  uint64_t valid_bytes = 0;   ///< Prefix ending at the last commit record.
  uint64_t last_seq = 0;      ///< Highest committed seq (writer resumes +1).
};

/// Replays the log at `path`, invoking `apply` for every record of every
/// committed batch in order (mutation records first, then the
/// kCommitBatch record itself, so the callback can publish the version).
/// A missing file is an empty log, not an error. Fail-stops with
/// kDataLoss on CRC mismatch or malformed-but-CRC-valid payloads.
Result<WalReplayStats> ReplayWal(
    const std::string& path,
    const std::function<Status(const WalRecord&)>& apply);

/// Appends frames to a WAL file with explicit sync control. Not
/// thread-safe; the owning DurableStore serializes writers.
///
/// Fault sites (chaos harness):
///   "wal.append"  torn write — only a prefix of the buffer reaches the
///                 file, as when the process dies mid-write().
///   "wal.sync"    lost page cache — bytes written since the last
///                 successful Sync() vanish (ftruncate back), as when the
///                 machine dies before fsync() completes.
class WalWriter {
 public:
  /// Opens (creating if absent) the log at `path` for appending. A new
  /// file gets the magic header and an fsync. An existing file is
  /// truncated to `resume_offset` — the valid_bytes a prior ReplayWal
  /// reported — which is how torn tails are repaired.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t resume_offset);

  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends `data` (one or more complete frames) to the file.
  Status Append(const uint8_t* data, size_t size);

  /// Flushes appended bytes to stable storage (fsync).
  Status Sync();

  uint64_t offset() const { return offset_; }
  uint64_t synced_offset() const { return synced_offset_; }

 private:
  WalWriter(int fd, std::string path, uint64_t offset);

  int fd_;
  std::string path_;
  uint64_t offset_;         ///< Bytes written (possibly not yet synced).
  uint64_t synced_offset_;  ///< Bytes known durable.
};

/// Size of the magic header; a fresh log's valid_bytes.
inline constexpr uint64_t kWalHeaderSize = 8;

}  // namespace flex::storage

#endif  // FLEX_STORAGE_WAL_H_
