#include "storage/durable_store.h"

#include <bit>
#include <utility>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/varint.h"

namespace flex::storage {

namespace {

/// Applies one committed WAL record to GART. Shared between recovery
/// replay and the post-durability half of CommitBatch, so the two paths
/// cannot drift (the bit-identical guarantee depends on them being the
/// same function).
Status ApplyRecord(GartStore* gart, const WalRecord& r) {
  switch (r.type) {
    case WalRecordType::kAddVertex:
      return gart->AddVertex(r.label, r.src, r.props).status();
    case WalRecordType::kAddEdge:
      return gart->AddEdge(r.label, r.src, r.dst, r.weight, r.ts);
    case WalRecordType::kUpdateProperty:
      return gart->UpdateProperty(
          r.label, r.src, r.col,
          r.props.empty() ? PropertyValue() : r.props.front());
    case WalRecordType::kDeleteEdge:
      return gart->DeleteEdge(r.label, r.src, r.dst);
    case WalRecordType::kCommitBatch: {
      const version_t got = gart->CommitVersion();
      if (got != r.epoch) {
        return Status::DataLoss(
            "wal replay published epoch " + std::to_string(got) +
            " but the log recorded " + std::to_string(r.epoch) +
            " (the store's base state differs from the logged run)");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled WAL record type " +
                          std::to_string(static_cast<int>(r.type)));
}

}  // namespace

DurableStore::DurableStore(std::shared_ptr<GartStore> gart,
                           std::unique_ptr<WalWriter> writer,
                           WalReplayStats stats)
    : gart_(std::move(gart)),
      writer_(std::move(writer)),
      recovery_stats_(stats),
      next_seq_(stats.last_seq + 1) {}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    std::shared_ptr<GartStore> gart, const std::string& wal_path,
    trace::Trace* trace) {
  WalReplayStats stats;
  {
    trace::ScopedSpan span(trace, "storage.recover", "storage");
    auto replayed = ReplayWal(wal_path, [&](const WalRecord& r) {
      return ApplyRecord(gart.get(), r);
    });
    if (!replayed.ok()) return replayed.status();
    stats = replayed.value();
  }
  // Truncating to the last commit record repairs torn tails and drops
  // aborted-batch records; the writer resumes exactly at the durable edge.
  auto writer = WalWriter::Open(wal_path, stats.valid_bytes);
  if (!writer.ok()) return writer.status();
  return std::unique_ptr<DurableStore>(new DurableStore(
      std::move(gart), std::move(writer).value(), stats));
}

Status DurableStore::CheckWritable() const {
  if (failed_) {
    return Status::Aborted(
        "durable store fail-stopped after a commit failure; reopen to "
        "recover");
  }
  return Status::OK();
}

Status DurableStore::AppendVertex(label_t label, oid_t oid,
                                  std::vector<PropertyValue> props) {
  FLEX_RETURN_NOT_OK(CheckWritable());
  WalRecord r;
  r.type = WalRecordType::kAddVertex;
  r.label = label;
  r.src = oid;
  r.props = std::move(props);
  staged_.push_back(std::move(r));
  return Status::OK();
}

Status DurableStore::AppendEdge(label_t edge_label, oid_t src, oid_t dst,
                                double weight, int64_t ts) {
  FLEX_RETURN_NOT_OK(CheckWritable());
  WalRecord r;
  r.type = WalRecordType::kAddEdge;
  r.label = edge_label;
  r.src = src;
  r.dst = dst;
  r.weight = weight;
  r.ts = ts;
  staged_.push_back(std::move(r));
  return Status::OK();
}

Status DurableStore::UpdateProperty(label_t label, oid_t oid, uint32_t col,
                                    const PropertyValue& value) {
  FLEX_RETURN_NOT_OK(CheckWritable());
  WalRecord r;
  r.type = WalRecordType::kUpdateProperty;
  r.label = label;
  r.src = oid;
  r.col = col;
  r.props.push_back(value);
  staged_.push_back(std::move(r));
  return Status::OK();
}

Status DurableStore::RemoveEdge(label_t edge_label, oid_t src, oid_t dst) {
  FLEX_RETURN_NOT_OK(CheckWritable());
  WalRecord r;
  r.type = WalRecordType::kDeleteEdge;
  r.label = edge_label;
  r.src = src;
  r.dst = dst;
  staged_.push_back(std::move(r));
  return Status::OK();
}

Result<version_t> DurableStore::CommitBatch(const CommitOptions& options) {
  FLEX_RETURN_NOT_OK(CheckWritable());
  FLEX_RETURN_NOT_OK(
      CheckRunnable(options.deadline, options.cancel, "wal.commit"));
  if (staged_.empty()) return gart_->read_version();

  // Group commit: every record of the batch plus its commit record become
  // one buffer, one write(), one fsync() — the batch is all-or-nothing on
  // disk no matter where a crash lands.
  const version_t epoch = gart_->read_version() + 1;
  std::vector<uint8_t> buf;
  std::vector<uint8_t> payload;
  for (WalRecord& r : staged_) {
    r.seq = next_seq_++;
    payload.clear();
    EncodeWalRecord(r, &payload);
    AppendWalFrame(payload.data(), payload.size(), &buf);
  }
  WalRecord commit;
  commit.type = WalRecordType::kCommitBatch;
  commit.seq = next_seq_++;
  commit.epoch = epoch;
  commit.record_count = staged_.size();
  payload.clear();
  EncodeWalRecord(commit, &payload);
  AppendWalFrame(payload.data(), payload.size(), &buf);

  {
    trace::ScopedSpan span(options.trace, "wal.append", "storage");
    Status st = writer_->Append(buf.data(), buf.size());
    if (st.ok()) st = writer_->Sync();
    if (!st.ok()) {
      // Nothing of this batch is durable or visible; but the file may hold
      // a torn frame, so the writer contract is broken -> fail-stop.
      failed_ = true;
      return st;
    }
  }

  // Durable. Apply to memory and publish. A crash from here on loses
  // nothing: the in-memory state was never visible (epoch unpublished) and
  // recovery replays the durable batch onto a fresh store.
  for (const WalRecord& r : staged_) {
    if (FLEX_FAULT_POINT("storage.apply")) {
      failed_ = true;
      return Status::Internal("injected apply crash at seq " +
                              std::to_string(r.seq));
    }
    Status st = ApplyRecord(gart_.get(), r);
    if (!st.ok()) {
      failed_ = true;
      return st;
    }
  }
  const version_t published = gart_->CommitVersion();
  if (published != epoch) {
    failed_ = true;
    return Status::Internal("GART published epoch " +
                            std::to_string(published) + ", logged " +
                            std::to_string(epoch));
  }
  FLEX_COUNTER_ADD(metrics::kWalRecordsAppendedTotal, staged_.size());
  FLEX_COUNTER_INC(metrics::kWalBatchesCommittedTotal);
  staged_.clear();
  return epoch;
}

uint32_t SnapshotFingerprint(const grin::GrinGraph& graph) {
  uint32_t state = Crc32Init();
  std::vector<uint8_t> buf;
  const auto mix = [&state, &buf]() {
    state = Crc32Update(state, buf.data(), buf.size());
    buf.clear();
  };

  const GraphSchema& schema = graph.schema();
  for (size_t l = 0; l < schema.vertex_label_num(); ++l) {
    const auto label = static_cast<label_t>(l);
    const size_t ncols = schema.vertex_label(label).properties.size();
    PutVarint64(&buf, graph.NumVerticesOfLabel(label));
    mix();
    struct Ctx {
      const grin::GrinGraph* g;
      std::vector<uint8_t>* buf;
      size_t ncols;
    } ctx{&graph, &buf, ncols};
    graph.VisitVertices(
        label, 0, graph.NumVerticesOfLabel(label),
        [](void* c, vid_t v) {
          auto* cx = static_cast<Ctx*>(c);
          PutVarintSigned(cx->buf, cx->g->GetOid(v));
          cx->buf->push_back(cx->g->VertexLabelOf(v));
          for (size_t col = 0; col < cx->ncols; ++col) {
            const std::string text =
                cx->g->GetVertexProperty(v, col).ToString();
            PutVarint64(cx->buf, text.size());
            cx->buf->insert(cx->buf->end(), text.begin(), text.end());
          }
          return true;
        },
        &ctx);
    mix();
  }

  // Out-adjacency only: every backend mirrors each edge into its in-list,
  // so the out view already determines the full topology.
  //
  // Sources are enumerated through VisitVertices (the version-filtered
  // view), never by sweeping [0, NumVertices()): on MVCC snapshots
  // NumVertices() is the *physical* vid space, which keeps growing as
  // later epochs commit — a sweep would mix invisible vids into the hash
  // and the same pinned epoch would fingerprint differently before and
  // after unrelated commits (the HTAP revisit-an-old-epoch oracle in
  // mutation_test relies on stability).
  for (size_t el = 0; el < schema.edge_label_num(); ++el) {
    for (size_t vl = 0; vl < schema.vertex_label_num(); ++vl) {
      struct AdjCtx {
        const grin::GrinGraph* g;
        std::vector<uint8_t>* buf;
        uint32_t* state;
        label_t edge_label;
      } adj_ctx{&graph, &buf, &state, static_cast<label_t>(el)};
      const auto label = static_cast<label_t>(vl);
      graph.VisitVertices(
          label, 0, graph.NumVerticesOfLabel(label),
          [](void* c, vid_t v) {
            auto* cx = static_cast<AdjCtx*>(c);
            PutVarint64(cx->buf, v);
            cx->g->VisitAdj(
                v, Direction::kOut, cx->edge_label,
                [](void* bc, const grin::AdjChunk& chunk) {
                  auto* out = static_cast<std::vector<uint8_t>*>(bc);
                  for (size_t i = 0; i < chunk.neighbors.size(); ++i) {
                    PutVarint64(out, chunk.neighbors[i]);
                    PutVarint64(out,
                                std::bit_cast<uint64_t>(chunk.weight(i)));
                    PutVarint64(out, chunk.edge_id(i));
                  }
                  return true;
                },
                cx->buf);
            *cx->state =
                Crc32Update(*cx->state, cx->buf->data(), cx->buf->size());
            cx->buf->clear();
            return true;
          },
          &adj_ctx);
    }
  }
  return Crc32Finalize(state);
}

}  // namespace flex::storage
