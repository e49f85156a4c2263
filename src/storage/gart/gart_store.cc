#include "storage/gart/gart_store.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::storage {

namespace {

/// Stack buffer size for chunked emission of filtered and logged edges.
constexpr size_t kEmitBuf = 64;

/// Emits edges to an AdjVisitor through a stack buffer, kEmitBuf at a
/// time. In-edges carry no weights, as on the CSR.
class ChunkBuffer {
 public:
  ChunkBuffer(grin::AdjVisitor visitor, void* ctx, bool weighted)
      : visitor_(visitor), ctx_(ctx), weighted_(weighted) {}

  /// False once the visitor has stopped.
  bool Add(vid_t nbr, double weight, eid_t eid) {
    nbrs_[fill_] = nbr;
    weights_[fill_] = weight;
    eids_[fill_] = eid;
    return ++fill_ < kEmitBuf || Flush();
  }

  bool Flush() {
    if (fill_ == 0) return true;
    const grin::AdjChunk chunk{
        {nbrs_, fill_},
        weighted_ ? std::span<const double>(weights_, fill_)
                  : std::span<const double>(),
        {eids_, fill_}};
    fill_ = 0;
    return visitor_(ctx_, chunk);
  }

 private:
  grin::AdjVisitor visitor_;
  void* ctx_;
  bool weighted_;
  size_t fill_ = 0;
  vid_t nbrs_[kEmitBuf];
  double weights_[kEmitBuf];
  eid_t eids_[kEmitBuf];
};

/// Log record ids and override indexes are 1-based uint32 links (0 ends a
/// chain), so each log and the override list hold at most this many.
constexpr size_t kMaxRecordId = std::numeric_limits<uint32_t>::max();

uint64_t OverrideKey(vid_t v, size_t col) {
  return static_cast<uint64_t>(v) << 32 | col;
}

}  // namespace

GartStore::GartStore(std::unique_ptr<VineyardStore> base)
    : base_(std::move(base)),
      base_vertices_(base_->topology().num_vertices()),
      logs_(new EdgeLog[schema().edge_label_num()]),
      label_added_(schema().vertex_label_num()),
      oid_index_(schema().vertex_label_num()) {
  const GraphSchema& s = schema();
  added_tables_.reserve(s.vertex_label_num());
  for (size_t l = 0; l < s.vertex_label_num(); ++l) {
    added_tables_.emplace_back(
        s.vertex_label(static_cast<label_t>(l)).properties);
  }
  edge_prop_kind_.resize(s.edge_label_num());
  for (size_t el = 0; el < s.edge_label_num(); ++el) {
    const auto label = static_cast<label_t>(el);
    for (const PropertyDef& def : s.edge_label(label).properties) {
      edge_prop_kind_[el].push_back(def.type == PropertyType::kDouble ? 0 : 1);
    }
    logs_[el].base_edges = topology().Offsets(label, Direction::kOut).back();
  }
}

Result<std::unique_ptr<GartStore>> GartStore::FromData(
    const PropertyGraphData& data) {
  const GraphSchema& schema = data.schema;
  for (size_t el = 0; el < schema.edge_label_num(); ++el) {
    int doubles = 0, ints = 0;
    for (const PropertyDef& def :
         schema.edge_label(static_cast<label_t>(el)).properties) {
      if (def.type == PropertyType::kDouble) {
        ++doubles;
      } else if (def.type == PropertyType::kInt64) {
        ++ints;
      } else {
        return Status::Unimplemented(
            "GART stores only double/int64 edge properties inline; edge "
            "label '" +
            schema.edge_label(static_cast<label_t>(el)).name +
            "' declares a " + PropertyTypeName(def.type) + " property");
      }
    }
    if (doubles > 1 || ints > 1) {
      return Status::Unimplemented(
          "GART supports at most one double and one int64 edge property");
    }
  }
  FLEX_ASSIGN_OR_RETURN(std::unique_ptr<VineyardStore> base,
                        VineyardStore::Build(data));
  return std::unique_ptr<GartStore>(new GartStore(std::move(base)));
}

Result<std::unique_ptr<GartStore>> GartStore::Create(
    const GraphSchema& schema) {
  PropertyGraphData empty;
  empty.schema = schema;
  return FromData(empty);
}

Result<std::unique_ptr<GartStore>> GartStore::Build(
    const PropertyGraphData& data) {
  FLEX_ASSIGN_OR_RETURN(std::unique_ptr<GartStore> store, FromData(data));
  store->CommitVersion();
  return store;
}

// ------------------------------------------------------------------ writes

vid_t GartStore::FindForWrite(label_t label, oid_t oid) const {
  const vid_t v = topology().Lookup(label, oid);
  if (v != kInvalidVid) return v;
  const auto& index = oid_index_[label];
  const auto it = index.find(oid);
  return it == index.end() ? kInvalidVid : it->second;
}

Result<vid_t> GartStore::AddVertex(label_t label, oid_t oid,
                                   std::vector<PropertyValue> props) {
  if (label >= schema().vertex_label_num()) {
    return Status::InvalidArgument("bad vertex label");
  }
  MutexLock writer(&write_mu_);
  if (FindForWrite(label, oid) != kInvalidVid) {
    return Status::AlreadyExists("vertex oid " + std::to_string(oid));
  }
  if (added_.size() >= kInvalidVid - base_vertices_) {
    return Status::ResourceExhausted("GART vertex ids are used up");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  PropertyTable& table = added_tables_[label];
  FLEX_RETURN_NOT_OK(table.AppendRow(props));
  const vid_t vid = base_vertices_ + static_cast<vid_t>(added_.size());
  // Published before the label list and the index, which readers reach
  // it through.
  added_.push_back({oid, committed_.load(std::memory_order_relaxed) + 1,
                    static_cast<uint32_t>(table.num_rows() - 1), label});
  label_added_[label].push_back(vid);
  oid_index_[label].emplace(oid, vid);
  return vid;
}

Status GartStore::Append(label_t edge_label, Record record) {
  EdgeLog& log = logs_[edge_label];
  if (log.records.size() >= kMaxRecordId) {
    return Status::ResourceExhausted("GART log record ids of edge label " +
                                     std::to_string(edge_label) +
                                     " are used up");
  }
  const EdgeLabelDef& def = schema().edge_label(edge_label);
  const auto slot = [](StableVector<std::atomic<uint32_t>>* heads,
                       vid_t pos) -> std::atomic<uint32_t>& {
    while (heads->size() <= pos) heads->emplace_back();
    return (*heads)[pos];
  };
  std::atomic<uint32_t>& out =
      slot(&log.out_heads, PositionIn(def.src_label, record.src));
  std::atomic<uint32_t>& in =
      slot(&log.in_heads, PositionIn(def.dst_label, record.dst));
  record.next_out = out.load(std::memory_order_relaxed);
  record.next_in = in.load(std::memory_order_relaxed);
  if (record.tombstone) log.has_tombstones.store(true, std::memory_order_relaxed);
  log.records.push_back(record);
  const auto id = static_cast<uint32_t>(log.records.size());
  out.store(id, std::memory_order_release);
  in.store(id, std::memory_order_release);
  return Status::OK();
}

Status GartStore::AddEdge(label_t edge_label, oid_t src, oid_t dst,
                          double weight, int64_t ts) {
  if (edge_label >= schema().edge_label_num()) {
    return Status::InvalidArgument("bad edge label");
  }
  const EdgeLabelDef& def = schema().edge_label(edge_label);
  MutexLock writer(&write_mu_);
  const vid_t src_vid = FindForWrite(def.src_label, src);
  if (src_vid == kInvalidVid) {
    return Status::NotFound("edge src oid " + std::to_string(src));
  }
  const vid_t dst_vid = FindForWrite(def.dst_label, dst);
  if (dst_vid == kInvalidVid) {
    return Status::NotFound("edge dst oid " + std::to_string(dst));
  }
  return Append(edge_label,
                {src_vid, dst_vid, 0, 0, weight, ts,
                 committed_.load(std::memory_order_relaxed) + 1, false});
}

Status GartStore::DeleteEdge(label_t edge_label, oid_t src, oid_t dst) {
  if (edge_label >= schema().edge_label_num()) {
    return Status::InvalidArgument("bad edge label");
  }
  const EdgeLabelDef& def = schema().edge_label(edge_label);
  MutexLock writer(&write_mu_);
  const vid_t src_vid = FindForWrite(def.src_label, src);
  const vid_t dst_vid = FindForWrite(def.dst_label, dst);
  if (src_vid == kInvalidVid || dst_vid == kInvalidVid) {
    return Status::NotFound("edge endpoint not found");
  }
  return Append(edge_label,
                {src_vid, dst_vid, 0, 0, 0.0, 0,
                 committed_.load(std::memory_order_relaxed) + 1, true});
}

Status GartStore::UpdateProperty(label_t label, oid_t oid, uint32_t col,
                                 const PropertyValue& value) {
  if (label >= schema().vertex_label_num()) {
    return Status::InvalidArgument("bad vertex label");
  }
  const VertexLabelDef& def = schema().vertex_label(label);
  if (col >= def.properties.size()) {
    return Status::InvalidArgument("property column " + std::to_string(col) +
                                   " out of range for label '" + def.name +
                                   "'");
  }
  const PropertyDef& prop = def.properties[col];
  if (value.type() != prop.type) {
    return Status::InvalidArgument(
        "property '" + prop.name + "' is " + PropertyTypeName(prop.type) +
        ", got " + PropertyTypeName(value.type()));
  }
  MutexLock writer(&write_mu_);
  const vid_t vid = FindForWrite(label, oid);
  if (vid == kInvalidVid) {
    return Status::NotFound("vertex oid " + std::to_string(oid));
  }
  if (overrides_.size() >= kMaxRecordId) {
    return Status::ResourceExhausted("GART property override ids are used up");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  uint32_t& head = override_heads_[OverrideKey(vid, col)];
  overrides_.push_back(
      {value, committed_.load(std::memory_order_relaxed) + 1, head});
  head = static_cast<uint32_t>(overrides_.size());
  return Status::OK();
}

version_t GartStore::CommitVersion() {
  return committed_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

// ------------------------------------------------------------------- reads

vid_t GartStore::PositionIn(label_t label, vid_t v) const {
  const auto [first, last] = topology().VertexRange(label);
  if (v < base_vertices_) {
    return v >= first && v < last ? v - first : kInvalidVid;
  }
  const AddedVertex& added = added_[v - base_vertices_];
  return added.label == label ? (last - first) + added.row : kInvalidVid;
}

uint32_t GartStore::Head(label_t edge_label, Direction dir, vid_t v) const {
  const EdgeLabelDef& def = schema().edge_label(edge_label);
  const EdgeLog& log = logs_[edge_label];
  const bool out = dir == Direction::kOut;
  const vid_t pos = PositionIn(out ? def.src_label : def.dst_label, v);
  const auto& heads = out ? log.out_heads : log.in_heads;
  return pos < heads.size() ? heads[pos].load(std::memory_order_acquire) : 0;
}

bool GartStore::ScanAdj(vid_t v, Direction dir, label_t edge_label,
                        version_t version, grin::AdjVisitor visitor,
                        void* ctx) const {
  const grin::AdjChunk base = v < base_vertices_
                                  ? topology().Adjacency(v, dir, edge_label)
                                  : grin::AdjChunk{};
  const uint32_t head = Head(edge_label, dir, v);
  if (head == 0) return base.neighbors.empty() || visitor(ctx, base);

  const EdgeLog& log = logs_[edge_label];
  const bool out = dir == Direction::kOut;
  const auto nbr = [out](const Record& r) { return out ? r.dst : r.src; };
  const auto next = [out](const Record& r) {
    return out ? r.next_out : r.next_in;
  };
  // Tombstones visible at `version`, with their record ids. A tombstone
  // kills the edges to its neighbor with smaller ids, base edges (id 0)
  // included.
  std::vector<std::pair<vid_t, uint32_t>> tombs;
  if (log.has_tombstones.load(std::memory_order_relaxed)) {
    for (uint32_t id = head; id != 0; id = next(log.records[id - 1])) {
      const Record& r = log.records[id - 1];
      if (r.tombstone && r.create <= version) tombs.emplace_back(nbr(r), id);
    }
  }
  const auto killed = [&tombs](vid_t n, uint32_t id) {
    for (const auto& [t, tid] : tombs) {
      if (t == n && tid > id) return true;
    }
    return false;
  };

  ChunkBuffer buffer(visitor, ctx, out);
  if (tombs.empty()) {
    if (!base.neighbors.empty() && !visitor(ctx, base)) return false;
  } else {
    for (size_t i = 0; i < base.neighbors.size(); ++i) {
      if (killed(base.neighbors[i], 0)) continue;
      if (!buffer.Add(base.neighbors[i], base.weight(i), base.edge_id(i))) {
        return false;
      }
    }
  }
  for (uint32_t id = head; id != 0; id = next(log.records[id - 1])) {
    const Record& r = log.records[id - 1];
    if (r.tombstone || r.create > version || killed(nbr(r), id)) continue;
    if (!buffer.Add(nbr(r), r.weight, log.base_edges + id - 1)) return false;
  }
  return buffer.Flush();
}

size_t GartStore::CountAdj(vid_t v, Direction dir, label_t edge_label,
                           version_t version) const {
  size_t count = 0;
  auto counter = [](void* ctx, const grin::AdjChunk& chunk) -> bool {
    *static_cast<size_t*>(ctx) += chunk.neighbors.size();
    return true;
  };
  ScanAdj(v, dir, edge_label, version, counter, &count);
  return count;
}

PropertyValue GartStore::VertexProperty(vid_t v, size_t col,
                                        version_t version) const {
  if (!override_heads_.empty()) {
    const auto it = override_heads_.find(OverrideKey(v, col));
    if (it != override_heads_.end()) {
      for (uint32_t i = it->second; i != 0; i = overrides_[i - 1].next) {
        if (overrides_[i - 1].create <= version) return overrides_[i - 1].value;
      }
    }
  }
  if (v < base_vertices_) {
    const label_t label = topology().VertexLabelOf(v);
    return base_->vertex_table(label).Get(
        v - topology().VertexRange(label).first, col);
  }
  const AddedVertex& added = added_[v - base_vertices_];
  return added_tables_[added.label].Get(added.row, col);
}

PropertyValue GartStore::EdgeProperty(label_t edge_label, eid_t e,
                                      size_t col) const {
  const EdgeLog& log = logs_[edge_label];
  if (e < log.base_edges) return base_->edge_table(edge_label).Get(e, col);
  const Record& r = log.records[e - log.base_edges];
  return edge_prop_kind_[edge_label][col] == 0 ? PropertyValue(r.weight)
                                                : PropertyValue(r.ts);
}

size_t GartStore::num_vertices() const {
  return base_vertices_ + added_.size();
}

size_t GartStore::CountEdges(label_t edge_label) const {
  const auto snapshot = GetSnapshot();
  struct Ctx {
    const GartStore* store;
    label_t edge_label;
    version_t version;
    size_t total;
  } ctx{this, edge_label, snapshot->SnapshotVersion(), 0};
  const label_t src = schema().edge_label(edge_label).src_label;
  snapshot->VisitVertices(
      src, 0, snapshot->NumVerticesOfLabel(src),
      [](void* raw, vid_t v) {
        auto* c = static_cast<Ctx*>(raw);
        c->total +=
            c->store->CountAdj(v, Direction::kOut, c->edge_label, c->version);
        return true;
      },
      &ctx);
  return ctx.total;
}

// ----------------------------------------------------------- GRIN adapter

/// GRIN view of a GART snapshot. Advertises the iterator-based adjacency
/// trait (a vertex with logged edges emits several chunks) and the
/// versioned-snapshot trait; omits the vertex-range and column-array
/// traits, since added vertices follow the base rather than their label's
/// range — exactly the capability delta vs Vineyard that the GRIN design
/// exists to negotiate (§4.1).
class GartSnapshot final : public grin::GrinGraph {
 public:
  GartSnapshot(const GartStore* store, version_t version)
      : store_(store), version_(version) {}

  std::string backend_name() const override { return "gart"; }

  uint32_t capabilities() const override {
    return grin::kAdjacentListIterator | grin::kVertexProperty |
           grin::kEdgeProperty | grin::kOidIndex | grin::kLabelIndex |
           grin::kVersionedSnapshot;
  }

  const GraphSchema& schema() const override { return store_->schema(); }

  vid_t NumVertices() const override {
    return static_cast<vid_t>(store_->num_vertices());
  }

  vid_t NumVerticesOfLabel(label_t label) const override {
    return static_cast<vid_t>(VisibleCount(label));
  }

  label_t VertexLabelOf(vid_t v) const override { return store_->LabelOf(v); }

  void VisitVertices(label_t label, size_t begin, size_t end,
                     bool (*visitor)(void*, vid_t),
                     void* visitor_ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageScansTotal);
    const auto [first, last] = store_->topology().VertexRange(label);
    const size_t base = last - first;
    const auto& added = store_->label_added_[label];
    end = std::min(end, VisibleCount(label));
    for (size_t i = begin; i < end; ++i) {
      const vid_t v =
          i < base ? first + static_cast<vid_t>(i) : added[i - base];
      if (!visitor(visitor_ctx, v)) return;
    }
  }

  bool VisitAdj(vid_t v, Direction dir, label_t edge_label,
                grin::AdjVisitor visitor, void* ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
    if (dir == Direction::kBoth) {
      return store_->ScanAdj(v, Direction::kOut, edge_label, version_,
                             visitor, ctx) &&
             store_->ScanAdj(v, Direction::kIn, edge_label, version_,
                             visitor, ctx);
    }
    return store_->ScanAdj(v, dir, edge_label, version_, visitor, ctx);
  }

  size_t Degree(vid_t v, Direction dir, label_t edge_label) const override {
    if (dir == Direction::kBoth) {
      return store_->CountAdj(v, Direction::kOut, edge_label, version_) +
             store_->CountAdj(v, Direction::kIn, edge_label, version_);
    }
    return store_->CountAdj(v, dir, edge_label, version_);
  }

  PropertyValue GetVertexProperty(vid_t v, size_t col) const override {
    std::shared_lock<std::shared_mutex> lock(store_->mu_);
    return store_->VertexProperty(v, col, version_);
  }

  /// One shared-lock acquisition for the whole span instead of one per
  /// vertex.
  void GetVerticesProperties(std::span<const vid_t> vids, size_t col,
                             PropertyValue* out) const override {
    std::shared_lock<std::shared_mutex> lock(store_->mu_);
    for (size_t i = 0; i < vids.size(); ++i) {
      out[i] = store_->VertexProperty(vids[i], col, version_);
    }
  }

  PropertyValue GetEdgeProperty(label_t edge_label, eid_t e,
                                size_t col) const override {
    return store_->EdgeProperty(edge_label, e, col);
  }

  Result<vid_t> FindVertex(label_t label, oid_t oid) const override {
    FLEX_COUNTER_INC(metrics::kStorageIndexLookupsTotal);
    const vid_t base = store_->topology().Lookup(label, oid);
    if (base != kInvalidVid) return base;
    std::shared_lock<std::shared_mutex> lock(store_->mu_);
    const auto& index = store_->oid_index_[label];
    const auto it = index.find(oid);
    if (it == index.end() ||
        store_->added_[it->second - store_->base_vertices_].create >
            version_) {
      return Status::NotFound("vertex oid " + std::to_string(oid));
    }
    return it->second;
  }

  oid_t GetOid(vid_t v) const override {
    return v < store_->base_vertices_
               ? store_->topology().GetOid(v)
               : store_->added_[v - store_->base_vertices_].oid;
  }

  version_t SnapshotVersion() const override { return version_; }

 private:
  /// Vertices of `label` visible at version_: the whole base, then the
  /// prefix of the added list created by version_ (creation versions are
  /// nondecreasing), found by binary search. Lock-free: an added vid is
  /// listed only after its vertex publishes.
  size_t VisibleCount(label_t label) const {
    const auto [first, last] = store_->topology().VertexRange(label);
    const auto& vids = store_->label_added_[label];
    size_t lo = 0, hi = vids.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (store_->added_[vids[mid] - store_->base_vertices_].create <=
          version_) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return (last - first) + lo;
  }

  const GartStore* store_;
  version_t version_;
};

std::unique_ptr<grin::GrinGraph> GartStore::GetSnapshot() const {
  return GetSnapshot(read_version());
}

std::unique_ptr<grin::GrinGraph> GartStore::GetSnapshot(
    version_t version) const {
  FLEX_COUNTER_INC(metrics::kStorageSnapshotsPinnedTotal);
  return std::make_unique<GartSnapshot>(this, version);
}

}  // namespace flex::storage
