#include "storage/gart/gart_store.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::storage {

namespace {

/// Stack buffer size for chunked emission of delta edges.
constexpr size_t kEmitBuf = 64;

struct Tombstone {
  vid_t nbr;
  version_t version;
  int64_t index;  ///< Append position in the delta chain.
};

/// True if an edge to `nbr` appended at delta position `index` (-1 for
/// sealed-segment edges, which predate every delta record) is killed at
/// `version`. A tombstone only kills records appended before it, so a
/// delete-then-re-add within one version batch leaves the re-add live.
bool Tombstoned(const std::vector<Tombstone>& tombs, vid_t nbr, int64_t index,
                version_t version) {
  for (const Tombstone& t : tombs) {
    if (t.nbr == nbr && t.index > index && t.version <= version) {
      return true;
    }
  }
  return false;
}

}  // namespace

GartStore::Adj::Adj(Adj&& other) noexcept
    : s_nbrs(std::move(other.s_nbrs)),
      s_weights(std::move(other.s_weights)),
      s_ts(std::move(other.s_ts)),
      s_eids(std::move(other.s_eids)),
      delta_head(other.delta_head.load(std::memory_order_relaxed)),
      delta_tail(other.delta_tail),
      has_tombstones(other.has_tombstones) {
  other.delta_head.store(nullptr, std::memory_order_relaxed);
  other.delta_tail = nullptr;
}

GartStore::GartStore(GraphSchema schema)
    : schema_(std::move(schema)),
      label_vertices_(schema_.vertex_label_num()),
      oid_index_(schema_.vertex_label_num()),
      adjacency_(schema_.edge_label_num()),
      eprops_(schema_.edge_label_num()) {
  vertex_tables_.reserve(schema_.vertex_label_num());
  for (size_t l = 0; l < schema_.vertex_label_num(); ++l) {
    vertex_tables_.emplace_back(
        schema_.vertex_label(static_cast<label_t>(l)).properties);
  }
  edge_prop_kind_.resize(schema_.edge_label_num());
  for (size_t el = 0; el < schema_.edge_label_num(); ++el) {
    for (const PropertyDef& def :
         schema_.edge_label(static_cast<label_t>(el)).properties) {
      edge_prop_kind_[el].push_back(def.type == PropertyType::kDouble ? 0 : 1);
    }
  }
  shard_locks_ = new std::mutex[kNumShards];
}

GartStore::~GartStore() {
  for (auto& per_label : adjacency_) {
    for (auto* lists : {&per_label.out, &per_label.in}) {
      for (size_t v = 0; v < lists->size(); ++v) {
        Adj& adj = (*lists)[v];
        DeltaBlock* block = adj.delta_head.load(std::memory_order_relaxed);
        while (block != nullptr) {
          DeltaBlock* next = block->next.load(std::memory_order_relaxed);
          delete block;
          block = next;
        }
      }
    }
  }
  delete[] shard_locks_;
}

Result<std::unique_ptr<GartStore>> GartStore::Create(
    const GraphSchema& schema) {
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
  return std::unique_ptr<GartStore>(new GartStore(schema));
}

Result<std::unique_ptr<GartStore>> GartStore::Build(
    const PropertyGraphData& data, bool seal) {
  FLEX_ASSIGN_OR_RETURN(std::unique_ptr<GartStore> store,
                        Create(data.schema));
  for (size_t l = 0; l < data.vertices.size(); ++l) {
    const auto& batch = data.vertices[l];
    for (size_t i = 0; i < batch.oids.size(); ++i) {
      FLEX_RETURN_NOT_OK(store
                             ->AddVertex(static_cast<label_t>(l),
                                         batch.oids[i], batch.rows[i])
                             .status());
    }
  }
  for (size_t el = 0; el < data.edges.size(); ++el) {
    const auto& batch = data.edges[el];
    const auto& kinds = store->edge_prop_kind_[el];
    for (size_t i = 0; i < batch.src_oids.size(); ++i) {
      double weight = 1.0;
      int64_t ts = 0;
      for (size_t c = 0; c < kinds.size(); ++c) {
        if (kinds[c] == 0) {
          weight = batch.rows[i][c].AsNumeric();
        } else {
          ts = batch.rows[i][c].AsInt64();
        }
      }
      FLEX_RETURN_NOT_OK(store->AddEdge(static_cast<label_t>(el),
                                        batch.src_oids[i], batch.dst_oids[i],
                                        weight, ts));
    }
  }
  store->CommitVersion();
  if (seal) store->Seal();
  return store;
}

Result<vid_t> GartStore::AddVertex(label_t label, oid_t oid,
                                   std::vector<PropertyValue> props) {
  if (label >= schema_.vertex_label_num()) {
    return Status::InvalidArgument("bad vertex label");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& index = oid_index_[label];
  if (index.count(oid) != 0) {
    return Status::AlreadyExists("vertex oid " + std::to_string(oid));
  }
  const vid_t vid = static_cast<vid_t>(oids_.size());
  FLEX_RETURN_NOT_OK(vertex_tables_[label].AppendRow(props));
  // Adjacency slots first: once the vertex publishes (oids_ size bump +
  // visibility via vertex_create_), lock-free readers may index them.
  for (auto& per_label : adjacency_) {
    per_label.out.emplace_back();
    per_label.in.emplace_back();
  }
  vertex_row_.push_back(vertex_tables_[label].num_rows() - 1);
  vertex_labels_.push_back(label);
  vertex_create_.push_back(committed_.load(std::memory_order_relaxed) + 1);
  oids_.push_back(oid);
  label_vertices_[label].push_back(vid);
  index.emplace(oid, vid);
  return vid;
}

void GartStore::AppendDelta(Adj* adj, const DeltaEdge& edge) {
  DeltaBlock* tail = adj->delta_tail;
  if (tail == nullptr) {
    tail = new DeltaBlock();
    adj->delta_tail = tail;
    adj->delta_head.store(tail, std::memory_order_release);
  }
  uint32_t count = tail->count.load(std::memory_order_relaxed);
  if (count == kDeltaBlockSize) {
    auto* fresh = new DeltaBlock();
    tail->next.store(fresh, std::memory_order_release);
    adj->delta_tail = fresh;
    tail = fresh;
    count = 0;
  }
  tail->edges[count] = edge;
  tail->count.store(count + 1, std::memory_order_release);
}

Status GartStore::AddEdge(label_t edge_label, oid_t src, oid_t dst,
                          double weight, int64_t ts) {
  if (edge_label >= schema_.edge_label_num()) {
    return Status::InvalidArgument("bad edge label");
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  const EdgeLabelDef& def = schema_.edge_label(edge_label);
  auto sit = oid_index_[def.src_label].find(src);
  if (sit == oid_index_[def.src_label].end()) {
    return Status::NotFound("edge src oid " + std::to_string(src));
  }
  auto dit = oid_index_[def.dst_label].find(dst);
  if (dit == oid_index_[def.dst_label].end()) {
    return Status::NotFound("edge dst oid " + std::to_string(dst));
  }
  const vid_t src_vid = sit->second;
  const vid_t dst_vid = dit->second;

  eid_t eid;
  {
    auto& store = eprops_[edge_label];
    std::unique_lock<std::shared_mutex> elock(store.mu);
    store.rows.emplace_back(weight, ts);
    eid = store.rows.size() - 1;
  }

  const version_t wv = committed_.load(std::memory_order_relaxed) + 1;
  DeltaEdge out_edge{dst_vid, 0, weight, ts, eid, wv};
  {
    std::lock_guard<std::mutex> shard(ShardLock(src_vid));
    AppendDelta(&AdjOf(edge_label, Direction::kOut, src_vid), out_edge);
  }
  DeltaEdge in_edge{src_vid, 0, weight, ts, eid, wv};
  {
    std::lock_guard<std::mutex> shard(ShardLock(dst_vid));
    AppendDelta(&AdjOf(edge_label, Direction::kIn, dst_vid), in_edge);
  }
  return Status::OK();
}

Status GartStore::DeleteEdge(label_t edge_label, oid_t src, oid_t dst) {
  if (edge_label >= schema_.edge_label_num()) {
    return Status::InvalidArgument("bad edge label");
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  const EdgeLabelDef& def = schema_.edge_label(edge_label);
  auto sit = oid_index_[def.src_label].find(src);
  auto dit = oid_index_[def.dst_label].find(dst);
  if (sit == oid_index_[def.src_label].end() ||
      dit == oid_index_[def.dst_label].end()) {
    return Status::NotFound("edge endpoint not found");
  }
  const version_t wv = committed_.load(std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> shard(ShardLock(sit->second));
    Adj& adj = AdjOf(edge_label, Direction::kOut, sit->second);
    AppendDelta(&adj, {dit->second, 1, 0.0, 0, 0, wv});
    adj.has_tombstones = true;
  }
  {
    std::lock_guard<std::mutex> shard(ShardLock(dit->second));
    Adj& adj = AdjOf(edge_label, Direction::kIn, dit->second);
    AppendDelta(&adj, {sit->second, 1, 0.0, 0, 0, wv});
    adj.has_tombstones = true;
  }
  return Status::OK();
}

Status GartStore::UpdateProperty(label_t label, oid_t oid, uint32_t col,
                                 const PropertyValue& value) {
  if (label >= schema_.vertex_label_num()) {
    return Status::InvalidArgument("bad vertex label");
  }
  const auto& defs = schema_.vertex_label(label).properties;
  if (col >= defs.size()) {
    return Status::InvalidArgument("property column " + std::to_string(col) +
                                   " out of range for label '" +
                                   schema_.vertex_label(label).name + "'");
  }
  if (value.type() != defs[col].type) {
    return Status::InvalidArgument(
        "property '" + defs[col].name + "' is " +
        PropertyTypeName(defs[col].type) + ", got " +
        PropertyTypeName(value.type()));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = oid_index_[label].find(oid);
  if (it == oid_index_[label].end()) {
    return Status::NotFound("vertex oid " + std::to_string(oid));
  }
  prop_updates_.push_back({it->second, col,
                           committed_.load(std::memory_order_relaxed) + 1,
                           value});
  return Status::OK();
}

version_t GartStore::CommitVersion() {
  return committed_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

void GartStore::Seal() {
  // Rewrites sealed segments in place: requires reader quiescence (class
  // comment); the lock only fences out concurrent vertex/edge writers.
  std::unique_lock<std::shared_mutex> lock(mu_);
  const version_t cutoff = committed_.load(std::memory_order_relaxed);
  for (auto& per_label : adjacency_) {
    for (auto* lists : {&per_label.out, &per_label.in}) {
      for (size_t vi = 0; vi < lists->size(); ++vi) {
        Adj& adj = (*lists)[vi];
        DeltaBlock* head = adj.delta_head.load(std::memory_order_relaxed);
        if (head == nullptr && !adj.has_tombstones) continue;

        // Gather delta records, remembering append positions.
        std::vector<std::pair<DeltaEdge, int64_t>> committed_adds;
        std::vector<DeltaEdge> pending;  // Uncommitted: survive the seal.
        std::vector<Tombstone> tombs;
        int64_t index = 0;
        for (DeltaBlock* b = head; b != nullptr;
             b = b->next.load(std::memory_order_relaxed)) {
          const uint32_t n = b->count.load(std::memory_order_relaxed);
          for (uint32_t i = 0; i < n; ++i, ++index) {
            const DeltaEdge& e = b->edges[i];
            if (e.create > cutoff) {
              pending.push_back(e);
            } else if (e.tombstone != 0) {
              tombs.push_back({e.nbr, e.create, index});
            } else {
              committed_adds.push_back({e, index});
            }
          }
        }

        // New sealed arrays: surviving sealed entries + surviving adds.
        std::vector<vid_t> nbrs;
        std::vector<double> weights;
        std::vector<int64_t> ts;
        std::vector<eid_t> eids;
        for (size_t i = 0; i < adj.s_nbrs.size(); ++i) {
          // Sealed entries predate every tombstone (create <= old seal).
          if (Tombstoned(tombs, adj.s_nbrs[i], -1, cutoff)) continue;
          nbrs.push_back(adj.s_nbrs[i]);
          weights.push_back(adj.s_weights[i]);
          ts.push_back(adj.s_ts[i]);
          eids.push_back(adj.s_eids[i]);
        }
        for (const auto& [e, pos] : committed_adds) {
          if (Tombstoned(tombs, e.nbr, pos, cutoff)) continue;
          nbrs.push_back(e.nbr);
          weights.push_back(e.weight);
          ts.push_back(e.ts);
          eids.push_back(e.eid);
        }
        adj.s_nbrs = std::move(nbrs);
        adj.s_weights = std::move(weights);
        adj.s_ts = std::move(ts);
        adj.s_eids = std::move(eids);

        // Reset the delta chain, re-appending uncommitted writes.
        DeltaBlock* block = head;
        adj.delta_head.store(nullptr, std::memory_order_relaxed);
        adj.delta_tail = nullptr;
        adj.has_tombstones = false;
        while (block != nullptr) {
          DeltaBlock* next = block->next.load(std::memory_order_relaxed);
          delete block;
          block = next;
        }
        for (const DeltaEdge& e : pending) {
          AppendDelta(&adj, e);
          if (e.tombstone != 0) adj.has_tombstones = true;
        }
      }
    }
  }
}

bool GartStore::ScanAdj(const Adj& adj, version_t version,
                        grin::AdjVisitor visitor, void* ctx) const {
  // Pass 1 (rare): collect applicable tombstones from the delta chain.
  std::vector<Tombstone> tombs;
  DeltaBlock* head = adj.delta_head.load(std::memory_order_acquire);
  if (adj.has_tombstones) {
    int64_t index = 0;
    for (DeltaBlock* b = head; b != nullptr;
         b = b->next.load(std::memory_order_acquire)) {
      const uint32_t n = b->count.load(std::memory_order_acquire);
      for (uint32_t i = 0; i < n; ++i, ++index) {
        const DeltaEdge& e = b->edges[i];
        if (e.tombstone != 0 && e.create <= version) {
          tombs.push_back({e.nbr, e.create, index});
        }
      }
    }
  }

  // Pass 2: sealed segment. Fast path: one zero-copy chunk.
  if (!adj.s_nbrs.empty()) {
    if (tombs.empty()) {
      grin::AdjChunk chunk;
      chunk.neighbors = adj.s_nbrs;
      chunk.weights = adj.s_weights;
      chunk.edge_ids = adj.s_eids;
      if (!visitor(ctx, chunk)) return false;
    } else {
      vid_t nbuf[kEmitBuf];
      double wbuf[kEmitBuf];
      eid_t ebuf[kEmitBuf];
      size_t fill = 0;
      for (size_t i = 0; i < adj.s_nbrs.size(); ++i) {
        if (Tombstoned(tombs, adj.s_nbrs[i], -1, version)) continue;
        nbuf[fill] = adj.s_nbrs[i];
        wbuf[fill] = adj.s_weights[i];
        ebuf[fill] = adj.s_eids[i];
        if (++fill == kEmitBuf) {
          grin::AdjChunk chunk{{nbuf, fill}, {wbuf, fill}, {ebuf, fill}, 0};
          if (!visitor(ctx, chunk)) return false;
          fill = 0;
        }
      }
      if (fill > 0) {
        grin::AdjChunk chunk{{nbuf, fill}, {wbuf, fill}, {ebuf, fill}, 0};
        if (!visitor(ctx, chunk)) return false;
      }
    }
  }

  // Pass 3: delta adds visible at `version`.
  if (head != nullptr) {
    vid_t nbuf[kEmitBuf];
    double wbuf[kEmitBuf];
    eid_t ebuf[kEmitBuf];
    size_t fill = 0;
    int64_t index = 0;
    for (DeltaBlock* b = head; b != nullptr;
         b = b->next.load(std::memory_order_acquire)) {
      const uint32_t n = b->count.load(std::memory_order_acquire);
      for (uint32_t i = 0; i < n; ++i, ++index) {
        const DeltaEdge& e = b->edges[i];
        if (e.tombstone != 0 || e.create > version) continue;
        if (!tombs.empty() && Tombstoned(tombs, e.nbr, index, version)) {
          continue;
        }
        nbuf[fill] = e.nbr;
        wbuf[fill] = e.weight;
        ebuf[fill] = e.eid;
        if (++fill == kEmitBuf) {
          grin::AdjChunk chunk{{nbuf, fill}, {wbuf, fill}, {ebuf, fill}, 0};
          if (!visitor(ctx, chunk)) return false;
          fill = 0;
        }
      }
    }
    if (fill > 0) {
      grin::AdjChunk chunk{{nbuf, fill}, {wbuf, fill}, {ebuf, fill}, 0};
      if (!visitor(ctx, chunk)) return false;
    }
  }
  return true;
}

size_t GartStore::CountAdj(const Adj& adj, version_t version) const {
  size_t count = 0;
  auto counter = [](void* ctx, const grin::AdjChunk& chunk) -> bool {
    *static_cast<size_t*>(ctx) += chunk.neighbors.size();
    return true;
  };
  ScanAdj(adj, version, counter, &count);
  return count;
}

size_t GartStore::num_vertices() const { return oids_.size(); }

size_t GartStore::CountEdges(label_t edge_label) const {
  const version_t version = read_version();
  const auto& out = adjacency_[edge_label].out;
  size_t total = 0;
  for (size_t v = 0; v < out.size(); ++v) {
    total += CountAdj(out[v], version);
  }
  return total;
}

// ----------------------------------------------------------- GRIN adapter

/// GRIN view of a GART snapshot. Advertises the iterator-based adjacency
/// trait (no contiguous arrays across segment boundaries) and the
/// versioned-snapshot trait; omits vertex-range and column-array traits,
/// which is exactly the capability delta vs Vineyard that the GRIN design
/// exists to negotiate (§4.1).
class GartSnapshot final : public grin::GrinGraph {
 public:
  GartSnapshot(const GartStore* store, version_t version)
      : store_(store), version_(version) {}

  std::string backend_name() const override { return "gart"; }

  uint32_t capabilities() const override {
    return grin::kAdjacentListIterator | grin::kVertexProperty |
           grin::kEdgeProperty | grin::kOidIndex | grin::kLabelIndex |
           grin::kPredicatePushdown | grin::kVersionedSnapshot;
  }

  const GraphSchema& schema() const override { return store_->schema_; }

  vid_t NumVertices() const override {
    return static_cast<vid_t>(store_->oids_.size());
  }

  vid_t NumVerticesOfLabel(label_t label) const override {
    return static_cast<vid_t>(VisibleCount(label));
  }

  label_t VertexLabelOf(vid_t v) const override {
    return store_->vertex_labels_[v];
  }

  void VisitVertices(label_t label, size_t begin, size_t end,
                     bool (*visitor)(void*, vid_t),
                     void* visitor_ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageScansTotal);
    const auto& vids = store_->label_vertices_[label];
    end = std::min(end, VisibleCount(label));
    for (size_t i = begin; i < end; ++i) {
      if (!visitor(visitor_ctx, vids[i])) return;
    }
  }

  bool VisitAdj(vid_t v, Direction dir, label_t edge_label,
                grin::AdjVisitor visitor, void* ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
    if (dir == Direction::kBoth) {
      return store_->ScanAdj(store_->AdjOf(edge_label, Direction::kOut, v),
                             version_, visitor, ctx) &&
             store_->ScanAdj(store_->AdjOf(edge_label, Direction::kIn, v),
                             version_, visitor, ctx);
    }
    return store_->ScanAdj(store_->AdjOf(edge_label, dir, v), version_,
                           visitor, ctx);
  }

  size_t Degree(vid_t v, Direction dir, label_t edge_label) const override {
    if (dir == Direction::kBoth) {
      return store_->CountAdj(store_->AdjOf(edge_label, Direction::kOut, v),
                              version_) +
             store_->CountAdj(store_->AdjOf(edge_label, Direction::kIn, v),
                              version_);
    }
    return store_->CountAdj(store_->AdjOf(edge_label, dir, v), version_);
  }

  PropertyValue GetVertexProperty(vid_t v, size_t col) const override {
    std::shared_lock<std::shared_mutex> lock(store_->mu_);
    return ResolveProperty(v, col);
  }

  /// Batched override: the scalar accessor pays a shared_lock acquisition
  /// per vertex; one acquisition amortized over the span is the dominant
  /// saving for columnar SELECT / PROJECT and for pushed filters over
  /// GART (kPredicatePushdown).
  void GetVerticesProperties(std::span<const vid_t> vids, size_t col,
                             PropertyValue* out) const override {
    std::shared_lock<std::shared_mutex> lock(store_->mu_);
    for (size_t i = 0; i < vids.size(); ++i) {
      out[i] = ResolveProperty(vids[i], col);
    }
  }

  PropertyValue GetEdgeProperty(label_t edge_label, eid_t e,
                                size_t col) const override {
    const int kind = store_->edge_prop_kind_[edge_label][col];
    auto& props = store_->eprops_[edge_label];
    std::shared_lock<std::shared_mutex> lock(props.mu);
    if (kind == 0) return PropertyValue(props.rows[e].first);
    return PropertyValue(props.rows[e].second);
  }

  Result<vid_t> FindVertex(label_t label, oid_t oid) const override {
    FLEX_COUNTER_INC(metrics::kStorageIndexLookupsTotal);
    std::shared_lock<std::shared_mutex> lock(store_->mu_);
    auto it = store_->oid_index_[label].find(oid);
    if (it == store_->oid_index_[label].end() ||
        store_->vertex_create_[it->second] > version_) {
      return Status::NotFound("vertex oid " + std::to_string(oid));
    }
    return it->second;
  }

  oid_t GetOid(vid_t v) const override { return store_->oids_[v]; }

  version_t SnapshotVersion() const override { return version_; }

 private:
  /// Newest committed-at-version_ override for (v, col) wins; the base
  /// table row is the load-time value. Caller holds store_->mu_ (shared).
  PropertyValue ResolveProperty(vid_t v, size_t col) const {
    const auto& updates = store_->prop_updates_;
    for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
      if (it->vid == v && it->col == col && it->create <= version_) {
        return it->value;
      }
    }
    const label_t label = store_->vertex_labels_[v];
    return store_->vertex_tables_[label].Get(store_->vertex_row_[v], col);
  }

  /// Vertices of `label` visible at version_ form a prefix of the label's
  /// vid list (creation versions are nondecreasing): binary search it.
  /// Lock-free: label_vertices_ entries publish after vertex_create_.
  size_t VisibleCount(label_t label) const {
    const auto& vids = store_->label_vertices_[label];
    size_t lo = 0, hi = vids.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (store_->vertex_create_[vids[mid]] <= version_) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  const GartStore* store_;
  version_t version_;
};

std::unique_ptr<grin::GrinGraph> GartStore::GetSnapshot() const {
  return GetSnapshot(read_version());
}

std::unique_ptr<grin::GrinGraph> GartStore::GetSnapshot(
    version_t version) const {
  return std::make_unique<GartSnapshot>(this, version);
}

std::unique_ptr<grin::GrinGraph> GartStore::PinSnapshot(
    version_t version) const {
  FLEX_COUNTER_INC(metrics::kStorageSnapshotsPinnedTotal);
  return GetSnapshot(version);
}

}  // namespace flex::storage
