#include "storage/graphar/graphar.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/varint.h"
#include "storage/graphar/encoding.h"

namespace flex::storage::graphar {

namespace {

constexpr char kHeadMagic[4] = {'G', 'A', 'R', '1'};
constexpr char kFootMagic[4] = {'G', 'A', 'R', 'F'};

void PutBytes(std::vector<uint8_t>* out, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + n);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutVarint64(out, s.size());
  PutBytes(out, s.data(), s.size());
}

bool GetString(std::span<const uint8_t> buf, size_t* pos, std::string* out) {
  uint64_t len;
  if (!GetVarint64(buf.data(), buf.size(), pos, &len)) return false;
  if (*pos + len > buf.size()) return false;
  out->assign(reinterpret_cast<const char*>(buf.data()) + *pos, len);
  *pos += len;
  return true;
}

/// Column section layout: varint total_rows, varint nchunks, then per
/// chunk: varint nrows, varint nbytes, payload bytes.
struct ChunkRef {
  size_t nrows;
  std::span<const uint8_t> bytes;
};

struct ParsedSection {
  size_t total_rows = 0;
  std::vector<ChunkRef> chunks;
};

Result<ParsedSection> ParseChunks(std::span<const uint8_t> section) {
  ParsedSection parsed;
  size_t pos = 0;
  uint64_t total_rows, nchunks;
  if (!GetVarint64(section.data(), section.size(), &pos, &total_rows) ||
      !GetVarint64(section.data(), section.size(), &pos, &nchunks)) {
    return Status::IoError("corrupt section header");
  }
  parsed.total_rows = total_rows;
  parsed.chunks.reserve(nchunks);
  for (uint64_t c = 0; c < nchunks; ++c) {
    uint64_t nrows, nbytes;
    if (!GetVarint64(section.data(), section.size(), &pos, &nrows) ||
        !GetVarint64(section.data(), section.size(), &pos, &nbytes) ||
        pos + nbytes > section.size()) {
      return Status::IoError("corrupt chunk header");
    }
    parsed.chunks.push_back({nrows, section.subspan(pos, nbytes)});
    pos += nbytes;
  }
  return parsed;
}

/// Serializes one column as a chunked section.
std::vector<uint8_t> BuildColumnSection(const PropertyColumn& column,
                                        size_t chunk_size) {
  std::vector<uint8_t> out;
  const size_t rows = column.size();
  const size_t nchunks = (rows + chunk_size - 1) / chunk_size;
  PutVarint64(&out, rows);
  PutVarint64(&out, nchunks);
  std::vector<uint8_t> payload;
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(rows, begin + chunk_size);
    payload.clear();
    EncodeColumnChunk(column, begin, end, &payload);
    PutVarint64(&out, end - begin);
    PutVarint64(&out, payload.size());
    PutBytes(&out, payload.data(), payload.size());
  }
  return out;
}

std::vector<uint8_t> BuildInt64Section(std::span<const int64_t> values,
                                       size_t chunk_size) {
  std::vector<uint8_t> out;
  const size_t rows = values.size();
  const size_t nchunks = (rows + chunk_size - 1) / chunk_size;
  PutVarint64(&out, rows);
  PutVarint64(&out, nchunks);
  std::vector<uint8_t> payload;
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(rows, begin + chunk_size);
    payload.clear();
    EncodeInt64Chunk(values.subspan(begin, end - begin), &payload);
    PutVarint64(&out, end - begin);
    PutVarint64(&out, payload.size());
    PutBytes(&out, payload.data(), payload.size());
  }
  return out;
}

std::vector<uint8_t> BuildSchemaSection(const GraphSchema& schema) {
  std::vector<uint8_t> out;
  PutVarint64(&out, schema.vertex_label_num());
  for (size_t l = 0; l < schema.vertex_label_num(); ++l) {
    const auto& def = schema.vertex_label(static_cast<label_t>(l));
    PutString(&out, def.name);
    PutVarint64(&out, def.properties.size());
    for (const auto& prop : def.properties) {
      PutString(&out, prop.name);
      out.push_back(static_cast<uint8_t>(prop.type));
    }
  }
  PutVarint64(&out, schema.edge_label_num());
  for (size_t l = 0; l < schema.edge_label_num(); ++l) {
    const auto& def = schema.edge_label(static_cast<label_t>(l));
    PutString(&out, def.name);
    out.push_back(def.src_label);
    out.push_back(def.dst_label);
    PutVarint64(&out, def.properties.size());
    for (const auto& prop : def.properties) {
      PutString(&out, prop.name);
      out.push_back(static_cast<uint8_t>(prop.type));
    }
  }
  return out;
}

Status ParseSchemaSection(std::span<const uint8_t> buf, GraphSchema* schema) {
  size_t pos = 0;
  uint64_t nv;
  if (!GetVarint64(buf.data(), buf.size(), &pos, &nv)) {
    return Status::IoError("corrupt schema");
  }
  for (uint64_t l = 0; l < nv; ++l) {
    std::string name;
    uint64_t nprops;
    if (!GetString(buf, &pos, &name) ||
        !GetVarint64(buf.data(), buf.size(), &pos, &nprops)) {
      return Status::IoError("corrupt schema vertex label");
    }
    std::vector<PropertyDef> props;
    for (uint64_t p = 0; p < nprops; ++p) {
      std::string pname;
      if (!GetString(buf, &pos, &pname) || pos >= buf.size()) {
        return Status::IoError("corrupt schema property");
      }
      props.push_back({pname, static_cast<PropertyType>(buf[pos++])});
    }
    FLEX_RETURN_NOT_OK(schema->AddVertexLabel(name, std::move(props)).status());
  }
  uint64_t ne;
  if (!GetVarint64(buf.data(), buf.size(), &pos, &ne)) {
    return Status::IoError("corrupt schema");
  }
  for (uint64_t l = 0; l < ne; ++l) {
    std::string name;
    if (!GetString(buf, &pos, &name) || pos + 2 > buf.size()) {
      return Status::IoError("corrupt schema edge label");
    }
    const label_t src = buf[pos++];
    const label_t dst = buf[pos++];
    uint64_t nprops;
    if (!GetVarint64(buf.data(), buf.size(), &pos, &nprops)) {
      return Status::IoError("corrupt schema edge label");
    }
    std::vector<PropertyDef> props;
    for (uint64_t p = 0; p < nprops; ++p) {
      std::string pname;
      if (!GetString(buf, &pos, &pname) || pos >= buf.size()) {
        return Status::IoError("corrupt schema property");
      }
      props.push_back({pname, static_cast<PropertyType>(buf[pos++])});
    }
    FLEX_RETURN_NOT_OK(
        schema->AddEdgeLabel(name, src, dst, std::move(props)).status());
  }
  return Status::OK();
}

}  // namespace

Status WriteGraphAr(const std::string& path, const PropertyGraphData& data,
                    size_t chunk_size) {
  if (chunk_size == 0) return Status::InvalidArgument("chunk_size == 0");
  std::vector<uint8_t> buf(kHeadMagic, kHeadMagic + 4);
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> dir;
  auto add_section = [&](const std::string& name, std::vector<uint8_t> bytes) {
    dir.emplace_back(name, std::make_pair<uint64_t, uint64_t>(buf.size(),
                                                              bytes.size()));
    PutBytes(&buf, bytes.data(), bytes.size());
  };

  add_section("schema", BuildSchemaSection(data.schema));

  // ---- Vertex sections.
  for (size_t l = 0; l < data.schema.vertex_label_num(); ++l) {
    const auto& def = data.schema.vertex_label(static_cast<label_t>(l));
    static const PropertyGraphData::VertexBatch kEmptyV;
    const auto& batch = l < data.vertices.size() ? data.vertices[l] : kEmptyV;
    const std::string base = "v/" + def.name + "/";
    std::vector<int64_t> oids(batch.oids.begin(), batch.oids.end());
    add_section(base + "oid", BuildInt64Section(oids, chunk_size));
    // Columnarize rows, then chunk-encode.
    PropertyTable table(def.properties);
    for (const auto& row : batch.rows) {
      FLEX_RETURN_NOT_OK(table.AppendRow(row));
    }
    for (size_t c = 0; c < def.properties.size(); ++c) {
      add_section(base + "p" + std::to_string(c),
                  BuildColumnSection(table.column(c), chunk_size));
    }
  }

  // ---- Edge sections (sorted by (src, dst) with a per-chunk src index).
  for (size_t l = 0; l < data.schema.edge_label_num(); ++l) {
    const auto& def = data.schema.edge_label(static_cast<label_t>(l));
    static const PropertyGraphData::EdgeBatch kEmptyE;
    const auto& batch = l < data.edges.size() ? data.edges[l] : kEmptyE;
    const std::string base = "e/" + def.name + "/";
    const size_t m = batch.src_oids.size();
    std::vector<size_t> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (batch.src_oids[a] != batch.src_oids[b]) {
        return batch.src_oids[a] < batch.src_oids[b];
      }
      return batch.dst_oids[a] < batch.dst_oids[b];
    });
    std::vector<int64_t> src(m), dst(m);
    for (size_t i = 0; i < m; ++i) {
      src[i] = batch.src_oids[order[i]];
      dst[i] = batch.dst_oids[order[i]];
    }
    add_section(base + "src", BuildInt64Section(src, chunk_size));
    add_section(base + "dst", BuildInt64Section(dst, chunk_size));

    PropertyTable table(def.properties);
    for (size_t i = 0; i < m; ++i) {
      FLEX_RETURN_NOT_OK(table.AppendRow(batch.rows[order[i]]));
    }
    for (size_t c = 0; c < def.properties.size(); ++c) {
      add_section(base + "p" + std::to_string(c),
                  BuildColumnSection(table.column(c), chunk_size));
    }

    // Chunk index: [min_src, max_src] per chunk.
    std::vector<uint8_t> idx;
    const size_t nchunks = (m + chunk_size - 1) / chunk_size;
    PutVarint64(&idx, nchunks);
    for (size_t c = 0; c < nchunks; ++c) {
      const size_t begin = c * chunk_size;
      const size_t end = std::min(m, begin + chunk_size);
      PutVarintSigned(&idx, src[begin]);
      PutVarintSigned(&idx, src[end - 1]);
    }
    add_section(base + "idx", std::move(idx));
  }

  // ---- Directory + footer.
  const uint64_t dir_offset = buf.size();
  PutVarint64(&buf, dir.size());
  for (const auto& [name, extent] : dir) {
    PutString(&buf, name);
    PutVarint64(&buf, extent.first);
    PutVarint64(&buf, extent.second);
  }
  PutBytes(&buf, &dir_offset, sizeof(dir_offset));
  PutBytes(&buf, kFootMagic, 4);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<std::unique_ptr<GraphArReader>> GraphArReader::Open(
    const std::string& path) {
  auto reader = std::unique_ptr<GraphArReader>(new GraphArReader());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  reader->file_.resize(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(reader->file_.data()), size);
  if (!in) return Status::IoError("short read from " + path);

  const auto& f = reader->file_;
  if (f.size() < 16 || std::memcmp(f.data(), kHeadMagic, 4) != 0 ||
      std::memcmp(f.data() + f.size() - 4, kFootMagic, 4) != 0) {
    return Status::IoError("not a GraphAr file: " + path);
  }
  uint64_t dir_offset;
  std::memcpy(&dir_offset, f.data() + f.size() - 12, sizeof(dir_offset));
  if (dir_offset >= f.size()) return Status::IoError("corrupt footer");
  size_t pos = dir_offset;
  uint64_t nsections;
  if (!GetVarint64(f.data(), f.size(), &pos, &nsections)) {
    return Status::IoError("corrupt directory");
  }
  for (uint64_t i = 0; i < nsections; ++i) {
    std::string name;
    uint64_t offset, length;
    if (!GetString({f.data(), f.size()}, &pos, &name) ||
        !GetVarint64(f.data(), f.size(), &pos, &offset) ||
        !GetVarint64(f.data(), f.size(), &pos, &length) ||
        offset + length > f.size()) {
      return Status::IoError("corrupt directory entry");
    }
    reader->directory_[name] = {offset, length};
  }
  FLEX_ASSIGN_OR_RETURN(auto schema_bytes, reader->Section("schema"));
  FLEX_RETURN_NOT_OK(ParseSchemaSection(schema_bytes, &reader->schema_));
  return reader;
}

Result<std::span<const uint8_t>> GraphArReader::Section(
    const std::string& name) const {
  auto it = directory_.find(name);
  if (it == directory_.end()) {
    return Status::NotFound("archive section: " + name);
  }
  return std::span<const uint8_t>(file_.data() + it->second.first,
                                  it->second.second);
}

Result<size_t> GraphArReader::DecodeWholeColumn(const std::string& section,
                                                PropertyColumn* column) const {
  FLEX_ASSIGN_OR_RETURN(auto bytes, Section(section));
  FLEX_ASSIGN_OR_RETURN(ParsedSection parsed, ParseChunks(bytes));
  for (const ChunkRef& chunk : parsed.chunks) {
    FLEX_RETURN_NOT_OK(DecodeColumnChunk(chunk.bytes, chunk.nrows, column));
  }
  return parsed.total_rows;
}

Result<std::vector<int64_t>> GraphArReader::DecodeInt64Section(
    const std::string& section) const {
  FLEX_ASSIGN_OR_RETURN(auto bytes, Section(section));
  FLEX_ASSIGN_OR_RETURN(ParsedSection parsed, ParseChunks(bytes));
  std::vector<int64_t> values;
  values.reserve(parsed.total_rows);
  for (const ChunkRef& chunk : parsed.chunks) {
    FLEX_RETURN_NOT_OK(DecodeInt64Chunk(chunk.bytes, chunk.nrows, &values));
  }
  return values;
}

Result<PropertyGraphData> GraphArReader::ReadAll() const {
  PropertyGraphData data;
  data.schema = schema_;
  data.vertices.resize(schema_.vertex_label_num());
  data.edges.resize(schema_.edge_label_num());

  for (size_t l = 0; l < schema_.vertex_label_num(); ++l) {
    const auto& def = schema_.vertex_label(static_cast<label_t>(l));
    const std::string base = "v/" + def.name + "/";
    FLEX_ASSIGN_OR_RETURN(auto oids, DecodeInt64Section(base + "oid"));
    auto& batch = data.vertices[l];
    batch.oids.assign(oids.begin(), oids.end());
    PropertyTable table(def.properties);
    for (size_t c = 0; c < def.properties.size(); ++c) {
      FLEX_RETURN_NOT_OK(
          DecodeWholeColumn(base + "p" + std::to_string(c), &table.column(c))
              .status());
    }
    batch.rows.reserve(oids.size());
    for (size_t row = 0; row < oids.size(); ++row) {
      batch.rows.push_back(table.GetRow(row));
    }
  }

  for (size_t l = 0; l < schema_.edge_label_num(); ++l) {
    const auto& def = schema_.edge_label(static_cast<label_t>(l));
    const std::string base = "e/" + def.name + "/";
    FLEX_ASSIGN_OR_RETURN(auto src, DecodeInt64Section(base + "src"));
    FLEX_ASSIGN_OR_RETURN(auto dst, DecodeInt64Section(base + "dst"));
    auto& batch = data.edges[l];
    batch.src_oids.assign(src.begin(), src.end());
    batch.dst_oids.assign(dst.begin(), dst.end());
    PropertyTable table(def.properties);
    for (size_t c = 0; c < def.properties.size(); ++c) {
      FLEX_RETURN_NOT_OK(
          DecodeWholeColumn(base + "p" + std::to_string(c), &table.column(c))
              .status());
    }
    batch.rows.reserve(src.size());
    for (size_t row = 0; row < src.size(); ++row) {
      batch.rows.push_back(table.GetRow(row));
    }
  }
  return data;
}

Status GraphArReader::ScanVertices(
    label_t label,
    const std::function<bool(oid_t, const std::vector<PropertyValue>&)>& fn)
    const {
  if (label >= schema_.vertex_label_num()) {
    return Status::InvalidArgument("bad vertex label");
  }
  const auto& def = schema_.vertex_label(label);
  const std::string base = "v/" + def.name + "/";
  FLEX_ASSIGN_OR_RETURN(auto oid_bytes, Section(base + "oid"));
  FLEX_ASSIGN_OR_RETURN(ParsedSection oid_chunks, ParseChunks(oid_bytes));
  std::vector<ParsedSection> prop_chunks(def.properties.size());
  for (size_t c = 0; c < def.properties.size(); ++c) {
    FLEX_ASSIGN_OR_RETURN(auto bytes,
                          Section(base + "p" + std::to_string(c)));
    FLEX_ASSIGN_OR_RETURN(prop_chunks[c], ParseChunks(bytes));
  }

  // Chunk-synchronized streaming decode.
  for (size_t chunk = 0; chunk < oid_chunks.chunks.size(); ++chunk) {
    std::vector<int64_t> oids;
    FLEX_RETURN_NOT_OK(DecodeInt64Chunk(oid_chunks.chunks[chunk].bytes,
                                        oid_chunks.chunks[chunk].nrows,
                                        &oids));
    PropertyTable table(def.properties);
    for (size_t c = 0; c < def.properties.size(); ++c) {
      FLEX_RETURN_NOT_OK(DecodeColumnChunk(prop_chunks[c].chunks[chunk].bytes,
                                           prop_chunks[c].chunks[chunk].nrows,
                                           &table.column(c)));
    }
    for (size_t row = 0; row < oids.size(); ++row) {
      if (!fn(oids[row], table.GetRow(row))) return Status::OK();
    }
  }
  return Status::OK();
}

Result<std::vector<oid_t>> GraphArReader::FetchNeighbors(label_t edge_label,
                                                         oid_t src) const {
  if (edge_label >= schema_.edge_label_num()) {
    return Status::InvalidArgument("bad edge label");
  }
  const auto& def = schema_.edge_label(edge_label);
  const std::string base = "e/" + def.name + "/";
  FLEX_ASSIGN_OR_RETURN(auto idx_bytes, Section(base + "idx"));
  size_t pos = 0;
  uint64_t nchunks;
  if (!GetVarint64(idx_bytes.data(), idx_bytes.size(), &pos, &nchunks)) {
    return Status::IoError("corrupt chunk index");
  }
  std::vector<size_t> candidates;
  for (uint64_t c = 0; c < nchunks; ++c) {
    int64_t lo, hi;
    if (!GetVarintSigned(idx_bytes.data(), idx_bytes.size(), &pos, &lo) ||
        !GetVarintSigned(idx_bytes.data(), idx_bytes.size(), &pos, &hi)) {
      return Status::IoError("corrupt chunk index entry");
    }
    if (src >= lo && src <= hi) candidates.push_back(c);
  }

  std::vector<oid_t> neighbors;
  if (candidates.empty()) return neighbors;
  FLEX_ASSIGN_OR_RETURN(auto src_bytes, Section(base + "src"));
  FLEX_ASSIGN_OR_RETURN(auto dst_bytes, Section(base + "dst"));
  FLEX_ASSIGN_OR_RETURN(ParsedSection src_chunks, ParseChunks(src_bytes));
  FLEX_ASSIGN_OR_RETURN(ParsedSection dst_chunks, ParseChunks(dst_bytes));
  for (size_t c : candidates) {
    std::vector<int64_t> srcs, dsts;
    FLEX_RETURN_NOT_OK(DecodeInt64Chunk(src_chunks.chunks[c].bytes,
                                        src_chunks.chunks[c].nrows, &srcs));
    FLEX_RETURN_NOT_OK(DecodeInt64Chunk(dst_chunks.chunks[c].bytes,
                                        dst_chunks.chunks[c].nrows, &dsts));
    for (size_t i = 0; i < srcs.size(); ++i) {
      if (srcs[i] == src) neighbors.push_back(dsts[i]);
    }
  }
  return neighbors;
}

// ------------------------------------------------------------ direct GRIN

/// GRIN view backed by the archive: topology decoded up front (traversals
/// need it), property chunks decoded lazily with a one-chunk cache per
/// column. This is deliberately the slowest backend of the three (Fig 7(a))
/// — its design centre is archival density, not hot access.
class GraphArDirectGraph final : public grin::GrinGraph {
 public:
  static Result<std::unique_ptr<grin::GrinGraph>> Open(
      const GraphArReader* reader) {
    auto g = std::unique_ptr<GraphArDirectGraph>(
        new GraphArDirectGraph(reader));
    FLEX_RETURN_NOT_OK(g->Load());
    return std::unique_ptr<grin::GrinGraph>(std::move(g));
  }

  std::string backend_name() const override { return "graphar"; }

  uint32_t capabilities() const override {
    return grin::kVertexListArray | grin::kAdjacentListArray |
           grin::kAdjacentListIterator | grin::kVertexProperty |
           grin::kEdgeProperty | grin::kOidIndex | grin::kLabelIndex |
           grin::kPredicatePushdown;
  }

  const GraphSchema& schema() const override { return reader_->schema(); }

  vid_t NumVertices() const override {
    return static_cast<vid_t>(oids_.size());
  }
  vid_t NumVerticesOfLabel(label_t label) const override {
    return label_start_[label + 1] - label_start_[label];
  }
  label_t VertexLabelOf(vid_t v) const override {
    for (size_t l = 0; l + 1 < label_start_.size(); ++l) {
      if (v < label_start_[l + 1]) return static_cast<label_t>(l);
    }
    return kInvalidLabel;
  }
  std::pair<vid_t, vid_t> VertexRange(label_t label) const override {
    return {label_start_[label], label_start_[label + 1]};
  }

  void VisitVertices(label_t label, size_t begin, size_t end,
                     bool (*visitor)(void*, vid_t),
                     void* visitor_ctx) const override {
    FLEX_COUNTER_INC(metrics::kStorageScansTotal);
    const vid_t first = label_start_[label];
    end = std::min<size_t>(end, NumVerticesOfLabel(label));
    for (size_t row = begin; row < end; ++row) {
      if (!visitor(visitor_ctx, static_cast<vid_t>(first + row))) return;
    }
  }

  bool VisitVerticesFiltered(label_t label, size_t begin, size_t end,
                             const grin::VertexFilter& filter,
                             std::span<const size_t> project_cols,
                             grin::FilteredVertexVisitor visitor,
                             void* visitor_ctx) const override {
    // Native pushdown scan: the section lookup and chunk-table parse
    // happen once per referenced column for the whole window, and each
    // column's one-chunk decode cache rides the sequential row order.
    // The boxed fallback (GetVertexProperty per vertex) rebuilds the
    // section name and re-parses the chunk table on every access.
    FLEX_COUNTER_INC(metrics::kStorageScansTotal);
    const auto& def = reader_->schema().vertex_label(label);

    // One open column = parsed chunk table + lazily decoded current chunk.
    struct ScanColumn {
      bool ok = false;
      PropertyType type{};
      ParsedSection parsed;
      size_t chunk_rows = 0;
      int64_t cached_chunk = -1;
      std::unique_ptr<PropertyColumn> column;

      PropertyValue Get(size_t row) {
        if (!ok) return PropertyValue();
        const size_t chunk_id = row / chunk_rows;
        if (chunk_id >= parsed.chunks.size()) return PropertyValue();
        if (cached_chunk != static_cast<int64_t>(chunk_id)) {
          auto decoded = std::make_unique<PropertyColumn>(type);
          if (!DecodeColumnChunk(parsed.chunks[chunk_id].bytes,
                                 parsed.chunks[chunk_id].nrows, decoded.get())
                   .ok()) {
            return PropertyValue();
          }
          cached_chunk = static_cast<int64_t>(chunk_id);
          column = std::move(decoded);
        }
        return column->Get(row - chunk_id * chunk_rows);
      }
    };
    auto open_column = [&](size_t col) {
      ScanColumn sc;
      if (col >= def.properties.size()) return sc;
      sc.type = def.properties[col].type;
      auto bytes =
          reader_->Section("v/" + def.name + "/p" + std::to_string(col));
      if (!bytes.ok()) return sc;
      auto parsed = ParseChunks(bytes.value());
      if (!parsed.ok() || parsed.value().chunks.empty()) return sc;
      sc.parsed = std::move(parsed).value();
      sc.chunk_rows = sc.parsed.chunks[0].nrows;
      sc.ok = sc.chunk_rows > 0;
      return sc;
    };
    std::vector<ScanColumn> cond_cols;
    cond_cols.reserve(filter.conditions.size());
    for (const grin::VertexCondition& c : filter.conditions) {
      cond_cols.push_back(c.column == grin::VertexCondition::kNoColumn
                              ? ScanColumn{}
                              : open_column(c.column));
    }
    std::vector<ScanColumn> proj_cols;
    proj_cols.reserve(project_cols.size());
    for (const size_t col : project_cols) proj_cols.push_back(open_column(col));

    std::vector<PropertyValue> props(project_cols.size());
    end = std::min<size_t>(end, NumVerticesOfLabel(label));
    for (size_t row = begin; row < end; ++row) {
      const auto v = static_cast<vid_t>(label_start_[label] + row);
      bool pass = true;
      for (size_t i = 0; i < filter.conditions.size(); ++i) {
        if (!grin::MatchesCondition(filter.conditions[i],
                                    cond_cols[i].Get(row))) {
          pass = false;
          break;
        }
      }
      if (!pass) {
        FLEX_COUNTER_INC(metrics::kFusedRowsPrunedTotal);
        continue;
      }
      for (size_t p = 0; p < proj_cols.size(); ++p) {
        props[p] = proj_cols[p].Get(row);
      }
      if (!visitor(visitor_ctx, v, props)) return false;
    }
    return true;
  }

  bool VisitAdj(vid_t v, Direction dir, label_t edge_label,
                grin::AdjVisitor visitor, void* ctx) const override {
    if (dir == Direction::kBoth) {
      return VisitAdj(v, Direction::kOut, edge_label, visitor, ctx) &&
             VisitAdj(v, Direction::kIn, edge_label, visitor, ctx);
    }
    FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
    const Topo& t = topo_[edge_label];
    grin::AdjChunk chunk;
    if (dir == Direction::kOut) {
      chunk.neighbors = {t.out_nbrs.data() + t.out_offsets[v],
                         t.out_offsets[v + 1] - t.out_offsets[v]};
      chunk.edge_id_base = t.out_offsets[v];
    } else {
      chunk.neighbors = {t.in_nbrs.data() + t.in_offsets[v],
                         t.in_offsets[v + 1] - t.in_offsets[v]};
      chunk.edge_ids = {t.in_eids.data() + t.in_offsets[v],
                        t.in_offsets[v + 1] - t.in_offsets[v]};
    }
    if (chunk.neighbors.empty()) return true;
    return visitor(ctx, chunk);
  }

  bool GetNeighborsBatch(std::span<const vid_t> vids, Direction dir,
                         label_t edge_label, grin::BatchAdjVisitor visitor,
                         void* ctx) const override {
    // One virtual call per batch, CSR slices handed out directly. Counter
    // increments match the scalar path: one per source per concrete
    // direction.
    const Topo& t = topo_[edge_label];
    auto emit = [&](size_t i, Direction d) -> bool {
      FLEX_COUNTER_INC(metrics::kStorageAdjVisitsTotal);
      const vid_t v = vids[i];
      grin::AdjChunk chunk;
      if (d == Direction::kOut) {
        chunk.neighbors = {t.out_nbrs.data() + t.out_offsets[v],
                           t.out_offsets[v + 1] - t.out_offsets[v]};
        chunk.edge_id_base = t.out_offsets[v];
      } else {
        chunk.neighbors = {t.in_nbrs.data() + t.in_offsets[v],
                           t.in_offsets[v + 1] - t.in_offsets[v]};
        chunk.edge_ids = {t.in_eids.data() + t.in_offsets[v],
                          t.in_offsets[v + 1] - t.in_offsets[v]};
      }
      if (chunk.neighbors.empty()) return true;
      return visitor(ctx, i, d, chunk);
    };
    for (size_t i = 0; i < vids.size(); ++i) {
      if (dir != Direction::kIn && !emit(i, Direction::kOut)) return false;
      if (dir != Direction::kOut && !emit(i, Direction::kIn)) return false;
    }
    return true;
  }

  size_t Degree(vid_t v, Direction dir, label_t edge_label) const override {
    const Topo& t = topo_[edge_label];
    size_t deg = 0;
    if (dir != Direction::kIn) deg += t.out_offsets[v + 1] - t.out_offsets[v];
    if (dir != Direction::kOut) deg += t.in_offsets[v + 1] - t.in_offsets[v];
    return deg;
  }

  PropertyValue GetVertexProperty(vid_t v, size_t col) const override {
    const label_t label = VertexLabelOf(v);
    const size_t row = v - label_start_[label];
    const auto& def = reader_->schema().vertex_label(label);
    const std::string section =
        "v/" + def.name + "/p" + std::to_string(col);
    return CachedGet(section, def.properties[col].type, row);
  }

  PropertyValue GetEdgeProperty(label_t edge_label, eid_t e,
                                size_t col) const override {
    const auto& def = reader_->schema().edge_label(edge_label);
    const std::string section =
        "e/" + def.name + "/p" + std::to_string(col);
    return CachedGet(section, def.properties[col].type, e);
  }

  void GetVerticesProperties(std::span<const vid_t> vids, size_t col,
                             PropertyValue* out) const override {
    // Parse the archive section once per same-label run instead of once
    // per vertex (the scalar CachedGet re-reads and re-parses the chunk
    // table on every call; only the decoded chunk is cached).
    size_t i = 0;
    while (i < vids.size()) {
      const label_t label = VertexLabelOf(vids[i]);
      size_t j = i + 1;
      while (j < vids.size() && vids[j] >= label_start_[label] &&
             vids[j] < label_start_[label + 1]) {
        ++j;
      }
      const auto& def = reader_->schema().vertex_label(label);
      const std::string section =
          "v/" + def.name + "/p" + std::to_string(col);
      CachedGetBatch(section, def.properties[col].type, label_start_[label],
                     vids.subspan(i, j - i), out + i);
      i = j;
    }
  }

  Result<vid_t> FindVertex(label_t label, oid_t oid) const override {
    FLEX_COUNTER_INC(metrics::kStorageIndexLookupsTotal);
    auto it = oid_index_[label].find(oid);
    if (it == oid_index_[label].end()) {
      return Status::NotFound("vertex oid " + std::to_string(oid));
    }
    return it->second;
  }

  oid_t GetOid(vid_t v) const override { return oids_[v]; }

 private:
  struct Topo {
    std::vector<eid_t> out_offsets, in_offsets;
    std::vector<vid_t> out_nbrs, in_nbrs;
    std::vector<eid_t> in_eids;
  };

  explicit GraphArDirectGraph(const GraphArReader* reader)
      : reader_(reader) {}

  Status Load() {
    const GraphSchema& schema = reader_->schema();
    label_start_.assign(schema.vertex_label_num() + 1, 0);
    oid_index_.resize(schema.vertex_label_num());
    for (size_t l = 0; l < schema.vertex_label_num(); ++l) {
      const auto& def = schema.vertex_label(static_cast<label_t>(l));
      FLEX_ASSIGN_OR_RETURN(auto label_oids,
                            reader_->DecodeInt64Section("v/" + def.name +
                                                        "/oid"));
      label_start_[l + 1] =
          label_start_[l] + static_cast<vid_t>(label_oids.size());
      auto& index = oid_index_[l];
      index.reserve(label_oids.size() * 2);
      for (size_t i = 0; i < label_oids.size(); ++i) {
        const vid_t vid = label_start_[l] + static_cast<vid_t>(i);
        oids_.push_back(label_oids[i]);
        index.emplace(label_oids[i], vid);
      }
    }
    const vid_t total_v = label_start_.back();

    topo_.resize(schema.edge_label_num());
    for (size_t el = 0; el < schema.edge_label_num(); ++el) {
      const auto& def = schema.edge_label(static_cast<label_t>(el));
      const std::string base = "e/" + def.name + "/";
      FLEX_ASSIGN_OR_RETURN(auto src_oids,
                            reader_->DecodeInt64Section(base + "src"));
      FLEX_ASSIGN_OR_RETURN(auto dst_oids,
                            reader_->DecodeInt64Section(base + "dst"));
      Topo& t = topo_[el];
      const size_t m = src_oids.size();
      std::vector<vid_t> srcs(m), dsts(m);
      for (size_t i = 0; i < m; ++i) {
        auto sit = oid_index_[def.src_label].find(src_oids[i]);
        auto dit = oid_index_[def.dst_label].find(dst_oids[i]);
        if (sit == oid_index_[def.src_label].end() ||
            dit == oid_index_[def.dst_label].end()) {
          return Status::IoError("archive edge references unknown vertex");
        }
        srcs[i] = sit->second;
        dsts[i] = dit->second;
      }
      t.out_offsets.assign(total_v + 1, 0);
      t.in_offsets.assign(total_v + 1, 0);
      for (size_t i = 0; i < m; ++i) ++t.out_offsets[srcs[i] + 1];
      for (size_t i = 0; i < m; ++i) ++t.in_offsets[dsts[i] + 1];
      for (vid_t v = 0; v < total_v; ++v) {
        t.out_offsets[v + 1] += t.out_offsets[v];
        t.in_offsets[v + 1] += t.in_offsets[v];
      }
      t.out_nbrs.resize(m);
      t.in_nbrs.resize(m);
      t.in_eids.resize(m);
      std::vector<eid_t> slot_of_input(m);
      {
        std::vector<eid_t> cursor(t.out_offsets.begin(),
                                  t.out_offsets.end() - 1);
        for (size_t i = 0; i < m; ++i) {
          const eid_t slot = cursor[srcs[i]]++;
          t.out_nbrs[slot] = dsts[i];
          slot_of_input[i] = slot;
        }
      }
      {
        std::vector<eid_t> cursor(t.in_offsets.begin(),
                                  t.in_offsets.end() - 1);
        for (size_t i = 0; i < m; ++i) {
          const eid_t slot = cursor[dsts[i]]++;
          t.in_nbrs[slot] = srcs[i];
          t.in_eids[slot] = slot_of_input[i];
        }
      }
      // Note: edges are sorted in the file, so counting sort preserves file
      // order within each source — out-CSR rank == file row == eid, and
      // property chunk lookups by eid are consistent.
    }
    return Status::OK();
  }

  /// Decodes the chunk containing `row` of `section` (one-chunk cache).
  PropertyValue CachedGet(const std::string& section, PropertyType type,
                          size_t row) const {
    MutexLock lock(&cache_mu_);
    auto& entry = cache_[section];
    auto bytes = reader_->Section(section);
    if (!bytes.ok()) return PropertyValue();
    auto parsed = ParseChunks(bytes.value());
    if (!parsed.ok()) return PropertyValue();
    // Locate the chunk (uniform chunk size except the last).
    const auto& chunks = parsed.value().chunks;
    if (chunks.empty()) return PropertyValue();
    const size_t chunk_rows = chunks[0].nrows;
    const size_t chunk_id = row / chunk_rows;
    if (chunk_id >= chunks.size()) return PropertyValue();
    if (entry.chunk_id != static_cast<int64_t>(chunk_id) ||
        entry.column == nullptr) {
      auto column = std::make_unique<PropertyColumn>(type);
      if (!DecodeColumnChunk(chunks[chunk_id].bytes, chunks[chunk_id].nrows,
                             column.get())
               .ok()) {
        return PropertyValue();
      }
      entry.chunk_id = static_cast<int64_t>(chunk_id);
      entry.column = std::move(column);
    }
    return entry.column->Get(row - chunk_id * chunk_rows);
  }

  /// Batched CachedGet over one same-label run: section read + chunk-table
  /// parse happen once; the one-chunk decode cache serves sequential rows.
  void CachedGetBatch(const std::string& section, PropertyType type,
                      vid_t base, std::span<const vid_t> vids,
                      PropertyValue* out) const {
    MutexLock lock(&cache_mu_);
    auto fill_empty = [&] {
      for (size_t i = 0; i < vids.size(); ++i) out[i] = PropertyValue();
    };
    auto bytes = reader_->Section(section);
    if (!bytes.ok()) return fill_empty();
    auto parsed = ParseChunks(bytes.value());
    if (!parsed.ok()) return fill_empty();
    const auto& chunks = parsed.value().chunks;
    if (chunks.empty()) return fill_empty();
    const size_t chunk_rows = chunks[0].nrows;
    auto& entry = cache_[section];
    for (size_t i = 0; i < vids.size(); ++i) {
      const size_t row = vids[i] - base;
      const size_t chunk_id = row / chunk_rows;
      if (chunk_id >= chunks.size()) {
        out[i] = PropertyValue();
        continue;
      }
      if (entry.chunk_id != static_cast<int64_t>(chunk_id) ||
          entry.column == nullptr) {
        auto column = std::make_unique<PropertyColumn>(type);
        if (!DecodeColumnChunk(chunks[chunk_id].bytes, chunks[chunk_id].nrows,
                               column.get())
                 .ok()) {
          out[i] = PropertyValue();
          continue;
        }
        entry.chunk_id = static_cast<int64_t>(chunk_id);
        entry.column = std::move(column);
      }
      out[i] = entry.column->Get(row - chunk_id * chunk_rows);
    }
  }

  const GraphArReader* reader_;
  std::vector<vid_t> label_start_;
  std::vector<oid_t> oids_;
  std::vector<std::unordered_map<oid_t, vid_t>> oid_index_;
  std::vector<Topo> topo_;

  struct CacheEntry {
    int64_t chunk_id = -1;
    std::unique_ptr<PropertyColumn> column;
  };
  mutable Mutex cache_mu_;
  mutable std::map<std::string, CacheEntry> cache_ GUARDED_BY(cache_mu_);
};

Result<std::unique_ptr<grin::GrinGraph>> GraphArReader::OpenDirect() const {
  return GraphArDirectGraph::Open(this);
}

}  // namespace flex::storage::graphar
