#include "storage/graphar/graphar.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>
#include <unordered_map>

#include "common/mutex.h"
#include "common/varint.h"
#include "storage/csr_topology.h"
#include "storage/graphar/encoding.h"

namespace flex::storage::graphar {

/// Column section layout: varint total_rows, varint nchunks, then per
/// chunk: varint nrows, varint nbytes, payload bytes.
struct ChunkRef {
  size_t nrows;
  std::span<const uint8_t> bytes;
};

struct ParsedSection {
  std::vector<ChunkRef> chunks;
};

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
  if (len > buf.size() - *pos) return false;
  out->assign(reinterpret_cast<const char*>(buf.data()) + *pos, len);
  *pos += len;
  return true;
}

/// Parses a column section's chunk table. Every count is checked against
/// the bytes that back it before it sizes anything; the leading total row
/// count is not trusted (readers go by the chunks' own row counts).
Result<ParsedSection> ParseChunks(std::span<const uint8_t> section) {
  ParsedSection parsed;
  size_t pos = 0;
  uint64_t total_rows, nchunks;
  if (!GetVarint64(section.data(), section.size(), &pos, &total_rows) ||
      !GetVarint64(section.data(), section.size(), &pos, &nchunks) ||
      nchunks > (section.size() - pos) / 2) {  // >= 2 header bytes a chunk
    return Status::IoError("corrupt section header");
  }
  parsed.chunks.reserve(nchunks);
  for (uint64_t c = 0; c < nchunks; ++c) {
    uint64_t nrows, nbytes;
    if (!GetVarint64(section.data(), section.size(), &pos, &nrows) ||
        !GetVarint64(section.data(), section.size(), &pos, &nbytes) ||
        nbytes > section.size() - pos) {
      return Status::IoError("corrupt chunk header");
    }
    parsed.chunks.push_back({nrows, section.subspan(pos, nbytes)});
    pos += nbytes;
  }
  return parsed;
}

/// True when two sections of one label split their rows into the same
/// chunks, so chunk c of one lines up row for row with chunk c of the
/// other.
bool SameChunking(const ParsedSection& a, const ParsedSection& b) {
  return std::equal(a.chunks.begin(), a.chunks.end(), b.chunks.begin(),
                    b.chunks.end(), [](const ChunkRef& x, const ChunkRef& y) {
                      return x.nrows == y.nrows;
                    });
}

/// Reads rows of one parsed column section through a one-chunk decode
/// cache. Rows are located by the first chunk's row count (the writer's
/// uniform chunk size); a row the section cannot serve reads as the empty
/// value.
struct ChunkCursor {
  int64_t chunk_id = -1;
  std::unique_ptr<PropertyColumn> column;

  PropertyValue Get(const ParsedSection& parsed, PropertyType type,
                    size_t row) {
    const auto& chunks = parsed.chunks;
    if (chunks.empty() || chunks[0].nrows == 0) return PropertyValue();
    const size_t id = row / chunks[0].nrows;
    if (id >= chunks.size()) return PropertyValue();
    if (chunk_id != static_cast<int64_t>(id) || column == nullptr) {
      auto decoded = std::make_unique<PropertyColumn>(type);
      if (!DecodeColumnChunk(chunks[id].bytes, chunks[id].nrows,
                             decoded.get())
               .ok()) {
        return PropertyValue();
      }
      chunk_id = static_cast<int64_t>(id);
      column = std::move(decoded);
    }
    const size_t offset = row - id * chunks[0].nrows;
    return offset < column->size() ? column->Get(offset) : PropertyValue();
  }
};

/// Serializes `rows` rows as a chunked section; `encode(begin, end, out)`
/// appends one chunk's encoded rows.
template <typename Encode>
std::vector<uint8_t> BuildSection(size_t rows, size_t chunk_size,
                                  const Encode& encode) {
  std::vector<uint8_t> out;
  PutVarint64(&out, rows);
  PutVarint64(&out, (rows + chunk_size - 1) / chunk_size);
  std::vector<uint8_t> payload;
  for (size_t begin = 0; begin < rows; begin += chunk_size) {
    const size_t end = std::min(rows, begin + chunk_size);
    payload.clear();
    encode(begin, end, &payload);
    PutVarint64(&out, end - begin);
    PutVarint64(&out, payload.size());
    PutBytes(&out, payload.data(), payload.size());
  }
  return out;
}

std::vector<uint8_t> BuildInt64Section(std::span<const int64_t> values,
                                       size_t chunk_size) {
  return BuildSection(values.size(), chunk_size,
                      [&](size_t begin, size_t end, std::vector<uint8_t>* out) {
                        EncodeInt64Chunk(values.subspan(begin, end - begin),
                                         out);
                      });
}

void PutProperties(std::vector<uint8_t>* out,
                   const std::vector<PropertyDef>& props) {
  PutVarint64(out, props.size());
  for (const auto& prop : props) {
    PutString(out, prop.name);
    out->push_back(static_cast<uint8_t>(prop.type));
  }
}

bool GetProperties(std::span<const uint8_t> buf, size_t* pos,
                   std::vector<PropertyDef>* props) {
  uint64_t n = 0;
  if (!GetVarint64(buf.data(), buf.size(), pos, &n)) return false;
  for (uint64_t p = 0; p < n; ++p) {
    std::string name;
    if (!GetString(buf, pos, &name) || *pos >= buf.size()) return false;
    const auto type = static_cast<PropertyType>(buf[(*pos)++]);
    props->push_back({std::move(name), type});
  }
  return true;
}

std::vector<uint8_t> BuildSchemaSection(const GraphSchema& schema) {
  std::vector<uint8_t> out;
  PutVarint64(&out, schema.vertex_label_num());
  for (size_t l = 0; l < schema.vertex_label_num(); ++l) {
    const auto& def = schema.vertex_label(static_cast<label_t>(l));
    PutString(&out, def.name);
    PutProperties(&out, def.properties);
  }
  PutVarint64(&out, schema.edge_label_num());
  for (size_t l = 0; l < schema.edge_label_num(); ++l) {
    const auto& def = schema.edge_label(static_cast<label_t>(l));
    PutString(&out, def.name);
    out.push_back(def.src_label);
    out.push_back(def.dst_label);
    PutProperties(&out, def.properties);
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
    std::vector<PropertyDef> props;
    if (!GetString(buf, &pos, &name) || !GetProperties(buf, &pos, &props)) {
      return Status::IoError("corrupt schema vertex label");
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
    std::vector<PropertyDef> props;
    if (!GetProperties(buf, &pos, &props)) {
      return Status::IoError("corrupt schema edge label");
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

  // Columnarizes `n` rows (`row(i)`), then chunk-encodes each column.
  auto add_columns = [&](const std::string& base,
                         const std::vector<PropertyDef>& defs, size_t n,
                         const auto& row) -> Status {
    PropertyTable table(defs);
    for (size_t i = 0; i < n; ++i) FLEX_RETURN_NOT_OK(table.AppendRow(row(i)));
    for (size_t c = 0; c < defs.size(); ++c) {
      const PropertyColumn& column = table.column(c);
      add_section(base + "p" + std::to_string(c),
                  BuildSection(n, chunk_size,
                               [&](size_t begin, size_t end,
                                   std::vector<uint8_t>* out) {
                                 EncodeColumnChunk(column, begin, end, out);
                               }));
    }
    return Status::OK();
  };

  add_section("schema", BuildSchemaSection(data.schema));

  // ---- Vertex sections.
  static const PropertyGraphData::VertexBatch kEmptyV;
  auto vertices = [&](label_t label) -> const auto& {
    return label < data.vertices.size() ? data.vertices[label] : kEmptyV;
  };
  for (size_t l = 0; l < data.schema.vertex_label_num(); ++l) {
    const auto& def = data.schema.vertex_label(static_cast<label_t>(l));
    const auto& batch = vertices(static_cast<label_t>(l));
    const std::string base = "v/" + def.name + "/";
    add_section(base + "oid", BuildInt64Section(batch.oids, chunk_size));
    FLEX_RETURN_NOT_OK(add_columns(
        base, def.properties, batch.rows.size(),
        [&](size_t i) -> const auto& { return batch.rows[i]; }));
  }

  // ---- Edge sections, in the direct view's forward edge order: by the
  // source's position in its label's vertex batch (vids follow it), then
  // by dst oid, so an edge's id is its row. A source missing from the
  // batch sorts last. The index holds each chunk's [min_src, max_src].
  for (size_t l = 0; l < data.schema.edge_label_num(); ++l) {
    const auto& def = data.schema.edge_label(static_cast<label_t>(l));
    static const PropertyGraphData::EdgeBatch kEmptyE;
    const auto& batch = l < data.edges.size() ? data.edges[l] : kEmptyE;
    const std::string base = "e/" + def.name + "/";
    const size_t m = batch.src_oids.size();
    const auto& sources = vertices(def.src_label).oids;
    std::unordered_map<oid_t, size_t> position;
    for (size_t i = 0; i < sources.size(); ++i) position.emplace(sources[i], i);
    std::vector<size_t> rank(m, sources.size());
    for (size_t i = 0; i < m; ++i) {
      auto it = position.find(batch.src_oids[i]);
      if (it != position.end()) rank[i] = it->second;
    }
    std::vector<size_t> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (rank[a] != rank[b]) return rank[a] < rank[b];
      return batch.dst_oids[a] < batch.dst_oids[b];
    });
    std::vector<int64_t> src(m), dst(m);
    for (size_t i = 0; i < m; ++i) {
      src[i] = batch.src_oids[order[i]];
      dst[i] = batch.dst_oids[order[i]];
    }
    add_section(base + "src", BuildInt64Section(src, chunk_size));
    add_section(base + "dst", BuildInt64Section(dst, chunk_size));

    FLEX_RETURN_NOT_OK(
        add_columns(base, def.properties, m, [&](size_t i) -> const auto& {
          return batch.rows[order[i]];
        }));

    std::vector<uint8_t> idx;
    const size_t nchunks = (m + chunk_size - 1) / chunk_size;
    PutVarint64(&idx, nchunks);
    for (size_t begin = 0; begin < m; begin += chunk_size) {
      const auto [lo, hi] = std::minmax_element(
          src.begin() + begin, src.begin() + std::min(m, begin + chunk_size));
      PutVarintSigned(&idx, *lo);
      PutVarintSigned(&idx, *hi);
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
        offset > f.size() || length > f.size() - offset) {
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

Result<ParsedSection> GraphArReader::ParseSection(
    const std::string& name) const {
  FLEX_ASSIGN_OR_RETURN(auto bytes, Section(name));
  return ParseChunks(bytes);
}

Result<std::vector<std::vector<PropertyValue>>> GraphArReader::DecodeRows(
    const std::string& base, const std::vector<PropertyDef>& defs,
    size_t rows) const {
  PropertyTable table(defs);
  for (size_t c = 0; c < defs.size(); ++c) {
    const std::string section = base + "p" + std::to_string(c);
    FLEX_ASSIGN_OR_RETURN(ParsedSection parsed, ParseSection(section));
    for (const ChunkRef& chunk : parsed.chunks) {
      FLEX_RETURN_NOT_OK(
          DecodeColumnChunk(chunk.bytes, chunk.nrows, &table.column(c)));
    }
    if (table.column(c).size() != rows) {
      return Status::IoError(section + " does not hold " +
                             std::to_string(rows) + " rows");
    }
  }
  std::vector<std::vector<PropertyValue>> out;
  out.reserve(rows);
  for (size_t row = 0; row < rows; ++row) out.push_back(table.GetRow(row));
  return out;
}

Result<std::vector<int64_t>> GraphArReader::DecodeInt64Section(
    const std::string& section) const {
  FLEX_ASSIGN_OR_RETURN(ParsedSection parsed, ParseSection(section));
  std::vector<int64_t> values;
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
    auto& batch = data.vertices[l];
    FLEX_ASSIGN_OR_RETURN(batch.oids, DecodeInt64Section(base + "oid"));
    FLEX_ASSIGN_OR_RETURN(batch.rows,
                          DecodeRows(base, def.properties, batch.oids.size()));
  }

  for (size_t l = 0; l < schema_.edge_label_num(); ++l) {
    const auto& def = schema_.edge_label(static_cast<label_t>(l));
    const std::string base = "e/" + def.name + "/";
    auto& batch = data.edges[l];
    FLEX_ASSIGN_OR_RETURN(batch.src_oids, DecodeInt64Section(base + "src"));
    FLEX_ASSIGN_OR_RETURN(batch.dst_oids, DecodeInt64Section(base + "dst"));
    if (batch.dst_oids.size() != batch.src_oids.size()) {
      return Status::IoError("edge label " + def.name +
                             ": src and dst columns differ in length");
    }
    FLEX_ASSIGN_OR_RETURN(
        batch.rows, DecodeRows(base, def.properties, batch.src_oids.size()));
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
  FLEX_ASSIGN_OR_RETURN(ParsedSection oid_chunks, ParseSection(base + "oid"));
  std::vector<ParsedSection> prop_chunks(def.properties.size());
  for (size_t c = 0; c < def.properties.size(); ++c) {
    FLEX_ASSIGN_OR_RETURN(prop_chunks[c],
                          ParseSection(base + "p" + std::to_string(c)));
    if (!SameChunking(prop_chunks[c], oid_chunks)) {
      return Status::IoError("vertex label " + def.name + ": column p" +
                             std::to_string(c) +
                             " is not chunked like its oids");
    }
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
  FLEX_ASSIGN_OR_RETURN(ParsedSection src_chunks, ParseSection(base + "src"));
  FLEX_ASSIGN_OR_RETURN(ParsedSection dst_chunks, ParseSection(base + "dst"));
  if (nchunks != src_chunks.chunks.size() ||
      !SameChunking(src_chunks, dst_chunks)) {
    return Status::IoError("edge label " + def.name +
                           ": chunk index does not match its src/dst columns");
  }
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

/// GRIN view backed by the archive: topology decoded up front into the
/// shared CsrTopology (traversals need it), property chunks decoded lazily
/// with a one-chunk cache per column. This is deliberately the slowest
/// backend of the three (Fig 7(a)) — its design centre is archival
/// density, not hot access.
class GraphArDirectGraph final : public storage::CsrGrinGraph {
 public:
  GraphArDirectGraph(const GraphArReader* reader, CsrTopology topology)
      : CsrGrinGraph(&csr_), reader_(reader), csr_(std::move(topology)) {}

  std::string backend_name() const override { return "graphar"; }

  uint32_t capabilities() const override {
    return grin::kVertexListArray | grin::kAdjacentListArray |
           grin::kAdjacentListIterator | grin::kVertexProperty |
           grin::kEdgeProperty | grin::kOidIndex | grin::kLabelIndex;
  }

  const GraphSchema& schema() const override { return reader_->schema(); }

  PropertyValue GetVertexProperty(vid_t v, size_t col) const override {
    const label_t label = VertexLabelOf(v);
    const size_t row = v - topology().VertexRange(label).first;
    const auto& def = reader_->schema().vertex_label(label);
    PropertyValue value;
    CachedGet("v/" + def.name + "/p" + std::to_string(col),
              def.properties[col].type, 1, [&](size_t) { return row; },
              &value);
    return value;
  }

  PropertyValue GetEdgeProperty(label_t edge_label, eid_t e,
                                size_t col) const override {
    const auto& def = reader_->schema().edge_label(edge_label);
    PropertyValue value;
    CachedGet("e/" + def.name + "/p" + std::to_string(col),
              def.properties[col].type, 1, [&](size_t) { return e; }, &value);
    return value;
  }

  void GetVerticesProperties(std::span<const vid_t> vids, size_t col,
                             PropertyValue* out) const override {
    // Parse the archive section once per same-label run instead of once
    // per vertex (a scalar read re-reads and re-parses the chunk table on
    // every call; only the decoded chunk is cached).
    size_t i = 0;
    while (i < vids.size()) {
      const label_t label = VertexLabelOf(vids[i]);
      const auto [first, last] = topology().VertexRange(label);
      size_t j = i + 1;
      while (j < vids.size() && vids[j] >= first && vids[j] < last) ++j;
      const auto& def = reader_->schema().vertex_label(label);
      CachedGet("v/" + def.name + "/p" + std::to_string(col),
                def.properties[col].type, j - i,
                [&](size_t k) { return vids[i + k] - first; }, out + i);
      i = j;
    }
  }

 private:
  /// Reads rows `row(i)`, i < n, of `section` into `out`: the section
  /// read and chunk-table parse happen once per call, and a one-chunk
  /// decode cursor serves sequential rows. A batch (n > 1) decodes into
  /// its own cursor with no lock, so concurrent batched reads (parallel
  /// filtered scans) neither wait on each other nor evict each other's
  /// chunk; scalar reads share the locked per-section cache.
  template <typename Row>
  void CachedGet(const std::string& section, PropertyType type, size_t n,
                 const Row& row, PropertyValue* out) const {
    const auto parsed = reader_->ParseSection(section);
    auto read = [&](ChunkCursor* cursor) {
      for (size_t i = 0; i < n; ++i) {
        out[i] = parsed.ok() ? cursor->Get(parsed.value(), type, row(i))
                             : PropertyValue();
      }
    };
    if (n > 1) {
      ChunkCursor cursor;
      read(&cursor);
      return;
    }
    MutexLock lock(&cache_mu_);
    read(&cache_[section]);
  }

  const GraphArReader* reader_;
  CsrTopology csr_;

  mutable Mutex cache_mu_;
  mutable std::map<std::string, ChunkCursor> cache_ GUARDED_BY(cache_mu_);
};

Result<std::unique_ptr<grin::GrinGraph>> GraphArReader::OpenDirect() const {
  CsrTopology topology;
  for (size_t l = 0; l < schema_.vertex_label_num(); ++l) {
    const auto& def = schema_.vertex_label(static_cast<label_t>(l));
    FLEX_ASSIGN_OR_RETURN(auto oids,
                          DecodeInt64Section("v/" + def.name + "/oid"));
    FLEX_RETURN_NOT_OK(topology.AddVertexLabel(oids));
  }
  for (size_t el = 0; el < schema_.edge_label_num(); ++el) {
    const auto& def = schema_.edge_label(static_cast<label_t>(el));
    const std::string base = "e/" + def.name + "/";
    FLEX_ASSIGN_OR_RETURN(auto src, DecodeInt64Section(base + "src"));
    FLEX_ASSIGN_OR_RETURN(auto dst, DecodeInt64Section(base + "dst"));
    // The file groups edges by source in vid order, so the stable
    // forward CSR keeps file order: forward edge id == file row, which
    // the property chunk lookups by edge id rely on.
    FLEX_RETURN_NOT_OK(
        topology.AddEdgeLabel(def.src_label, def.dst_label, src, dst));
  }
  return std::unique_ptr<grin::GrinGraph>(
      std::make_unique<GraphArDirectGraph>(this, std::move(topology)));
}

}  // namespace flex::storage::graphar
