#ifndef FLEX_STORAGE_GRAPHAR_GRAPHAR_H_
#define FLEX_STORAGE_GRAPHAR_GRAPHAR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/property_table.h"
#include "grin/grin.h"

namespace flex::storage::graphar {

struct ParsedSection;

/// Default rows per chunk (mirrors GraphAr's chunked ORC/Parquet layout).
inline constexpr size_t kDefaultChunkSize = 1024;

/// Writes `data` as a GraphAr archive file at `path`.
///
/// Layout: magic, then one chunked columnar section per vertex/edge column,
/// then a named-section directory, then a footer pointing at the directory.
/// Edges are sorted by their source's position in its label's vertex
/// batch, then by dst oid (the direct view's edge id order), and a
/// per-chunk [min_src, max_src] oid index section enables neighbor fetches
/// that decode only the relevant chunks — the paper's "retrieve only the
/// relevant data chunks" property.
Status WriteGraphAr(const std::string& path, const PropertyGraphData& data,
                    size_t chunk_size = kDefaultChunkSize);

/// Read-side handle on a GraphAr archive. The file is loaded once; all
/// decode work happens per call.
class GraphArReader {
 public:
  static Result<std::unique_ptr<GraphArReader>> Open(const std::string& path);

  const GraphSchema& schema() const { return schema_; }

  /// Decodes the complete archive back into builder-ready graph data.
  Result<PropertyGraphData> ReadAll() const;

  /// Storage-level scan of one vertex label (label pushdown): streams
  /// (oid, property row) pairs; return false to stop.
  Status ScanVertices(
      label_t label,
      const std::function<bool(oid_t, const std::vector<PropertyValue>&)>& fn)
      const;

  /// Storage-level neighbor fetch: decodes only chunks whose src range
  /// covers `src`, using the built-in chunk index.
  Result<std::vector<oid_t>> FetchNeighbors(label_t edge_label,
                                            oid_t src) const;

  /// Opens a GRIN view that serves topology from memory but decodes
  /// property chunks lazily on access (archive-backed data source, §4.2).
  Result<std::unique_ptr<grin::GrinGraph>> OpenDirect() const;

 private:
  friend class GraphArDirectGraph;

  GraphArReader() = default;

  Result<std::span<const uint8_t>> Section(const std::string& name) const;
  /// Section(name)'s chunk table.
  Result<ParsedSection> ParseSection(const std::string& name) const;

  /// Decodes the property columns of one label (sections `base` + "p<c>")
  /// into `rows` boxed rows; kIoError unless every column holds exactly
  /// that many.
  Result<std::vector<std::vector<PropertyValue>>> DecodeRows(
      const std::string& base, const std::vector<PropertyDef>& defs,
      size_t rows) const;
  Result<std::vector<int64_t>> DecodeInt64Section(
      const std::string& section) const;

  std::vector<uint8_t> file_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> directory_;
  GraphSchema schema_;
};

}  // namespace flex::storage::graphar

#endif  // FLEX_STORAGE_GRAPHAR_GRAPHAR_H_
