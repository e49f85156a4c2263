#include "storage/graphar/encoding.h"

#include <cstring>

#include "common/varint.h"

namespace flex::storage::graphar {

namespace {

/// Chunk encodings for int64 columns. Plain = one zigzag varint per
/// delta; RLE = (run length, delta) pairs — sorted id columns (edge
/// sources, dense vertex ids) are long runs of identical deltas, which
/// RLE collapses to a couple of bytes per run and decodes faster too.
constexpr uint8_t kInt64Plain = 0;
constexpr uint8_t kInt64Rle = 1;

void EncodePlain(std::span<const int64_t> values, std::vector<uint8_t>* out) {
  int64_t prev = 0;
  for (int64_t v : values) {
    PutVarintSigned(out, v - prev);
    prev = v;
  }
}

void EncodeRle(std::span<const int64_t> values, std::vector<uint8_t>* out) {
  int64_t prev = 0;
  size_t i = 0;
  while (i < values.size()) {
    const int64_t delta = values[i] - prev;
    size_t run = 1;
    int64_t run_prev = values[i];
    while (i + run < values.size() && values[i + run] - run_prev == delta) {
      run_prev = values[i + run];
      ++run;
    }
    PutVarint64(out, run);
    PutVarintSigned(out, delta);
    prev = run_prev;
    i += run;
  }
}

}  // namespace

void EncodeInt64Chunk(std::span<const int64_t> values,
                      std::vector<uint8_t>* out) {
  // Encode both ways and keep the smaller (chunks are small; the double
  // pass is cheap next to the I/O it saves).
  std::vector<uint8_t> plain, rle;
  EncodePlain(values, &plain);
  EncodeRle(values, &rle);
  if (rle.size() < plain.size()) {
    out->push_back(kInt64Rle);
    out->insert(out->end(), rle.begin(), rle.end());
  } else {
    out->push_back(kInt64Plain);
    out->insert(out->end(), plain.begin(), plain.end());
  }
}

Status DecodeInt64Chunk(std::span<const uint8_t> bytes, size_t count,
                        std::vector<int64_t>* out) {
  if (count == 0) return Status::OK();
  if (bytes.empty()) return Status::IoError("empty int64 chunk");
  const uint8_t mode = bytes[0];
  size_t pos = 1;
  int64_t prev = 0;
  // No reserve from `count`: it is an unchecked claim until the bytes
  // behind it decode, and `out` grows geometrically across chunks anyway.
  if (mode == kInt64Plain) {
    for (size_t i = 0; i < count; ++i) {
      int64_t delta;
      if (!GetVarintSigned(bytes.data(), bytes.size(), &pos, &delta)) {
        return Status::IoError("truncated int64 chunk");
      }
      prev += delta;
      out->push_back(prev);
    }
    return Status::OK();
  }
  if (mode == kInt64Rle) {
    size_t produced = 0;
    while (produced < count) {
      uint64_t run;
      int64_t delta;
      if (!GetVarint64(bytes.data(), bytes.size(), &pos, &run) ||
          !GetVarintSigned(bytes.data(), bytes.size(), &pos, &delta) ||
          run == 0 || run > count - produced) {
        return Status::IoError("corrupt RLE int64 chunk");
      }
      for (uint64_t r = 0; r < run; ++r) {
        prev += delta;
        out->push_back(prev);
      }
      produced += run;
    }
    return Status::OK();
  }
  return Status::IoError("unknown int64 chunk encoding");
}

void EncodeDoubleChunk(std::span<const double> values,
                       std::vector<uint8_t>* out) {
  const size_t offset = out->size();
  out->resize(offset + values.size() * sizeof(double));
  std::memcpy(out->data() + offset, values.data(),
              values.size() * sizeof(double));
}

Status DecodeDoubleChunk(std::span<const uint8_t> bytes, size_t count,
                         std::vector<double>* out) {
  if (count > bytes.size() / sizeof(double)) {
    return Status::IoError("truncated double chunk");
  }
  const size_t offset = out->size();
  out->resize(offset + count);
  std::memcpy(out->data() + offset, bytes.data(), count * sizeof(double));
  return Status::OK();
}

void EncodeStringChunk(const std::vector<std::string>& values, size_t begin,
                       size_t end, std::vector<uint8_t>* out) {
  for (size_t i = begin; i < end; ++i) {
    PutVarint64(out, values[i].size());
    out->insert(out->end(), values[i].begin(), values[i].end());
  }
}

Status DecodeStringChunk(std::span<const uint8_t> bytes, size_t count,
                         std::vector<std::string>* out) {
  size_t pos = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t len;
    if (!GetVarint64(bytes.data(), bytes.size(), &pos, &len) ||
        len > bytes.size() - pos) {
      return Status::IoError("truncated string chunk");
    }
    out->emplace_back(reinterpret_cast<const char*>(bytes.data()) + pos, len);
    pos += len;
  }
  return Status::OK();
}

void EncodeBoolChunk(std::span<const uint8_t> values,
                     std::vector<uint8_t>* out) {
  uint8_t byte = 0;
  int bit = 0;
  for (uint8_t v : values) {
    if (v != 0) byte |= static_cast<uint8_t>(1u << bit);
    if (++bit == 8) {
      out->push_back(byte);
      byte = 0;
      bit = 0;
    }
  }
  if (bit != 0) out->push_back(byte);
}

Status DecodeBoolChunk(std::span<const uint8_t> bytes, size_t count,
                       std::vector<uint8_t>* out) {
  if (bytes.size() * 8 < count) return Status::IoError("truncated bool chunk");
  for (size_t i = 0; i < count; ++i) {
    out->push_back((bytes[i / 8] >> (i % 8)) & 1u);
  }
  return Status::OK();
}

void EncodeColumnChunk(const PropertyColumn& column, size_t begin, size_t end,
                       std::vector<uint8_t>* out) {
  switch (column.type()) {
    case PropertyType::kInt64:
      EncodeInt64Chunk(column.Int64Span().subspan(begin, end - begin), out);
      return;
    case PropertyType::kDouble:
      EncodeDoubleChunk(column.DoubleSpan().subspan(begin, end - begin), out);
      return;
    case PropertyType::kString: {
      for (size_t i = begin; i < end; ++i) {
        const std::string& s = column.GetString(i);
        PutVarint64(out, s.size());
        out->insert(out->end(), s.begin(), s.end());
      }
      return;
    }
    case PropertyType::kBool: {
      std::vector<uint8_t> bits;
      bits.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) bits.push_back(column.GetBool(i));
      EncodeBoolChunk(bits, out);
      return;
    }
    case PropertyType::kEmpty:
      return;
  }
}

Status DecodeColumnChunk(std::span<const uint8_t> bytes, size_t count,
                         PropertyColumn* column) {
  // Decodes into a typed scratch vector, then appends each value boxed.
  auto append = [&](auto decode, auto scratch) -> Status {
    FLEX_RETURN_NOT_OK(decode(bytes, count, &scratch));
    for (auto& v : scratch) {
      FLEX_RETURN_NOT_OK(column->Append(PropertyValue(std::move(v))));
    }
    return Status::OK();
  };
  switch (column->type()) {
    case PropertyType::kInt64:
      return append(DecodeInt64Chunk, std::vector<int64_t>());
    case PropertyType::kDouble:
      return append(DecodeDoubleChunk, std::vector<double>());
    case PropertyType::kString:
      return append(DecodeStringChunk, std::vector<std::string>());
    case PropertyType::kBool: {
      std::vector<uint8_t> bits;
      FLEX_RETURN_NOT_OK(DecodeBoolChunk(bytes, count, &bits));
      for (const uint8_t bit : bits) {
        FLEX_RETURN_NOT_OK(column->Append(PropertyValue(bit != 0)));
      }
      return Status::OK();
    }
    case PropertyType::kEmpty:
      return Status::OK();
  }
  return Status::Internal("bad column type");
}

}  // namespace flex::storage::graphar
