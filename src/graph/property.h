#ifndef FLEX_GRAPH_PROPERTY_H_
#define FLEX_GRAPH_PROPERTY_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace flex {

/// Property value types supported by the labeled-property-graph model
/// (Figure 2 of the paper: vertices/edges carry typed key-value pairs).
enum class PropertyType : uint8_t {
  kEmpty = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
};

const char* PropertyTypeName(PropertyType type);

/// True when `d` converts to int64 without undefined behaviour: it is not
/// NaN and lies in [-2^63, 2^63).
inline bool FitsInt64(double d) { return d >= -0x1p63 && d < 0x1p63; }

/// A dynamically typed property value. Columnar stores keep properties in
/// typed arrays; PropertyValue is the boxed form that crosses the GraphIR /
/// query-language boundary.
class PropertyValue {
 public:
  PropertyValue() : value_(std::monostate{}) {}
  PropertyValue(bool v) : value_(v) {}          // NOLINT(runtime/explicit)
  PropertyValue(int64_t v) : value_(v) {}       // NOLINT(runtime/explicit)
  PropertyValue(int v)                          // NOLINT(runtime/explicit)
      : value_(static_cast<int64_t>(v)) {}
  PropertyValue(double v) : value_(v) {}        // NOLINT(runtime/explicit)
  PropertyValue(std::string v)                  // NOLINT(runtime/explicit)
      : value_(std::move(v)) {}
  PropertyValue(const char* v)                  // NOLINT(runtime/explicit)
      : value_(std::string(v)) {}

  PropertyType type() const {
    return static_cast<PropertyType>(value_.index());
  }

  bool is_empty() const { return type() == PropertyType::kEmpty; }
  bool is_numeric() const { return IsNumericType(type()); }

  bool AsBool() const { return std::get<bool>(value_); }
  int64_t AsInt64() const { return std::get<int64_t>(value_); }
  double AsDouble() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }

  /// Numeric widening view: int64 and double both render as double.
  /// Precondition: type() is kInt64 or kDouble.
  double AsNumeric() const {
    if (type() == PropertyType::kInt64) return static_cast<double>(AsInt64());
    return AsDouble();
  }

  bool operator==(const PropertyValue& other) const {
    if (type() != other.type()) {
      // Allow 1 == 1.0 across the numeric types, as query languages do.
      if (IsNumericType(type()) && IsNumericType(other.type())) {
        return AsNumeric() == other.AsNumeric();
      }
      return false;
    }
    return value_ == other.value_;
  }
  bool operator!=(const PropertyValue& other) const {
    return !(*this == other);
  }

  /// Three-way comparison used by ORDER/SELECT. Values of incomparable
  /// types order by type id (stable but arbitrary), as Cypher does.
  int Compare(const PropertyValue& other) const;

  bool operator<(const PropertyValue& other) const {
    return Compare(other) < 0;
  }

  std::string ToString() const;

  /// 64-bit hash for GROUP/DEDUP keys.
  uint64_t Hash() const;

 private:
  static bool IsNumericType(PropertyType t) {
    return t == PropertyType::kInt64 || t == PropertyType::kDouble;
  }

  std::variant<std::monostate, bool, int64_t, double, std::string> value_;
};

}  // namespace flex

#endif  // FLEX_GRAPH_PROPERTY_H_
