#include "graph/property.h"

#include <cmath>
#include <cstring>
#include <functional>

namespace flex {

const char* PropertyTypeName(PropertyType type) {
  switch (type) {
    case PropertyType::kEmpty:
      return "empty";
    case PropertyType::kBool:
      return "bool";
    case PropertyType::kInt64:
      return "int64";
    case PropertyType::kDouble:
      return "double";
    case PropertyType::kString:
      return "string";
  }
  return "unknown";
}

int PropertyValue::Compare(const PropertyValue& other) const {
  const PropertyType a = type();
  const PropertyType b = other.type();
  if (IsNumericType(a) && IsNumericType(b)) {
    const double x = AsNumeric();
    const double y = other.AsNumeric();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a != b) return static_cast<int>(a) < static_cast<int>(b) ? -1 : 1;
  switch (a) {
    case PropertyType::kEmpty:
      return 0;
    case PropertyType::kBool:
      return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
    case PropertyType::kString: {
      const int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;  // Numeric cases handled above.
  }
}

std::string PropertyValue::ToString() const {
  switch (type()) {
    case PropertyType::kEmpty:
      return "null";
    case PropertyType::kBool:
      return AsBool() ? "true" : "false";
    case PropertyType::kInt64:
      return std::to_string(AsInt64());
    case PropertyType::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case PropertyType::kString:
      return AsString();
  }
  return "?";
}

uint64_t PropertyValue::Hash() const {
  constexpr uint64_t kMul = 0x9DDFEA08EB382D69ULL;
  uint64_t h = static_cast<uint64_t>(type()) * kMul;
  switch (type()) {
    case PropertyType::kEmpty:
      break;
    case PropertyType::kBool:
      h ^= static_cast<uint64_t>(AsBool());
      break;
    case PropertyType::kInt64:
      h ^= static_cast<uint64_t>(AsInt64()) * kMul;
      break;
    case PropertyType::kDouble: {
      // Normalize so 1.0 and int64(1) hash alike (they compare equal).
      const double d = AsDouble();
      if (FitsInt64(d) && d == std::trunc(d)) {
        h = static_cast<uint64_t>(PropertyType::kInt64) * kMul;
        h ^= static_cast<uint64_t>(static_cast<int64_t>(d)) * kMul;
      } else {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        h ^= bits * kMul;
      }
      break;
    }
    case PropertyType::kString:
      h ^= std::hash<std::string>{}(AsString());
      break;
  }
  h ^= h >> 33;
  h *= kMul;
  h ^= h >> 29;
  return h;
}

}  // namespace flex
