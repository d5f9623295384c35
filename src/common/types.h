#ifndef POLARDB_IMCI_COMMON_TYPES_H_
#define POLARDB_IMCI_COMMON_TYPES_H_

#include <cstdint>
#include <string>
#include <variant>

namespace imci {

/// Core identifier types used throughout the system. They mirror the paper's
/// vocabulary: LSN for log sequence numbers (§5.1), TID for transaction ids,
/// RID for the insertion-order row id inside a column index (§4.1), and VID
/// for the MVCC version id / commit sequence number (§4.1).
using Lsn = uint64_t;
using Tid = uint64_t;
using Rid = uint64_t;
using Vid = uint64_t;
using PageId = uint64_t;
using TableId = uint32_t;

/// Sentinel VID meaning "not yet deleted" (delete VID of a live version) or
/// "invisible" depending on context; see VidMap.
inline constexpr Vid kMaxVid = ~0ull;
/// Invalid VID used by large-transaction pre-commit (§5.5): rows written with
/// kInvalidVid are invisible to every snapshot until rectified at commit.
inline constexpr Vid kInvalidVid = ~0ull;
inline constexpr Rid kInvalidRid = ~0ull;
inline constexpr PageId kInvalidPageId = ~0ull;

/// Column data types supported by both the row store and the column index.
/// DATE is stored as days since 1970-01-01 in an int32 lane.
enum class DataType : uint8_t {
  kInt64 = 0,
  kInt32 = 1,
  kDouble = 2,
  kString = 3,
  kDate = 4,
};

inline bool IsIntegerType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kInt32 ||
         t == DataType::kDate;
}

/// A dynamically typed cell value. Null is represented by monostate.
/// Integer-family types (INT64/INT32/DATE) all use the int64_t alternative.
using Value = std::variant<std::monostate, int64_t, double, std::string>;

inline bool IsNull(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}
inline int64_t AsInt(const Value& v) { return std::get<int64_t>(v); }
inline double AsDouble(const Value& v) { return std::get<double>(v); }
inline const std::string& AsString(const Value& v) {
  return std::get<std::string>(v);
}

/// Numeric view of a value: integers widen to double. Used by the row-engine
/// expression interpreter.
inline double NumericValue(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return static_cast<double>(std::get<int64_t>(v));
  }
  return std::get<double>(v);
}

std::string ValueToString(const Value& v);

/// Total order over values of the same type family; nulls sort first.
int CompareValues(const Value& a, const Value& b);

/// Packs a calendar date into the day-number representation used by DATE
/// columns. Proleptic Gregorian, no validation beyond basic ranges.
int32_t MakeDate(int year, int month, int day);
/// Extracts the year of a DATE day-number (inverse of MakeDate for years).
int32_t DateYear(int32_t days);
std::string DateToString(int32_t days);

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_TYPES_H_
