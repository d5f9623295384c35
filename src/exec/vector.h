#ifndef POLARDB_IMCI_EXEC_VECTOR_H_
#define POLARDB_IMCI_EXEC_VECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace imci {

/// A column of values inside an execution batch. Numeric lanes are dense
/// arrays so the expression kernels compile to tight (auto-vectorizable,
/// SIMD) loops; nulls are a parallel byte mask.
struct ColumnVector {
  DataType type = DataType::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<std::string> strs;
  std::vector<uint8_t> nulls;

  explicit ColumnVector(DataType t = DataType::kInt64) : type(t) {}

  size_t size() const { return nulls.size(); }

  void Reserve(size_t n) {
    nulls.reserve(n);
    if (type == DataType::kDouble) {
      dbls.reserve(n);
    } else if (type == DataType::kString) {
      strs.reserve(n);
    } else {
      ints.reserve(n);
    }
  }

  void Resize(size_t n) {
    nulls.resize(n, 0);
    if (type == DataType::kDouble) {
      dbls.resize(n, 0.0);
    } else if (type == DataType::kString) {
      strs.resize(n);
    } else {
      ints.resize(n, 0);
    }
  }

  /// Empties every lane, keeping capacity (for reuse as an Eval target).
  void Clear() {
    ints.clear();
    dbls.clear();
    strs.clear();
    nulls.clear();
  }

  void AppendNull() {
    nulls.push_back(1);
    if (type == DataType::kDouble) {
      dbls.push_back(0.0);
    } else if (type == DataType::kString) {
      strs.emplace_back();
    } else {
      ints.push_back(0);
    }
  }

  void AppendInt(int64_t v) {
    nulls.push_back(0);
    ints.push_back(v);
  }
  void AppendDouble(double v) {
    nulls.push_back(0);
    dbls.push_back(v);
  }
  void AppendString(std::string v) {
    nulls.push_back(0);
    strs.push_back(std::move(v));
  }

  void AppendValue(const Value& v) {
    if (IsNull(v)) {
      AppendNull();
    } else if (type == DataType::kDouble) {
      AppendDouble(NumericValue(v));
    } else if (type == DataType::kString) {
      AppendString(AsString(v));
    } else {
      AppendInt(AsInt(v));
    }
  }

  Value GetValue(size_t i) const {
    if (nulls[i]) return Value{};
    if (type == DataType::kDouble) return dbls[i];
    if (type == DataType::kString) return strs[i];
    return ints[i];
  }

  /// Copies row `i` of `src` onto the end of this vector.
  void AppendFrom(const ColumnVector& src, size_t i) {
    if (src.nulls[i]) {
      AppendNull();
    } else if (type == DataType::kDouble) {
      AppendDouble(src.dbls[i]);
    } else if (type == DataType::kString) {
      AppendString(src.strs[i]);
    } else {
      AppendInt(src.ints[i]);
    }
  }

  /// Numeric view of row i (integers widen); caller guarantees non-null.
  double NumericAt(size_t i) const {
    return type == DataType::kDouble ? dbls[i]
                                     : static_cast<double>(ints[i]);
  }
};

/// A batch of rows in columnar layout — the unit that streams through the
/// pipeline ("batch-at-a-time" operators, §6.3). Default batch height 2048.
struct Batch {
  static constexpr size_t kDefaultCapacity = 2048;
  std::vector<ColumnVector> cols;
  size_t rows = 0;

  int num_cols() const { return static_cast<int>(cols.size()); }

  static Batch Make(const std::vector<DataType>& types) {
    Batch b;
    b.cols.reserve(types.size());
    for (DataType t : types) b.cols.emplace_back(t);
    return b;
  }

  void AppendRowFrom(const Batch& src, size_t i) {
    for (int c = 0; c < num_cols(); ++c) cols[c].AppendFrom(src.cols[c], i);
    ++rows;
  }
};

/// A fully materialized operator result: the intermediate representation
/// between blocking operators.
struct RowSet {
  std::vector<DataType> types;
  std::vector<Batch> batches;

  uint64_t TotalRows() const {
    uint64_t n = 0;
    for (const Batch& b : batches) n += b.rows;
    return n;
  }
};

}  // namespace imci

#endif  // POLARDB_IMCI_EXEC_VECTOR_H_
