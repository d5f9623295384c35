#include "imci/compression.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/coding.h"

namespace imci {

namespace {

int BitsFor(uint64_t range) {
  if (range == 0) return 0;
  return 64 - __builtin_clzll(range);
}

void BitPack(const std::vector<uint64_t>& vals, int bits, std::string* out) {
  uint64_t acc = 0;
  int acc_bits = 0;
  for (uint64_t v : vals) {
    acc |= v << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      out->push_back(static_cast<char>(acc & 0xFF));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out->push_back(static_cast<char>(acc & 0xFF));
}

Status BitUnpack(const char* data, size_t size, size_t count, int bits,
                 std::vector<uint64_t>* vals) {
  vals->resize(count);
  if (bits == 0) {
    std::fill(vals->begin(), vals->end(), 0);
    return Status::OK();
  }
  const size_t need = (count * bits + 7) / 8;
  if (size < need) return Status::Corruption("bitpack underflow");
  uint64_t acc = 0;
  int acc_bits = 0;
  size_t pos = 0;
  const uint64_t mask = bits == 64 ? ~0ull : ((1ull << bits) - 1);
  for (size_t i = 0; i < count; ++i) {
    while (acc_bits < bits && pos < size) {
      acc |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos++]))
             << acc_bits;
      acc_bits += 8;
    }
    (*vals)[i] = acc & mask;
    acc >>= bits;
    acc_bits -= bits;
  }
  return Status::OK();
}

}  // namespace

void IntCodec::Encode(const std::vector<int64_t>& values, std::string* out) {
  const uint32_t n = static_cast<uint32_t>(values.size());
  PutFixed32(out, n);
  if (n == 0) return;
  // All range math is unsigned (mod 2^64): differences of extreme int64
  // values wrap correctly and decode reverses them exactly.
  auto u = [](int64_t v) { return static_cast<uint64_t>(v); };
  // Candidate 1: frame-of-reference on raw values.
  int64_t mn = values[0], mx = values[0];
  for (int64_t v : values) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  const int raw_bits = BitsFor(u(mx) - u(mn));
  // Candidate 2: delta encoding (first value + FOR over deltas).
  uint64_t dmn = 0, dmx = 0;
  if (n > 1) {
    dmn = dmx = u(values[1]) - u(values[0]);
    for (uint32_t i = 2; i < n; ++i) {
      const uint64_t d = u(values[i]) - u(values[i - 1]);
      // Compare as signed deltas for a meaningful min/max window.
      if (static_cast<int64_t>(d) < static_cast<int64_t>(dmn)) dmn = d;
      if (static_cast<int64_t>(d) > static_cast<int64_t>(dmx)) dmx = d;
    }
  }
  const int delta_bits = n > 1 ? BitsFor(dmx - dmn) : 64;
  // Bit widths beyond 56 cannot be streamed through the byte accumulator;
  // fall back to raw 8-byte storage (mode 2).
  const bool use_delta = n > 1 && delta_bits < raw_bits && delta_bits <= 56;
  const bool use_raw = !use_delta && raw_bits > 56;

  out->push_back(use_delta ? 1 : (use_raw ? 2 : 0));
  if (use_delta) {
    PutFixed64(out, u(values[0]));
    PutFixed64(out, dmn);
    out->push_back(static_cast<char>(delta_bits));
    std::vector<uint64_t> packed(n - 1);
    for (uint32_t i = 1; i < n; ++i) {
      packed[i - 1] = (u(values[i]) - u(values[i - 1])) - dmn;
    }
    BitPack(packed, delta_bits, out);
  } else if (use_raw) {
    for (uint32_t i = 0; i < n; ++i) PutFixed64(out, u(values[i]));
  } else {
    PutFixed64(out, u(mn));
    out->push_back(static_cast<char>(raw_bits));
    std::vector<uint64_t> packed(n);
    for (uint32_t i = 0; i < n; ++i) packed[i] = u(values[i]) - u(mn);
    BitPack(packed, raw_bits, out);
  }
}

Status IntCodec::Decode(const std::string& data, std::vector<int64_t>* values) {
  if (data.size() < 4) return Status::Corruption("intpack header");
  uint32_t n = GetFixed32(data.data());
  values->clear();
  if (n == 0) return Status::OK();
  size_t pos = 4;
  if (pos + 1 > data.size()) return Status::Corruption("intpack mode");
  const uint8_t mode = static_cast<uint8_t>(data[pos++]);
  if (mode == 2) {
    if (pos + 8ull * n > data.size()) return Status::Corruption("raw ints");
    values->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      (*values)[i] = static_cast<int64_t>(GetFixed64(data.data() + pos));
      pos += 8;
    }
    return Status::OK();
  }
  const bool use_delta = mode == 1;
  if (use_delta) {
    if (pos + 17 > data.size()) return Status::Corruption("intpack delta hdr");
    int64_t first = static_cast<int64_t>(GetFixed64(data.data() + pos));
    uint64_t dmn = GetFixed64(data.data() + pos + 8);
    int bits = static_cast<unsigned char>(data[pos + 16]);
    pos += 17;
    std::vector<uint64_t> packed;
    IMCI_RETURN_NOT_OK(
        BitUnpack(data.data() + pos, data.size() - pos, n - 1, bits, &packed));
    values->resize(n);
    (*values)[0] = first;
    for (uint32_t i = 1; i < n; ++i) {
      (*values)[i] = static_cast<int64_t>(
          static_cast<uint64_t>((*values)[i - 1]) +
          static_cast<uint64_t>(dmn) + packed[i - 1]);
    }
  } else {
    if (pos + 9 > data.size()) return Status::Corruption("intpack for hdr");
    int64_t mn = static_cast<int64_t>(GetFixed64(data.data() + pos));
    int bits = static_cast<unsigned char>(data[pos + 8]);
    pos += 9;
    std::vector<uint64_t> packed;
    IMCI_RETURN_NOT_OK(
        BitUnpack(data.data() + pos, data.size() - pos, n, bits, &packed));
    values->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      (*values)[i] =
          static_cast<int64_t>(static_cast<uint64_t>(mn) + packed[i]);
    }
  }
  return Status::OK();
}

void DictCodec::Encode(const std::vector<std::string>& values,
                       std::string* out) {
  const uint32_t n = static_cast<uint32_t>(values.size());
  PutFixed32(out, n);
  if (n == 0) return;
  std::map<std::string, uint32_t> dict;
  for (const std::string& s : values) dict.emplace(s, 0);
  uint32_t next = 0;
  for (auto& [s, code] : dict) code = next++;
  PutFixed32(out, static_cast<uint32_t>(dict.size()));
  for (const auto& [s, code] : dict) {
    PutFixed32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  }
  const int bits = BitsFor(dict.size() > 0 ? dict.size() - 1 : 0);
  out->push_back(static_cast<char>(bits));
  std::vector<uint64_t> codes(n);
  for (uint32_t i = 0; i < n; ++i) codes[i] = dict[values[i]];
  BitPack(codes, bits, out);
}

Status DictCodec::Decode(const std::string& data,
                         std::vector<std::string>* values) {
  if (data.size() < 4) return Status::Corruption("dict header");
  uint32_t n = GetFixed32(data.data());
  values->clear();
  if (n == 0) return Status::OK();
  if (data.size() < 8) return Status::Corruption("dict size");
  uint32_t dict_size = GetFixed32(data.data() + 4);
  size_t pos = 8;
  std::vector<std::string> dict(dict_size);
  for (uint32_t i = 0; i < dict_size; ++i) {
    if (pos + 4 > data.size()) return Status::Corruption("dict entry len");
    uint32_t len = GetFixed32(data.data() + pos);
    pos += 4;
    if (pos + len > data.size()) return Status::Corruption("dict entry");
    dict[i].assign(data.data() + pos, len);
    pos += len;
  }
  if (pos + 1 > data.size()) return Status::Corruption("dict bits");
  int bits = static_cast<unsigned char>(data[pos++]);
  std::vector<uint64_t> codes;
  IMCI_RETURN_NOT_OK(
      BitUnpack(data.data() + pos, data.size() - pos, n, bits, &codes));
  values->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (codes[i] >= dict_size) return Status::Corruption("dict code");
    (*values)[i] = dict[codes[i]];
  }
  return Status::OK();
}

void DoubleCodec::Encode(const std::vector<double>& values, std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(values.size()));
  for (double d : values) {
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    PutFixed64(out, bits);
  }
}

Status DoubleCodec::Decode(const std::string& data,
                           std::vector<double>* values) {
  if (data.size() < 4) return Status::Corruption("double header");
  uint32_t n = GetFixed32(data.data());
  if (data.size() < 4 + 8ull * n) return Status::Corruption("double body");
  values->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t bits = GetFixed64(data.data() + 4 + 8ull * i);
    std::memcpy(&(*values)[i], &bits, 8);
  }
  return Status::OK();
}

}  // namespace imci
