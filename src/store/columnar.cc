#include "store/columnar.h"

#include <fstream>

namespace tcmf::store {

namespace {

constexpr char kMagic[8] = {'T', 'C', 'M', 'F', 'C', 'O', 'L', '1'};

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool ReadVarint(const std::string& data, size_t* pos, uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < data.size()) {
    uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return true;
    }
    shift += 7;
    if (shift >= 64) return false;
  }
  return false;
}

std::string EncodeColumn(const std::vector<uint64_t>& values) {
  std::string out;
  AppendVarint(&out, values.size());
  uint64_t prev = 0;
  for (uint64_t v : values) {
    // Wrapping unsigned difference: the same bits as the signed delta,
    // without signed overflow on ids far apart.
    AppendVarint(&out, ZigZag(static_cast<int64_t>(v - prev)));
    prev = v;
  }
  return out;
}

Result<std::vector<uint64_t>> DecodeColumn(const std::string& data) {
  size_t pos = 0;
  uint64_t count;
  if (!ReadVarint(data, &pos, &count)) {
    return Status::ParseError("columnar: truncated count");
  }
  // Every value takes at least one byte, so a larger count is corrupt
  // (and must not size the allocation below).
  if (count > data.size() - pos) {
    return Status::ParseError("columnar: count exceeds column bytes");
  }
  std::vector<uint64_t> values;
  values.reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t raw;
    if (!ReadVarint(data, &pos, &raw)) {
      return Status::ParseError("columnar: truncated value");
    }
    prev += static_cast<uint64_t>(UnZigZag(raw));
    values.push_back(prev);
  }
  return values;
}

Status WriteTriplePartition(const std::string& path,
                            const std::vector<rdf::EncodedTriple>& triples) {
  std::vector<uint64_t> s, p, o;
  s.reserve(triples.size());
  p.reserve(triples.size());
  o.reserve(triples.size());
  for (const rdf::EncodedTriple& t : triples) {
    s.push_back(t.s);
    p.push_back(t.p);
    o.push_back(t.o);
  }
  std::string sc = EncodeColumn(s);
  std::string pc = EncodeColumn(p);
  std::string oc = EncodeColumn(o);

  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::IoError("cannot open partition for writing: " + path);
  }
  out.write(kMagic, sizeof(kMagic));
  std::string header;
  AppendVarint(&header, sc.size());
  AppendVarint(&header, pc.size());
  AppendVarint(&header, oc.size());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(sc.data(), static_cast<std::streamsize>(sc.size()));
  out.write(pc.data(), static_cast<std::streamsize>(pc.size()));
  out.write(oc.data(), static_cast<std::streamsize>(oc.size()));
  out.close();
  if (out.fail()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<std::vector<rdf::EncodedTriple>> ReadTriplePartition(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open partition: " + path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (data.size() < sizeof(kMagic) ||
      std::string_view(data.data(), sizeof(kMagic)) !=
          std::string_view(kMagic, sizeof(kMagic))) {
    return Status::ParseError("bad partition magic: " + path);
  }
  size_t pos = sizeof(kMagic);
  uint64_t slen, plen, olen;
  if (!ReadVarint(data, &pos, &slen) || !ReadVarint(data, &pos, &plen) ||
      !ReadVarint(data, &pos, &olen)) {
    return Status::ParseError("bad partition header: " + path);
  }
  // Each length is checked against the bytes it may still claim, so a
  // crafted header cannot wrap the sum past the file size.
  const size_t left = data.size() - pos;
  if (slen > left || plen > left - slen || olen > left - slen - plen) {
    return Status::ParseError("truncated partition: " + path);
  }
  auto s = DecodeColumn(data.substr(pos, slen));
  auto p = DecodeColumn(data.substr(pos + slen, plen));
  auto o = DecodeColumn(data.substr(pos + slen + plen, olen));
  if (!s.ok()) return s.status();
  if (!p.ok()) return p.status();
  if (!o.ok()) return o.status();
  if (s.value().size() != p.value().size() ||
      s.value().size() != o.value().size()) {
    return Status::ParseError("column length mismatch: " + path);
  }
  std::vector<rdf::EncodedTriple> out;
  out.reserve(s.value().size());
  for (size_t i = 0; i < s.value().size(); ++i) {
    out.push_back({s.value()[i], p.value()[i], o.value()[i]});
  }
  return out;
}

}  // namespace tcmf::store
