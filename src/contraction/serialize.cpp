#include "contraction/serialize.hpp"

#include <algorithm>
#include <stdexcept>

namespace parct::contract {

namespace {

constexpr std::uint64_t kMagic = 0x50415243'54434631ull;  // "PARCTCF1"
constexpr std::uint32_t kVersion = 1;

// Bounds on header fields read from untrusted input. A corrupt `capacity`
// or per-vertex `duration` must not translate into a multi-GB allocation:
// both are rejected beyond these bounds, and each is checked against the
// bytes that remain (a vertex takes at least its duration field, a round
// at least kRecordBytes) before anything is allocated for it.
constexpr std::uint64_t kMaxLoadCapacity = 1ull << 32;  // 4G vertices
constexpr std::uint32_t kMaxLoadRounds = 1u << 20;      // rounds per vertex

// One round record: parent u32, parent slot u8, kMaxDegree child ids.
constexpr std::size_t kRecordBytes =
    sizeof(VertexId) + sizeof(std::uint8_t) + kMaxDegree * sizeof(VertexId);

}  // namespace

void save(const ContractionForest& c, std::string& out) {
  using prim::append_bytes;
  append_bytes(out, kMagic);
  append_bytes(out, kVersion);
  append_bytes(out, static_cast<std::uint64_t>(c.capacity()));
  append_bytes(out, static_cast<std::uint32_t>(c.degree_bound()));
  append_bytes(out, c.seed());
  for (VertexId v = 0; v < c.capacity(); ++v) {
    const std::uint32_t d = c.duration(v);
    append_bytes(out, d);
    for (std::uint32_t i = 0; i < d; ++i) {
      const RoundRecord& r = c.record(i, v);
      append_bytes(out, r.parent);
      append_bytes(out, r.parent_slot);
      append_bytes(out, r.children.data(), r.children.size());
    }
  }
}

ContractionForest load(prim::ByteReader& in) {
  if (in.get<std::uint64_t>() != kMagic) {
    throw std::runtime_error("parct::load: bad magic");
  }
  if (in.get<std::uint32_t>() != kVersion) {
    throw std::runtime_error("parct::load: unsupported version");
  }
  const auto capacity = in.get<std::uint64_t>();
  const auto degree_bound = in.get<std::uint32_t>();
  const auto seed = in.get<std::uint64_t>();
  if (degree_bound < 1 || degree_bound > kMaxDegree) {
    throw std::runtime_error("parct::load: bad degree bound");
  }
  if (capacity > kMaxLoadCapacity) {
    throw std::runtime_error("parct::load: capacity exceeds sane bound");
  }
  in.require(capacity, sizeof(std::uint32_t));

  ContractionForest c(static_cast<std::size_t>(capacity),
                      static_cast<int>(degree_bound), seed);
  std::uint32_t max_rounds = 0;
  for (VertexId v = 0; v < capacity; ++v) {
    const auto d = in.get<std::uint32_t>();
    if (d > kMaxLoadRounds) {
      throw std::runtime_error("parct::load: vertex duration exceeds bound");
    }
    if (d == 0) continue;
    in.require(d, kRecordBytes);
    c.set_duration(v, d);
    c.ensure_round(v, d - 1);
    max_rounds = std::max(max_rounds, d);
    for (std::uint32_t i = 0; i < d; ++i) {
      RoundRecord& r = c.record_mut(i, v);
      r.parent = in.get<VertexId>();
      r.parent_slot = in.get<std::uint8_t>();
      in.get(r.children.data(), r.children.size());
    }
  }
  // Re-derive the coin schedule far enough for the recorded rounds (and
  // one extra, like the algorithms keep). max_rounds is bounded by
  // kMaxLoadRounds above, so the +1 cannot wrap.
  c.coins().ensure_rounds(max_rounds + 1);
  return c;
}

}  // namespace parct::contract
