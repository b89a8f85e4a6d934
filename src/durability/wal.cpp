#include "durability/wal.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string_view>

#include "durability/crc32.hpp"
#include "primitives/bytes.hpp"

namespace parct::durability {

namespace {

constexpr std::uint64_t kMaxWeightPairs = 1ull << 32;

// A frame starts with the payload length (u32) and the payload's CRC32
// (u32); the payload follows.
constexpr std::size_t kFrameHeaderBytes = 2 * sizeof(std::uint32_t);

// Frames up to this size never grow a writer's encode buffer.
constexpr std::size_t kFrameReserveBytes = 4096;

// The zeros segments are created with and extended by, allocated by the
// first segment creation (so appends never allocate) and kept for the
// process.
const char* zero_chunk() {
  static const char* const zeros =
      static_cast<const char*>(std::calloc(kWalChunkBytes, 1));
  if (zeros == nullptr) throw std::bad_alloc();
  return zeros;
}

bool all_zero(std::string_view bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](char c) { return c == 0; });
}

// Decodes one CRC-checked payload; false if it is not exactly one record.
bool decode_payload(std::string_view payload, WalRecord& rec) {
  prim::ByteReader in(payload, "parct::durability: WAL payload");
  try {
    if (in.get<std::uint16_t>() != kWalFormatVersion) return false;
    rec.version = in.get<std::uint64_t>();
    rec.batch = forest::load_change_set(in);
    const auto n = in.get<std::uint64_t>();
    if (n > kMaxWeightPairs) return false;
    in.require(n, sizeof(VertexId) + sizeof(std::int64_t));
    rec.vertex_weights.resize(static_cast<std::size_t>(n));
    for (auto& [v, w] : rec.vertex_weights) {
      v = in.get<VertexId>();
      w = static_cast<Weight>(in.get<std::int64_t>());
    }
    in.expect_end();
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

}  // namespace

std::string wal_filename(std::uint64_t base_version) {
  return "wal-" + std::to_string(base_version) + ".log";
}

std::optional<std::uint64_t> wal_base_of(const std::string& filename) {
  constexpr std::string_view prefix = "wal-";
  constexpr std::string_view suffix = ".log";
  if (filename.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (filename.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return std::nullopt;
  }
  const std::string_view digits(filename.data() + prefix.size(),
                                filename.size() - prefix.size() -
                                    suffix.size());
  std::uint64_t base = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), base);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return base;
}

WalWriter::WalWriter(const std::string& dir, std::uint64_t base_version,
                     bool* renamed)
    : path_(dir + "/" + wal_filename(base_version)), base_(base_version) {
  const std::string tmp = path_ + ".tmp";
  fd_ = detail::open_trunc(tmp);
  std::string header;
  prim::append_bytes(header, kWalMagic);
  prim::append_bytes(header, kWalFormatVersion);
  prim::append_bytes(header, base_);
  detail::write_fully(fd_, header.data(), header.size(), 0, tmp);
  detail::write_fully(fd_, zero_chunk(), kWalChunkBytes, header.size(), tmp);
  detail::durable_sync(fd_, tmp);
  detail::rename_into_place(tmp, path_);
  if (renamed != nullptr) *renamed = true;
  detail::sync_dir(dir);
  bytes_ = header.size();
  allocated_ = bytes_ + kWalChunkBytes;
  frame_.reserve(kFrameReserveBytes);
}

void WalWriter::append(
    std::uint64_t version, const forest::ChangeSet& batch,
    const std::vector<std::pair<VertexId, Weight>>& vertex_weights) {
  // Payload: record format (u16), service version (u64), the ChangeSet
  // binary encoding, then the (vertex, weight) assignments. The frame
  // header in front of it is filled in once the payload is complete.
  using prim::append_bytes;
  frame_.assign(kFrameHeaderBytes, '\0');
  append_bytes(frame_, static_cast<std::uint16_t>(kWalFormatVersion));
  append_bytes(frame_, version);
  forest::save_change_set(batch, frame_);
  append_bytes(frame_, static_cast<std::uint64_t>(vertex_weights.size()));
  for (const auto& [v, w] : vertex_weights) {
    append_bytes(frame_, v);
    append_bytes(frame_, static_cast<std::int64_t>(w));
  }
  const std::size_t len = frame_.size() - kFrameHeaderBytes;
  const auto len32 = static_cast<std::uint32_t>(len);
  const std::uint32_t crc = crc32(frame_.data() + kFrameHeaderBytes, len);
  std::memcpy(frame_.data(), &len32, sizeof len32);
  std::memcpy(frame_.data() + sizeof len32, &crc, sizeof crc);

  // Fault site: a crash mid-append. A firing hit writes only a prefix of
  // the frame — a genuinely torn tail record for recovery to detect.
  if (PARCT_FAULT_POINT(fault::Site::kWalAppend)) {
    detail::write_fully(fd_, frame_.data(), frame_.size() / 2, bytes_,
                        path_);
    throw fault::InjectedFault(fault::Site::kWalAppend);
  }
  const std::uint64_t end = bytes_ + frame_.size();
  detail::write_fully(fd_, frame_.data(), frame_.size(), bytes_, path_);
  if (end <= allocated_) {
    // Inside the zero-filled region: the file's length and blocks are
    // already durable, so flushing the data is enough.
    detail::data_sync(fd_, path_);
  } else {
    // The frame crosses the zero-filled end: grow the file by whole
    // chunks past it (less than one chunk of zeros after the frame), and
    // fsync the new length along with the data.
    const std::uint64_t chunks =
        (end - allocated_ + kWalChunkBytes - 1) / kWalChunkBytes;
    const std::uint64_t grown = allocated_ + chunks * kWalChunkBytes;
    detail::write_fully(fd_, zero_chunk(),
                        static_cast<std::size_t>(grown - end), end, path_);
    detail::durable_sync(fd_, path_);
    allocated_ = grown;
  }
  ++records_;
  bytes_ = end;
}

SegmentContents read_wal_segment(const std::string& path) {
  // One buffer of the file's size: the zero tail makes even a short
  // segment a quarter MiB, so payloads are decoded where they lie.
  const std::string buf = detail::read_file(path);
  prim::ByteReader in(buf, "parct::durability: WAL segment");

  SegmentContents seg;
  constexpr std::size_t kHeaderBytes =
      sizeof kWalMagic + sizeof kWalFormatVersion + sizeof seg.base_version;
  if (in.remaining() < kHeaderBytes || in.get<std::uint64_t>() != kWalMagic ||
      in.get<std::uint32_t>() != kWalFormatVersion) {
    // Torn or foreign header: the segment contributes nothing.
    seg.clean = false;
    return seg;
  }
  seg.base_version = in.get<std::uint64_t>();
  for (;;) {
    const std::uint32_t len = in.remaining() < sizeof(std::uint32_t)
                                  ? 0
                                  : in.get<std::uint32_t>();
    if (len == 0) {
      // End of the records: the end of the file, or the zero length field
      // where a preallocated segment's zero tail starts. No real payload
      // is empty, so anything but zeros from here on is a torn tail.
      seg.clean = all_zero(in.take(in.remaining()));
      break;
    }
    if (in.remaining() < sizeof(std::uint32_t) + std::size_t{len}) {
      seg.clean = false;  // torn tail: frame header or payload cut short
      break;
    }
    const auto crc = in.get<std::uint32_t>();
    const std::string_view payload = in.take(len);
    WalRecord rec;
    if (crc32(payload) != crc || !decode_payload(payload, rec)) {
      seg.clean = false;  // corrupt record: stop at the intact prefix
      break;
    }
    seg.records.push_back(std::move(rec));
  }
  return seg;
}

}  // namespace parct::durability
