#include "durability/checkpoint.hpp"

#include <cstring>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "contraction/serialize.hpp"
#include "durability/crc32.hpp"
#include "durability/posix_io.hpp"
#include "rc/tree_aggregate.hpp"

namespace parct::durability {

namespace {

constexpr std::uint32_t kSectionForest = 1;
constexpr std::uint32_t kSectionWeights = 2;
constexpr std::uint32_t kSectionCount = 2;
// A section larger than this is header corruption, not data: it bounds
// the substr allocation while parsing an untrusted file.
constexpr std::uint64_t kMaxSectionBytes = 1ull << 40;

template <typename T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
bool get(const std::string& buf, std::size_t& pos, T& value) {
  if (pos > buf.size() || buf.size() - pos < sizeof value) return false;
  std::memcpy(&value, buf.data() + pos, sizeof value);
  pos += sizeof value;
  return true;
}

void append_section(std::string& out, std::uint32_t id,
                    const std::string& payload) {
  put(out, id);
  put(out, static_cast<std::uint64_t>(payload.size()));
  out += payload;
  put(out, crc32(payload));
}

[[noreturn]] void corrupt(const std::string& path, const char* what) {
  throw std::runtime_error("parct::durability: checkpoint '" + path +
                           "': " + what);
}

}  // namespace

std::string checkpoint_filename(std::uint64_t version) {
  return "checkpoint-" + std::to_string(version) + ".ckpt";
}

std::optional<std::uint64_t> checkpoint_version_of(
    const std::string& filename) {
  constexpr std::string_view prefix = "checkpoint-";
  constexpr std::string_view suffix = ".ckpt";
  if (filename.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (filename.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return std::nullopt;
  }
  const std::string_view digits(filename.data() + prefix.size(),
                                filename.size() - prefix.size() -
                                    suffix.size());
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return v;
}

std::string write_checkpoint(const std::string& dir, std::uint64_t version,
                             const contract::ContractionForest& c,
                             const std::vector<Weight>& weights) {
  // Serialize both sections in memory first: the hardened save paths
  // throw on stream failure, and nothing touches the directory until the
  // full image is ready.
  std::ostringstream forest_bytes;
  contract::save(c, forest_bytes);
  std::ostringstream weight_bytes;
  rc::save_weight_table(weights, weight_bytes);

  std::string image;
  put(image, kCheckpointMagic);
  put(image, kCheckpointFormatVersion);
  put(image, version);
  put(image, kSectionCount);
  append_section(image, kSectionForest, forest_bytes.str());
  append_section(image, kSectionWeights, weight_bytes.str());

  const std::string final_path = dir + "/" + checkpoint_filename(version);
  const std::string tmp_path = final_path + ".tmp";
  {
    detail::Fd fd = detail::open_trunc(tmp_path);
    detail::write_fully(fd, image.data(), image.size(), 0, tmp_path);
    detail::durable_sync(fd, tmp_path);
  }
  detail::rename_into_place(tmp_path, final_path);
  detail::sync_dir(dir);
  return final_path;
}

Checkpoint read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) corrupt(path, "cannot open");
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string buf = raw.str();

  std::size_t pos = 0;
  std::uint64_t magic = 0;
  std::uint32_t fmt = 0;
  std::uint64_t version = 0;
  std::uint32_t sections = 0;
  if (!get(buf, pos, magic) || magic != kCheckpointMagic) {
    corrupt(path, "bad magic");
  }
  if (!get(buf, pos, fmt) || fmt != kCheckpointFormatVersion) {
    corrupt(path, "unsupported container version");
  }
  if (!get(buf, pos, version)) corrupt(path, "truncated header");
  if (!get(buf, pos, sections) || sections != kSectionCount) {
    corrupt(path, "unexpected section count");
  }

  std::string forest_payload;
  std::string weight_payload;
  for (std::uint32_t s = 0; s < sections; ++s) {
    std::uint32_t id = 0;
    std::uint64_t len = 0;
    if (!get(buf, pos, id) || !get(buf, pos, len)) {
      corrupt(path, "truncated section header");
    }
    if (len > kMaxSectionBytes || buf.size() - pos < len) {
      corrupt(path, "truncated section payload");
    }
    std::string payload = buf.substr(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    std::uint32_t crc = 0;
    if (!get(buf, pos, crc)) corrupt(path, "truncated section trailer");
    if (crc32(payload) != crc) corrupt(path, "section CRC mismatch");
    if (id == kSectionForest) {
      forest_payload = std::move(payload);
    } else if (id == kSectionWeights) {
      weight_payload = std::move(payload);
    } else {
      corrupt(path, "unknown section id");
    }
  }
  if (pos != buf.size()) corrupt(path, "trailing bytes");
  if (forest_payload.empty() || weight_payload.empty()) {
    corrupt(path, "missing section");
  }

  std::istringstream forest_in(forest_payload);
  contract::ContractionForest forest = contract::load(forest_in);
  std::istringstream weight_in(weight_payload);
  std::vector<Weight> weights =
      rc::load_weight_table<Weight>(weight_in, forest.capacity());
  return Checkpoint{version, std::move(forest), std::move(weights)};
}

}  // namespace parct::durability
