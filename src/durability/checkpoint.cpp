#include "durability/checkpoint.hpp"

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "contraction/serialize.hpp"
#include "durability/crc32.hpp"
#include "durability/posix_io.hpp"
#include "primitives/bytes.hpp"
#include "rc/tree_aggregate.hpp"

namespace parct::durability {

namespace {

constexpr std::uint32_t kSectionForest = 1;
constexpr std::uint32_t kSectionWeights = 2;
constexpr std::uint32_t kSectionCount = 2;
// A section larger than this is header corruption, not data.
constexpr std::uint64_t kMaxSectionBytes = 1ull << 40;

// Appends section `id` to `image`: its header, the payload `encode`
// appends, and the payload's CRC32, patching the length in once the
// payload is there.
template <typename Encode>
void append_section(std::string& image, std::uint32_t id, Encode encode) {
  prim::append_bytes(image, id);
  const std::size_t len_at = image.size();
  prim::append_bytes(image, std::uint64_t{0});
  const std::size_t begin = image.size();
  encode(image);
  const std::uint64_t len = image.size() - begin;
  std::memcpy(image.data() + len_at, &len, sizeof len);
  prim::append_bytes(image, crc32(image.data() + begin, len));
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
  // Encode the whole image in memory first: nothing touches the directory
  // until it is complete.
  std::string image;
  prim::append_bytes(image, kCheckpointMagic);
  prim::append_bytes(image, kCheckpointFormatVersion);
  prim::append_bytes(image, version);
  prim::append_bytes(image, kSectionCount);
  append_section(image, kSectionForest,
                 [&](std::string& out) { contract::save(c, out); });
  append_section(image, kSectionWeights, [&](std::string& out) {
    rc::save_weight_table(weights, out);
  });

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
  const std::string buf = detail::read_file(path);
  const std::string what = "parct::durability: checkpoint '" + path + "'";
  prim::ByteReader in(buf, what.c_str());
  if (in.get<std::uint64_t>() != kCheckpointMagic) corrupt(path, "bad magic");
  if (in.get<std::uint32_t>() != kCheckpointFormatVersion) {
    corrupt(path, "unsupported container version");
  }
  const auto version = in.get<std::uint64_t>();
  if (in.get<std::uint32_t>() != kSectionCount) {
    corrupt(path, "unexpected section count");
  }

  // Sections are CRC-checked where they lie in `buf`, then decoded there.
  std::string_view forest_bytes;
  std::string_view weight_bytes;
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    const auto id = in.get<std::uint32_t>();
    const auto len = in.get<std::uint64_t>();
    if (len > kMaxSectionBytes) corrupt(path, "section length exceeds bound");
    const std::string_view payload = in.take(static_cast<std::size_t>(len));
    if (crc32(payload) != in.get<std::uint32_t>()) {
      corrupt(path, "section CRC mismatch");
    }
    if (id == kSectionForest) {
      forest_bytes = payload;
    } else if (id == kSectionWeights) {
      weight_bytes = payload;
    } else {
      corrupt(path, "unknown section id");
    }
  }
  in.expect_end();
  if (forest_bytes.empty() || weight_bytes.empty()) {
    corrupt(path, "missing section");
  }

  // Each section must be exactly one encoded table.
  prim::ByteReader forest_in(forest_bytes, what.c_str());
  contract::ContractionForest forest = contract::load(forest_in);
  forest_in.expect_end();
  prim::ByteReader weight_in(weight_bytes, what.c_str());
  std::vector<Weight> weights =
      rc::load_weight_table<Weight>(weight_in, forest.capacity());
  weight_in.expect_end();
  return Checkpoint{version, std::move(forest), std::move(weights)};
}

}  // namespace parct::durability
