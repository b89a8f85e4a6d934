// The byte codec of every persisted format (docs/DURABILITY.md):
// fixed-width fields in host byte order (little-endian hosts), appended to
// a std::string and read back through a bounds-checked cursor. Encoders
// append to a `std::string&`; decoders take a `ByteReader&`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace parct::prim {

/// Appends the raw bytes of `n` values at `values`.
template <typename T>
void append_bytes(std::string& out, const T* values, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>, "raw-byte image");
  out.append(reinterpret_cast<const char*>(values), n * sizeof(T));
}

/// Appends the raw bytes of `value`.
template <typename T>
void append_bytes(std::string& out, const T& value) {
  append_bytes(out, &value, 1);
}

/// Cursor over an encoded byte range. Every read is checked against the
/// bytes that remain and throws std::runtime_error ("<what>: truncated")
/// on a short read, so a decoder never reads past its input.
class ByteReader {
 public:
  /// `what` names the input in error messages, e.g. "parct::load"; it
  /// must outlive the reader.
  ByteReader(std::string_view bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  template <typename T>
  T get() {
    T value;
    get(&value, 1);
    return value;
  }

  /// Reads `n` values into `out`.
  template <typename T>
  void get(T* out, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>, "raw-byte image");
    require(n, sizeof(T));
    if (n != 0) std::memcpy(out, bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  /// The next `n` bytes, in place.
  std::string_view take(std::size_t n) {
    require(n, 1);
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  /// Throws unless `count` items of `item_bytes` bytes each can still
  /// follow. Decoders call it on every declared count before they
  /// allocate for it, so a lying header costs no memory.
  void require(std::uint64_t count, std::size_t item_bytes) const {
    if (count > remaining() / item_bytes) fail("truncated");
  }

  /// Throws unless every byte has been read.
  void expect_end() const {
    if (remaining() != 0) fail("trailing bytes");
  }

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error(std::string(what_) + ": " + why);
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  const char* what_;
};

}  // namespace parct::prim
