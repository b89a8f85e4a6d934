// Internal POSIX file-descriptor helpers for the durability layer: RAII
// fd ownership, whole-file reads, positioned full-buffer writes, commit by
// rename, and the sync points where the `durability-fsync` fault site is
// armed. The durability layer does its file I/O through raw fds (not
// file streams) so that fsync, fdatasync and pwrite are available and I/O
// errors are never swallowed by stream state — the `durability-io` lint
// rule keeps file and string streams out of src/service/ and
// src/durability/ entirely.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "fault/fault_injection.hpp"

namespace parct::durability::detail {

/// Move-only owner of a POSIX file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

inline std::runtime_error io_error(const std::string& what,
                                   const std::string& path) {
  return std::runtime_error("parct::durability: " + what + " '" + path +
                            "': " + std::strerror(errno));
}

/// O_WRONLY|O_CREAT|O_TRUNC — a fresh `.tmp` (checkpoint or WAL segment).
inline Fd open_trunc(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw io_error("cannot create", path);
  return Fd(fd);
}

/// Reads the file at `path` to its end into one buffer, in which
/// checkpoints and WAL segments are then decoded in place. A regular file
/// fills a buffer sized by fstat; a pipe (size 0) grows it until EOF.
/// Throws if the file cannot be opened or read.
inline std::string read_file(const std::string& path) {
  const int raw = ::open(path.c_str(), O_RDONLY);
  if (raw < 0) throw io_error("cannot open", path);
  const Fd fd(raw);
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) throw io_error("cannot stat", path);
  std::string buf(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  char spill[4096];  // past the fstat size: EOF, or a file that grew
  for (;;) {
    const bool full = got == buf.size();
    char* dst = full ? spill : buf.data() + got;
    const std::size_t room = full ? sizeof spill : buf.size() - got;
    const ::ssize_t r = ::read(fd.get(), dst, room);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw io_error("read failed on", path);
    }
    if (r == 0) break;
    if (full) buf.append(spill, static_cast<std::size_t>(r));
    got += static_cast<std::size_t>(r);
  }
  buf.resize(got);  // the file shrank since fstat
  return buf;
}

/// Writes all `n` bytes at file offset `offset` (retrying short writes);
/// throws on any error.
inline void write_fully(const Fd& fd, const char* data, std::size_t n,
                        std::uint64_t offset, const std::string& path) {
  while (n > 0) {
    const ::ssize_t w =
        ::pwrite(fd.get(), data, n, static_cast<::off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      throw io_error("write failed on", path);
    }
    data += w;
    offset += static_cast<std::uint64_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

/// fsync with the `durability-fsync` fault site armed in front of it: a
/// firing hit throws InjectedFault *before* the data is forced to disk,
/// modelling a crash with the bytes still in the page cache.
inline void durable_sync(const Fd& fd, const std::string& path) {
  if (PARCT_FAULT_POINT(fault::Site::kDurabilityFsync)) {
    throw fault::InjectedFault(fault::Site::kDurabilityFsync);
  }
  if (::fsync(fd.get()) != 0) throw io_error("fsync failed on", path);
}

/// fdatasync behind the same fault site. It forces only the data blocks
/// (and a size change, which callers avoid), so it is durable on its own
/// only for bytes written over blocks that an earlier fsync already made
/// part of the file.
inline void data_sync(const Fd& fd, const std::string& path) {
  if (PARCT_FAULT_POINT(fault::Site::kDurabilityFsync)) {
    throw fault::InjectedFault(fault::Site::kDurabilityFsync);
  }
  if (::fdatasync(fd.get()) != 0) throw io_error("fdatasync failed on", path);
}

/// fsyncs a directory so a freshly created/renamed entry is durable.
inline void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw io_error("cannot open directory", dir);
  Fd d(fd);
  durable_sync(d, dir);
}

/// Publishes a fully written and fsynced `tmp` under `final_path`, the
/// commit point of a checkpoint or a WAL segment. The `durability-rename`
/// fault site fires first, leaving only the `.tmp`, which recovery
/// ignores. The caller fsyncs the directory next (sync_dir).
inline void rename_into_place(const std::string& tmp,
                              const std::string& final_path) {
  if (PARCT_FAULT_POINT(fault::Site::kDurabilityRename)) {
    throw fault::InjectedFault(fault::Site::kDurabilityRename);
  }
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    throw io_error("rename failed for", final_path);
  }
}

}  // namespace parct::durability::detail
