#include "common/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/string_util.h"

namespace neutraj {

namespace fs = std::filesystem;

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(path, ec);
}

bool EnsureDirectory(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) return true;
  return fs::create_directories(path, ec);
}

std::string ReadFile(const std::string& path) {
  // One read into a buffer sized from the file's length: snapshots run to
  // megabytes, and a stream copy would touch every byte twice more.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("ReadFile: cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("ReadFile: cannot size " + path);
  std::string out(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(out.data(), size)) {
    throw std::runtime_error("ReadFile: short read " + path);
  }
  return out;
}

void WriteFileAtomic(const std::string& path, const std::string& content) {
  // Per-call unique temp name: concurrent writers of the same path (e.g.
  // parallel bench runs sharing a cache directory) must not clobber each
  // other's in-flight temp file; whoever renames last wins, and both renames
  // install a complete file.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("WriteFileAtomic: cannot open " + tmp + ": " +
                             ErrnoMessage(errno));
  }
  size_t written = 0;
  while (written < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw std::runtime_error("WriteFileAtomic: write failed " + tmp + ": " +
                               ErrnoMessage(err));
    }
    written += static_cast<size_t>(n);
  }
  // fsync before rename: otherwise a crash after the rename can leave the
  // *destination* pointing at a zero-length or partial file.
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("WriteFileAtomic: fsync failed " + tmp + ": " +
                             ErrnoMessage(err));
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("WriteFileAtomic: close failed " + tmp + ": " +
                             ErrnoMessage(err));
  }

  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("WriteFileAtomic: rename failed " + path + ": " +
                             ec.message());
  }

  // Best-effort durability of the rename itself: fsync the parent directory.
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace neutraj
