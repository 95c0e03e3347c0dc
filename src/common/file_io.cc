#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "common/sync.h"

namespace xontorank {

namespace {

/// Serializes WriteFileDurable: concurrent writes of one path share the
/// "<path>.tmp" name. Acquired AFTER the engine-store save lock when
/// reached through SaveSnapshot — see the lock-order table in
/// common/sync.h and DESIGN.md §9. Leaked so writes racing static
/// destruction stay safe.
Mutex& DurableFileMutex() {
  // xo-lint: allow(new-delete) — leaked singleton, see above.
  static Mutex* mutex = new Mutex();
  return *mutex;
}

}  // namespace

Status WriteFileDurable(const std::string& path, std::string_view bytes) {
  MutexLock lock(DurableFileMutex());
  const std::string tmp_path = path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return Status::IoError("cannot open " + tmp_path + " for writing");
  Status status = Status::OK();
  for (size_t done = 0; done < bytes.size();) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      status = Status::IoError("short write to " + tmp_path);
      break;
    }
    done += static_cast<size_t>(n);
  }
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IoError("cannot fsync " + tmp_path);
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError("cannot close " + tmp_path);
  }
  if (status.ok() && std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    status = Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  if (!status.ok()) ::unlink(tmp_path.c_str());
  return status;
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open directory " + dir);
  bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::IoError("cannot fsync directory " + dir);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path + " for reading");
  std::string content;
  Status status = Status::OK();
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    status = Status::IoError("cannot stat " + path);
  } else {
    content.resize(static_cast<size_t>(info.st_size));
    size_t done = 0;
    while (done < content.size()) {
      ssize_t n = ::read(fd, content.data() + done, content.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        status = Status::IoError("short read from " + path);
        break;
      }
      done += static_cast<size_t>(n);
    }
  }
  ::close(fd);
  if (!status.ok()) return status;
  return content;
}

}  // namespace xontorank
