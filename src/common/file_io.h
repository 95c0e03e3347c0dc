#ifndef XONTORANK_COMMON_FILE_IO_H_
#define XONTORANK_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace xontorank {

/// Whole-file I/O for persisted state (DESIGN.md §15). Every file the
/// storage and ontology layers write goes through WriteFileDurable, so
/// there is one place that decides what "written" means.

/// Writes `bytes` to `<path>.tmp`, checks every write, fsyncs and closes
/// it, then renames it over `path`. A reader sees the old file or the
/// whole new one, never a prefix; after a crash following the return, the
/// new content is on disk (the rename itself becomes durable once the
/// parent directory is synced, see SyncDirectory). On any failure the
/// temp file is removed and `path` is untouched. Writes are serialized
/// process-wide, because two writers of one path share the `.tmp` name.
[[nodiscard]] Status WriteFileDurable(const std::string& path,
                                      std::string_view bytes);

/// fsyncs directory `dir`, making the entries created or renamed in it
/// durable.
[[nodiscard]] Status SyncDirectory(const std::string& dir);

/// Reads a whole file into a string sized from the file's length, with
/// one read in the common case and no intermediate copy.
[[nodiscard]] Result<std::string> ReadFile(const std::string& path);

}  // namespace xontorank

#endif  // XONTORANK_COMMON_FILE_IO_H_
