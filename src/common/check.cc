#include "common/check.h"

#include <cstdio>
#include <cstdlib>

namespace xontorank {
namespace internal_check {

void CheckFailed(const char* file, int line, const char* kind,
                 const char* expr, const std::string& detail) {
  // One write of the whole line, so concurrent failures do not interleave
  // their pieces.
  std::string message = std::string(file) + ":" + std::to_string(line) +
                        " " + kind + "(" + expr + ") failed";
  if (!detail.empty()) message += ": " + detail;
  message += "\n";
  std::fwrite(message.data(), 1, message.size(), stderr);
  std::abort();
}

}  // namespace internal_check
}  // namespace xontorank
