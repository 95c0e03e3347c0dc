#include "core/search_api.h"

namespace xontorank {

std::string_view PruningModeName(PruningMode mode) {
  switch (mode) {
    case PruningMode::kExact:
      return "exact";
    case PruningMode::kBlockMax:
      return "blockmax";
  }
  return "?";
}

}  // namespace xontorank
