#include "tensor/exec_backend.h"

#include <cstdlib>

#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

struct BackendName {
  const char* name;
  const char* alias;
};

/// The oracle first, the fast default second: the order listings and
/// error messages print.
constexpr BackendName kBackends[] = {
    {"scalar", "direct"},
    {"gemm", "im2col-gemm"},
};

}  // namespace

std::string ref_backend_names() {
  std::vector<std::string> names;
  for (const BackendName& backend : kBackends) {
    names.emplace_back(backend.name);
  }
  return join(names, ", ");
}

std::string resolve_ref_backend(const std::string& requested) {
  std::string name = trim(requested);
  if (name.empty()) {
    if (const char* env = std::getenv("VWSDK_REF_BACKEND")) {
      name = trim(env);
    }
  }
  if (name.empty()) {
    name = "gemm";
  }
  const std::string key = to_lower(name);
  for (const BackendName& backend : kBackends) {
    if (key == backend.name || key == backend.alias) {
      return backend.name;
    }
  }
  throw NotFound(cat("unknown execution backend '", name,
                     "'; known: ", ref_backend_names()));
}

}  // namespace vwsdk
