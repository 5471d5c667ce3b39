// Where a scenario app keeps its database between open and exit.

#ifndef EDADB_EXAMPLES_DATA_DIR_H_
#define EDADB_EXAMPLES_DATA_DIR_H_

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>

namespace edadb::examples {

/// The app's data dir. With no argument it is `fallback`, wiped first
/// so every run starts fresh. A dir named by argv[1] is never wiped: it
/// must be missing or empty, else this prints why and returns nullopt.
inline std::optional<std::string> FreshDataDir(int argc, char** argv,
                                               const std::string& fallback) {
  if (argc < 2) {
    std::filesystem::remove_all(fallback);
    return fallback;
  }
  const std::string dir = argv[1];
  std::error_code error;
  if (std::filesystem::exists(dir, error) &&
      !std::filesystem::is_empty(dir, error)) {
    std::fprintf(stderr,
                 "data dir %s is not empty; name a new or empty one (the "
                 "app does not delete what it was given)\n",
                 dir.c_str());
    return std::nullopt;
  }
  return dir;
}

}  // namespace edadb::examples

#endif  // EDADB_EXAMPLES_DATA_DIR_H_
