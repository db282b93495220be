// File paths for tests that write to disk.
//
// Every path lies in a directory of the test process's own,
// /tmp/usca_<pid>, so two test runs on one host (say a Release and a
// sanitizer build directory under ctest at the same time) never open each
// other's files.  The directory, and whatever the test left in it (a
// store's quarantine file, a fabric's shards), is removed when the
// process exits.
#ifndef USCA_TESTS_SCRATCH_PATH_H
#define USCA_TESTS_SCRATCH_PATH_H

#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include <unistd.h>

namespace usca::tests {

/// This process's scratch directory (a forked child names its own, which
/// it never created, so its exit removes nothing).
inline std::string scratch_dir() {
  return "/tmp/usca_" + std::to_string(::getpid());
}

/// `name` inside this process's scratch directory, created on first use.
inline std::string scratch_path(std::string_view name) {
  static const bool created = [] {
    std::filesystem::create_directories(scratch_dir());
    std::atexit([] {
      std::error_code ignored;
      std::filesystem::remove_all(scratch_dir(), ignored);
    });
    return true;
  }();
  (void)created;
  return scratch_dir() + "/" + std::string(name);
}

} // namespace usca::tests

#endif // USCA_TESTS_SCRATCH_PATH_H
