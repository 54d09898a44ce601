// Test helper: a private temp directory for the running test.
//
// ctest runs every TEST() as its own process, several at once under
// `ctest -j`, so two tests that write the same fixed name under the shared
// temp directory overwrite each other's files mid-read.  TestTempPath()
// instead places files in a directory named after the running test and the
// process id, created on first use and removed (with everything in it) when
// the process exits.

#ifndef BSDTRACE_TESTS_TESTING_TEMP_DIR_H_
#define BSDTRACE_TESTS_TESTING_TEMP_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace bsdtrace {

// The running test's private directory: <temp>/bsdtrace-<Suite.Test>-<pid>.
inline std::string TestTempDir() {
  // Removes every directory handed out, at process exit.
  struct Registry {
    std::vector<std::filesystem::path> dirs;
    ~Registry() {
      for (const std::filesystem::path& dir : dirs) {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
      }
    }
  };
  static Registry registry;

  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info != nullptr
                         ? std::string(info->test_suite_name()) + "." + info->name()
                         : std::string("no-test");
  for (char& c : name) {
    if (c == '/') {
      c = '_';  // parameterized tests are named Prefix/Suite.Test/Param
    }
  }
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                                    ("bsdtrace-" + name + "-" + std::to_string(::getpid()));
  if (!std::filesystem::exists(dir)) {
    std::filesystem::create_directories(dir);
    registry.dirs.push_back(dir);
  }
  return dir.string();
}

// A file (or subdirectory) name inside TestTempDir().
inline std::string TestTempPath(const std::string& name) {
  return TestTempDir() + "/" + name;
}

}  // namespace bsdtrace

#endif  // BSDTRACE_TESTS_TESTING_TEMP_DIR_H_
