// temp_path.hpp — per-test scratch paths under the system temp directory.
//
// ctest runs every gtest case in a process of its own, several at once
// under `ctest -j`.  A name built from a fixture's address repeats across
// those processes (sanitizer builds lay out their heaps identically), so
// two live tests would share one journal.  These names carry the running
// test's full name and the process id instead.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>

#include <unistd.h>

namespace upin::test_support {

/// `<temp dir>/<stem>_<Suite>_<Test>_<pid><extension>`, with the '/' of
/// parameterized test names replaced by '_'.  Creates and removes
/// nothing.
inline std::string temp_path(std::string_view stem,
                             std::string_view extension = "") {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name(stem);
  if (test != nullptr) {
    name += '_';
    name += test->test_suite_name();
    name += '_';
    name += test->name();
  }
  name += '_';
  name += std::to_string(::getpid());
  name += extension;
  std::replace(name.begin(), name.end(), '/', '_');
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace upin::test_support
