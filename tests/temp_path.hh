/**
 * @file
 * Per-test scratch paths. ctest runs every gtest in its own process,
 * in parallel, so a fixed file name under the temp directory is a race
 * between one test's TearDown and a sibling's writes. Every test that
 * touches the file system takes its path from here instead.
 */

#ifndef CRITMEM_TESTS_TEMP_PATH_HH
#define CRITMEM_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace critmem::test
{

/**
 * A temp-directory path unique to the running test and process:
 * critmem_<stem>.<suite>.<test>.<pid><suffix>.
 */
inline std::filesystem::path
uniqueTempPath(const std::string &stem, const std::string &suffix = "")
{
    // Appends, not an operator+ chain from a literal: GCC 12 at -O3
    // reports a -Wrestrict false positive on the latter.
    std::string name = "critmem_";
    name += stem;
    if (const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        name += '.';
        name += info->test_suite_name();
        name += '.';
        name += info->name();
    }
    name += '.';
    name += std::to_string(::getpid());
    name += suffix;
    // Parameterized suites and tests carry '/' in their names.
    std::replace(name.begin(), name.end(), '/', '_');
    return std::filesystem::temp_directory_path() / name;
}

} // namespace critmem::test

#endif // CRITMEM_TESTS_TEMP_PATH_HH
