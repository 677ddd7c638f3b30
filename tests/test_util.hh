/**
 * @file
 * Helpers shared by the test binaries.
 */

#ifndef MOP_TESTS_TEST_UTIL_HH
#define MOP_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace mop::test
{

/** Scratch file path unique to this process. ctest runs each case as
 *  its own process in parallel, and cases sharing a literal path race
 *  on write/read/remove. */
inline std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + std::to_string(::getpid()) +
           "_" + name;
}

} // namespace mop::test

#endif // MOP_TESTS_TEST_UTIL_HH
