/**
 * @file
 * Tests for the logging / error-reporting utilities.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"

namespace edgert {
namespace {

TEST(Logging, FatalThrowsWithMessage)
{
    try {
        fatal("bad config: ", 42, " is not allowed");
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config: 42 is not allowed");
    }
}

TEST(Logging, FatalFormatsMixedTypes)
{
    try {
        fatal("x=", 1.5, " name=", std::string("abc"), " flag=",
              true);
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "x=1.5 name=abc flag=1");
    }
}

TEST(Logging, WarnLevelSuppressesInform)
{
    const LogLevel before = logLevel();
    std::vector<std::string> seen;
    setLogSink([&](LogLevel, const std::string &msg) {
        seen.push_back(msg);
    });
    setLogLevel(LogLevel::kWarn);
    inform("this is suppressed");
    EXPECT_TRUE(seen.empty());
    setLogLevel(LogLevel::kInfo);
    inform("shown");
    setLogSink({});
    setLogLevel(before);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen.front(), "shown");
}

TEST(Logging, WarnDoesNotThrow)
{
    EXPECT_NO_THROW(warn("just a warning: ", 7));
}

TEST(Logging, FatalErrorIsRuntimeError)
{
    // Callers may catch at the std::runtime_error level.
    EXPECT_THROW(fatal("boom"), std::runtime_error);
}

} // namespace
} // namespace edgert
