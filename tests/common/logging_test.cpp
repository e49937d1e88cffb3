/** @file Unit tests for logging levels and the error helpers. */

#include <cctype>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace rpx {
namespace {

/** Capture std::cerr for the duration of a scope. */
class CerrCapture
{
  public:
    CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(old_); }
    std::string text() const { return buffer_.str(); }

  private:
    std::ostringstream buffer_;
    std::streambuf *old_;
};

/** Length of the "[HH:MM:SS.mmm] " wall-clock prefix of every line. */
constexpr size_t kStampLen = 15;

/** True iff a "[HH:MM:SS.mmm] " stamp starts at `pos` of `s`. */
bool
stampAt(std::string_view s, size_t pos)
{
    constexpr std::string_view kShape = "[dd:dd:dd.ddd] ";
    if (pos > s.size() || s.size() - pos < kShape.size())
        return false;
    for (size_t i = 0; i < kShape.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[pos + i]);
        if (kShape[i] == 'd' ? !std::isdigit(c) : c != kShape[i])
            return false;
    }
    return true;
}

/** Strip the timestamp prefixes so tests can compare message content. */
std::string
withoutStamps(std::string_view text)
{
    std::string out;
    for (size_t i = 0; i < text.size();) {
        if (stampAt(text, i))
            i += kStampLen;
        else
            out += text[i++];
    }
    return out;
}

/** True iff `text` is exactly one stamped, newline-terminated line. */
bool
isStampedLine(std::string_view text)
{
    return stampAt(text, 0) && text.find('\n') == text.size() - 1;
}

/** Consume `lit` at `pos` of `s`. */
bool
eat(std::string_view s, size_t &pos, std::string_view lit)
{
    if (s.substr(pos, lit.size()) != lit)
        return false;
    pos += lit.size();
    return true;
}

/** Consume one or more digits at `pos` of `s`. */
bool
eatDigits(std::string_view s, size_t &pos)
{
    const size_t start = pos;
    while (pos < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[pos])))
        ++pos;
    return pos > start;
}

class LoggingTest : public ::testing::Test
{
  protected:
    void TearDown() override { setLogLevel(LogLevel::Warn); }
};

TEST_F(LoggingTest, WarnEmittedAtDefaultLevel)
{
    CerrCapture capture;
    warn("disk ", 42, " is wobbly");
    EXPECT_EQ(withoutStamps(capture.text()), "warn: disk 42 is wobbly\n");
    EXPECT_TRUE(isStampedLine(capture.text())) << capture.text();
}

TEST_F(LoggingTest, InfoSuppressedAtDefaultLevel)
{
    CerrCapture capture;
    inform("routine message");
    debug("even more routine");
    EXPECT_TRUE(capture.text().empty());
}

TEST_F(LoggingTest, DebugLevelEmitsEverything)
{
    setLogLevel(LogLevel::Debug);
    CerrCapture capture;
    debug("d");
    inform("i");
    warn("w");
    EXPECT_EQ(withoutStamps(capture.text()),
              "debug: d\ninfo: i\nwarn: w\n");
}

TEST_F(LoggingTest, SilentSuppressesAll)
{
    setLogLevel(LogLevel::Silent);
    CerrCapture capture;
    warn("nothing to see");
    EXPECT_TRUE(capture.text().empty());
    EXPECT_EQ(logLevel(), LogLevel::Silent);
}

TEST_F(LoggingTest, ParseLogLevelNames)
{
    using detail::parseLogLevel;
    EXPECT_EQ(parseLogLevel("debug", LogLevel::Warn), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("INFO", LogLevel::Warn), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("Warn", LogLevel::Silent), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("silent", LogLevel::Warn), LogLevel::Silent);
    // Unknown and missing names fall back (RPX_LOG_LEVEL typos are safe).
    EXPECT_EQ(parseLogLevel("verbose", LogLevel::Warn), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel(nullptr, LogLevel::Info), LogLevel::Info);
}

TEST_F(LoggingTest, ParseLogLevelWarnsOnGarbage)
{
    {
        CerrCapture capture;
        EXPECT_EQ(detail::parseLogLevel("verbse", LogLevel::Warn),
                  LogLevel::Warn);
        EXPECT_NE(capture.text().find("unrecognized RPX_LOG_LEVEL"),
                  std::string::npos);
        EXPECT_NE(capture.text().find("verbse"), std::string::npos);
    }
    {
        // An unset/empty variable is not a typo: stays quiet.
        CerrCapture capture;
        EXPECT_EQ(detail::parseLogLevel(nullptr, LogLevel::Warn),
                  LogLevel::Warn);
        EXPECT_EQ(detail::parseLogLevel("", LogLevel::Warn),
                  LogLevel::Warn);
        EXPECT_TRUE(capture.text().empty());
    }
}

TEST_F(LoggingTest, ConcurrentWarnsDoNotInterleaveWithinLines)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    CerrCapture capture;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([i] {
            for (int k = 0; k < kPerThread; ++k)
                warn("thread ", i, " message ", k, " end");
        });
    }
    for (auto &t : threads)
        t.join();

    // Every line is complete: stamped, tagged, and terminated. A torn
    // write would produce a line that fails the pattern.
    std::istringstream lines(capture.text());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        // "[HH:MM:SS.mmm] warn: thread <n> message <k> end"
        size_t pos = kStampLen;
        const bool whole = stampAt(line, 0) &&
                           eat(line, pos, "warn: thread ") &&
                           eatDigits(line, pos) &&
                           eat(line, pos, " message ") &&
                           eatDigits(line, pos) && eat(line, pos, " end") &&
                           pos == line.size();
        EXPECT_TRUE(whole) << line;
        ++count;
    }
    EXPECT_EQ(count, kThreads * kPerThread);
}

TEST(ErrorHelpers, ThrowInvalidFormatsMessage)
{
    try {
        throwInvalid("bad value ", 7, " for ", "knob");
        FAIL() << "should have thrown";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "bad value 7 for knob");
    }
}

TEST(ErrorHelpers, ThrowRuntimeFormatsMessage)
{
    try {
        throwRuntime("stage ", 2, " failed");
        FAIL() << "should have thrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "stage 2 failed");
    }
}

TEST(ErrorHelpers, AssertMacroThrowsWithLocation)
{
    try {
        RPX_ASSERT(1 == 2, "math broke");
        FAIL() << "should have thrown";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("math broke"), std::string::npos);
        EXPECT_NE(msg.find("logging_test.cpp"), std::string::npos);
    }
    // The passing case is silent.
    EXPECT_NO_THROW(RPX_ASSERT(true, "fine"));
}

} // namespace
} // namespace rpx
