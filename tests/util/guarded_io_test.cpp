#include "util/guarded_io.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>

#include "util/breaker.h"
#include "util/deadline.h"
#include "util/failpoint.h"

namespace fbist::util {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fbist_gio_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Fast retries: same attempt budget, no measurable sleeping.
io::RetryPolicy fast_policy() {
  io::RetryPolicy p;
  p.base_backoff_ms = 0;
  p.max_backoff_ms = 0;
  return p;
}

class GuardedIoTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::clear(); }
  void TearDown() override { failpoint::clear(); }
};

TEST_F(GuardedIoTest, ErrnoClassification) {
  for (const int e : {EINTR, EAGAIN, EIO, EBUSY, ENFILE, EMFILE}) {
    EXPECT_TRUE(io::errno_is_transient(e)) << e;
  }
  for (const int e : {ENOSPC, EROFS, EACCES, EPERM, ENOENT, ENOTDIR, EISDIR,
                      ENAMETOOLONG}) {
    EXPECT_FALSE(io::errno_is_transient(e)) << e;
  }
  // Unknown / unset errno: retry is the cheap mistake.
  EXPECT_TRUE(io::errno_is_transient(0));
}

TEST_F(GuardedIoTest, TransientFailuresRetryUntilSuccess) {
  int calls = 0;
  io::with_retries(
      "test.op",
      [&] {
        if (++calls < 3) throw io::IoError("flaky", /*transient=*/true);
      },
      fast_policy());
  EXPECT_EQ(calls, 3);
}

TEST_F(GuardedIoTest, PermanentFailuresPropagateWithoutRetry) {
  int calls = 0;
  try {
    io::with_retries(
        "test.op",
        [&] {
          ++calls;
          throw io::IoError("disk full", /*transient=*/false);
        },
        fast_policy());
    FAIL() << "permanent error retried to success?";
  } catch (const io::IoError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_STREQ(e.what(), "disk full");
  }
  EXPECT_EQ(calls, 1);
}

TEST_F(GuardedIoTest, ExhaustedBudgetGivesUpNamingSiteAndAttempts) {
  int calls = 0;
  try {
    io::with_retries(
        "test.op",
        [&] {
          ++calls;
          throw io::IoError("still flaky", /*transient=*/true);
        },
        fast_policy());
    FAIL() << "exhausted budget did not throw";
  } catch (const io::IoError& e) {
    EXPECT_TRUE(e.transient());
    const std::string msg = e.what();
    EXPECT_NE(msg.find("still flaky"), std::string::npos);
    EXPECT_NE(msg.find("test.op: gave up after 4 attempts"),
              std::string::npos);
  }
  EXPECT_EQ(calls, 4);  // RetryPolicy default budget
}

TEST_F(GuardedIoTest, AtomicWriteRoundTripsAndLeavesNoTemp) {
  const std::string dir = scratch_dir("roundtrip");
  const std::string path = dir + "/payload.bin";
  const std::string payload("line one\nline two\0with a nul", 28);
  io::write_file_atomic("report.write", path, payload);
  EXPECT_EQ(io::read_file("spec.read", path), payload);
  // Overwrite in place works too.
  io::write_file_atomic("report.write", path, "v2");
  EXPECT_EQ(io::read_file("spec.read", path), "v2");
  // Success leaves no .tmp.<pid> droppings behind.
  std::size_t entries = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(de.path().filename().string(), "payload.bin");
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST_F(GuardedIoTest, NonRegularTargetIsWrittenInPlace) {
  // A FIFO stands in for a device such as /dev/stdout: the payload
  // must go through it to the reader, and no rename may replace it.
  const std::string dir = scratch_dir("fifo");
  const std::string path = dir + "/out.fifo";
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  // With a reader already open, the writer's open returns at once.
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0) << std::strerror(errno);
  const std::string payload = "fbist-rom v1\ncircuit c17\n";  // < PIPE_BUF
  io::write_file_atomic("report.write", path, payload, fast_policy());
  std::string got(4096, '\0');
  const ssize_t n = ::read(reader, got.data(), got.size());
  ::close(reader);
  ASSERT_GE(n, 0) << std::strerror(errno);
  got.resize(static_cast<std::size_t>(n));
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(fs::is_fifo(fs::symlink_status(path)));
  std::size_t entries = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(de.path().filename().string(), "out.fifo");
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST_F(GuardedIoTest, MissingFileIsAPermanentReadError) {
  try {
    io::read_file("spec.read", "/nonexistent/nowhere.txt", fast_policy());
    FAIL() << "missing file read succeeded";
  } catch (const io::IoError& e) {
    EXPECT_FALSE(e.transient());  // ENOENT: retrying cannot help
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST_F(GuardedIoTest, DirectoryIsAPermanentReadError) {
  // A directory opens as a stream; its first read fails with EISDIR.
  const std::string dir = scratch_dir("read_dir");
  try {
    io::read_file("spec.read", dir, fast_policy());
    FAIL() << "directory read succeeded";
  } catch (const io::IoError& e) {
    EXPECT_FALSE(e.transient());
    const std::string msg = e.what();
    EXPECT_NE(msg.find(dir), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::strerror(EISDIR)), std::string::npos) << msg;
  }
  fs::remove_all(dir);
}

TEST_F(GuardedIoTest, InjectedTransientWriteRecoversWithinTheBudget) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const std::string dir = scratch_dir("inject_transient");
  const std::string path = dir + "/blob";
  // First two attempts fail, the third (of four) succeeds.
  failpoint::configure("checkpoint.write=err(1,0,2)");
  io::write_file_atomic("checkpoint.write", path, "contents", fast_policy());
  EXPECT_EQ(failpoint::fires("checkpoint.write"), 2u);
  failpoint::clear();
  EXPECT_EQ(io::read_file("checkpoint.read", path), "contents");
  fs::remove_all(dir);
}

TEST_F(GuardedIoTest, InjectedEnospcFailsTheWriteImmediately) {
  if (!failpoint::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const std::string dir = scratch_dir("inject_enospc");
  const std::string path = dir + "/blob";
  failpoint::configure("checkpoint.write=enospc(1)");
  try {
    io::write_file_atomic("checkpoint.write", path, "contents", fast_policy());
    FAIL() << "enospc write succeeded";
  } catch (const io::IoError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_NE(std::string(e.what()).find("No space left on device"),
              std::string::npos);
  }
  EXPECT_EQ(failpoint::fires("checkpoint.write"), 1u);  // no retry
  EXPECT_FALSE(fs::exists(path));
  fs::remove_all(dir);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndLatches) {
  CircuitBreaker b("test disk", "test tier disabled", /*threshold=*/3);
  EXPECT_TRUE(b.allowed());
  EXPECT_EQ(b.threshold(), 3);

  // A success before the threshold resets the consecutive count.
  b.record_failure();
  b.record_failure();
  b.record_success();
  b.record_failure();
  b.record_failure();
  EXPECT_TRUE(b.allowed());

  b.record_failure();  // third consecutive: trip
  EXPECT_TRUE(b.tripped());
  EXPECT_FALSE(b.allowed());

  // One-way for the process lifetime: a late success cannot re-arm.
  b.record_success();
  EXPECT_TRUE(b.tripped());
  EXPECT_FALSE(b.allowed());
}

TEST(DeadlineTest, UnarmedDeadlineNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_NO_THROW(d.check("anything"));
}

TEST(DeadlineTest, ExpiryThrowsNamingTheBudgetNotTheElapsedTime) {
  const Deadline d = Deadline::after_ms(0);  // expires immediately
  EXPECT_TRUE(d.armed());
  EXPECT_TRUE(d.expired());
  try {
    d.check("matrix build");
    FAIL() << "expired deadline passed check";
  } catch (const TimeoutError& e) {
    // Deterministic content: stage + configured budget, nothing
    // timing-dependent.
    EXPECT_STREQ(e.what(), "matrix build: exceeded the 0 ms run deadline");
  }

  const Deadline later = Deadline::after_ms(600'000);
  EXPECT_TRUE(later.armed());
  EXPECT_FALSE(later.expired());
  EXPECT_NO_THROW(later.check("matrix build"));
  EXPECT_EQ(later.limit_ms(), 600'000u);
}

}  // namespace
}  // namespace fbist::util
