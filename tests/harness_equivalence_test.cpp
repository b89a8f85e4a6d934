// End-to-end tests of the differential harness itself: clean seeded runs
// across the adversarial shape table, byte-identical replay-file
// round-trips, and the full failure pipeline — inject a fault, detect it,
// auto-shrink the trace, dump a replay file, and prove that
// `parct_cli replay <file>` re-executes it to the same failure
// deterministically (twice, byte-identical output).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/differential.hpp"
#include "harness/shrink.hpp"
#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "parallel/scheduler.hpp"
#include "test_util.hpp"

namespace parct {
namespace {

harness::WorkloadConfig small_config(std::uint64_t seed) {
  harness::WorkloadConfig config;
  config.seed = seed;
  config.n = 120;
  config.extra_capacity = 40;
  config.target_ops = 160;
  config.max_batch = 24;
  return config;
}

std::string save_to_string(const harness::Trace& t) {
  std::ostringstream out;
  harness::save_trace(t, out);
  return out.str();
}

/// Runs `cmd`, capturing stdout+stderr; stores the exit status.
std::string run_command(const std::string& cmd, int* exit_code) {
  std::string out;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, got);
  }
  const int status = pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

class HarnessEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { par::scheduler::initialize(1); }
};

TEST_F(HarnessEquivalenceTest, CleanShortRunsAcrossShapes) {
  for (std::size_t shape = 0; shape < std::size(test::kShapes); ++shape) {
    harness::WorkloadConfig config = small_config(0xA11CE + shape);
    config.shape = static_cast<int>(shape);
    const harness::Trace t = harness::generate_trace(config);
    ASSERT_FALSE(t.steps.empty()) << test::kShapes[shape].name;
    const harness::RunResult r = harness::run_trace(t);
    EXPECT_TRUE(r.ok) << "shape " << test::kShapes[shape].name << ", step "
                      << r.failed_step << ": " << r.failure;
    EXPECT_GT(r.steps_applied, 0u) << test::kShapes[shape].name;
  }
}

// Behavioral equality of both adaptive execution paths: the same traces,
// forced always-parallel (cutover 0) and always-inline-serial (SIZE_MAX),
// must pass every oracle — each run cross-checks against a from-scratch
// construction, the LCT/ETT baselines, and the sequential re-simulation,
// so a divergence anywhere in the fast path fails here.
TEST_F(HarnessEquivalenceTest, EquivalenceSuitesAtSerialCutoverExtremes) {
  const std::size_t cutovers[] = {0, ~std::size_t{0}};
  for (const std::size_t cutover : cutovers) {
    harness::RunOptions opts;
    opts.serial_cutover = cutover;
    for (const std::size_t shape : {std::size_t{0}, std::size_t{2},
                                    std::size_t{4}}) {
      harness::WorkloadConfig config = small_config(0xC07 + shape);
      config.shape = static_cast<int>(shape % std::size(test::kShapes));
      const harness::Trace t = harness::generate_trace(config);
      const harness::RunResult r = harness::run_trace(t, opts);
      EXPECT_TRUE(r.ok) << "cutover " << cutover << ", shape "
                        << config.shape << ", step " << r.failed_step
                        << ": " << r.failure;
    }
  }
}

// The CLI exposes the same override globally; a clean trace replays OK
// under both extremes.
TEST_F(HarnessEquivalenceTest, CliSerialCutoverFlagReplaysCleanly) {
  const harness::Trace t = harness::generate_trace(small_config(37));
  const std::string path = ::testing::TempDir() + "/parct-cutover-trace.txt";
  harness::save_trace_file(t, path);

  for (const char* cutover : {"0", "18446744073709551615"}) {
    const std::string cmd = std::string(PARCT_CLI_PATH) +
                            " --serial-cutover " + cutover + " replay " +
                            path;
    int code = -1;
    const std::string out = run_command(cmd, &code);
    EXPECT_EQ(code, 0) << "cutover " << cutover << ": " << out;
    EXPECT_NE(out.find("OK"), std::string::npos) << out;
  }

  // A malformed value must be a usage error, not a silent zero.
  int code = -1;
  const std::string out = run_command(
      std::string(PARCT_CLI_PATH) + " --serial-cutover banana replay " +
          path,
      &code);
  EXPECT_NE(code, 0);
  std::remove(path.c_str());
}

TEST_F(HarnessEquivalenceTest, GenerationIsDeterministicInTheSeed) {
  const harness::Trace a = harness::generate_trace(small_config(42));
  const harness::Trace b = harness::generate_trace(small_config(42));
  const harness::Trace c = harness::generate_trace(small_config(43));
  EXPECT_EQ(save_to_string(a), save_to_string(b));
  EXPECT_NE(save_to_string(a), save_to_string(c));
}

TEST_F(HarnessEquivalenceTest, SaveLoadSaveIsByteIdentical) {
  for (const std::uint64_t seed : {1ull, 7ull, 0xDEADull}) {
    harness::Trace t = harness::generate_trace(small_config(seed));
    // Exercise the fault-injection fields through the format too.
    t.corrupt_step = 3;
    t.corrupt_seed = 99;
    const std::string first = save_to_string(t);
    std::istringstream in(first);
    const harness::Trace back = harness::load_trace(in);
    EXPECT_EQ(first, save_to_string(back)) << "seed " << seed;
  }
}

TEST_F(HarnessEquivalenceTest, SameTraceSameFailureAfterRoundTrip) {
  harness::Trace t = harness::generate_trace(small_config(5));
  ASSERT_GE(t.steps.size(), 4u);
  t.corrupt_step = static_cast<int>(t.steps.size()) / 2;
  t.corrupt_seed = 0xBAD5EED;

  const harness::RunResult direct = harness::run_trace(t);
  ASSERT_TRUE(direct.failed()) << "injected corruption went undetected";
  EXPECT_EQ(direct.failed_step, t.corrupt_step);
  EXPECT_NE(direct.failure.find("from-scratch oracle"), std::string::npos)
      << direct.failure;

  std::istringstream in(save_to_string(t));
  const harness::RunResult replayed =
      harness::run_trace(harness::load_trace(in));
  EXPECT_EQ(direct.failed_step, replayed.failed_step);
  EXPECT_EQ(direct.failure, replayed.failure);
}

TEST_F(HarnessEquivalenceTest, ShrinkKeepsFailureAndShrinksHistory) {
  harness::Trace t = harness::generate_trace(small_config(11));
  ASSERT_GE(t.steps.size(), 6u);
  t.corrupt_step = static_cast<int>(t.steps.size()) - 2;
  t.corrupt_seed = 0xC0FFEE;
  const harness::RunOptions opts;
  ASSERT_TRUE(harness::run_trace(t, opts).failed());

  harness::ShrinkReport report;
  const harness::Trace small = harness::shrink_trace(t, opts, &report);
  EXPECT_GT(report.runs, 1);
  EXPECT_TRUE(report.result.failed());
  EXPECT_LE(small.steps.size(), t.steps.size());
  EXPECT_LE(small.total_ops(), t.total_ops());
  // The shrunk trace must fail on its own, not just inside the shrinker.
  EXPECT_TRUE(harness::run_trace(small, opts).failed());
}

// The ISSUE acceptance flow: corrupted run -> replay file -> the CLI
// re-executes it to the same failure, twice, with byte-identical output.
TEST_F(HarnessEquivalenceTest, ReplayFileReExecutesByteIdenticallyViaCli) {
  harness::Trace t = harness::generate_trace(small_config(23));
  ASSERT_GE(t.steps.size(), 4u);
  t.corrupt_step = static_cast<int>(t.steps.size()) / 2;
  t.corrupt_seed = 0xFEED;
  ASSERT_TRUE(harness::run_trace(t).failed());

  harness::ShrinkReport report;
  const harness::Trace small = harness::shrink_trace(t, harness::RunOptions{},
                                                     &report);
  ASSERT_TRUE(report.result.failed());

  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("PARCT_REPLAY_DIR", dir.c_str(), 1), 0);
  const std::string path = harness::dump_replay(small);
  unsetenv("PARCT_REPLAY_DIR");
  ASSERT_EQ(path.rfind(dir, 0), 0u) << path;

  // The file alone reproduces the failure in-process...
  const harness::RunResult from_file =
      harness::run_trace(harness::load_trace_file(path));
  EXPECT_EQ(from_file.failed_step, report.result.failed_step);
  EXPECT_EQ(from_file.failure, report.result.failure);

  // ...and through the CLI, twice, byte-for-byte.
  const std::string cmd = std::string(PARCT_CLI_PATH) + " replay " + path;
  int code1 = 0;
  int code2 = 0;
  const std::string out1 = run_command(cmd, &code1);
  const std::string out2 = run_command(cmd, &code2);
  EXPECT_EQ(code1, 1) << out1;
  EXPECT_EQ(code2, 1) << out2;
  EXPECT_EQ(out1, out2);
  EXPECT_NE(out1.find("FAIL at step"), std::string::npos) << out1;
  EXPECT_NE(out1.find(report.result.failure), std::string::npos) << out1;

  std::remove(path.c_str());
}

TEST_F(HarnessEquivalenceTest, CliReplaysCleanTraceWithExitZero) {
  const harness::Trace t = harness::generate_trace(small_config(31));
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/parct-clean-trace.txt";
  harness::save_trace_file(t, path);

  const std::string cmd = std::string(PARCT_CLI_PATH) + " replay " + path;
  int code = -1;
  const std::string out = run_command(cmd, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("OK"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST_F(HarnessEquivalenceTest, MalformedReplayFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/parct-bogus-trace.txt";
  {
    std::ofstream out(path);
    out << "parct-replay v1\nmaster_seed banana\n";
  }
  EXPECT_THROW(harness::load_trace_file(path), std::runtime_error);
  const std::string cmd = std::string(PARCT_CLI_PATH) + " replay " + path;
  int code = -1;
  const std::string out = run_command(cmd, &code);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST_F(HarnessEquivalenceTest, CliReadsAStructureFromAPipe) {
  // A pipe reports size 0 to fstat; the loader must read it to its end,
  // and the structure it decodes must match the one read from the file.
  if (::access("/dev/stdin", R_OK) != 0) {
    GTEST_SKIP() << "/dev/stdin is not available";
  }
  const std::string path = ::testing::TempDir() + "/parct-piped.cf";
  const std::string cli = PARCT_CLI_PATH;
  int code = -1;
  const std::string gen =
      run_command(cli + " gen 2000 0.5 7 " + path, &code);
  ASSERT_EQ(code, 0) << gen;
  const std::string direct = run_command(cli + " info " + path, &code);
  EXPECT_EQ(code, 0) << direct;
  const std::string piped =
      run_command("cat " + path + " | " + cli + " info /dev/stdin", &code);
  EXPECT_EQ(code, 0) << piped;
  EXPECT_EQ(piped, direct);
  std::remove(path.c_str());
}

TEST_F(HarnessEquivalenceTest, CliSaveToAFullDeviceFails) {
  // A structure the CLI cannot write fails the command loudly instead of
  // leaving a truncated file behind.
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  int code = -1;
  const std::string out = run_command(
      std::string(PARCT_CLI_PATH) + " gen 2000 0.5 7 /dev/full", &code);
  EXPECT_NE(code, 0) << out;
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

}  // namespace
}  // namespace parct
