// Negative-path coverage for numeric and distributed-backend flags, and
// for the files the CLI reads and writes.
// Regression: --n / --workers / --queue / --memory-entries went through
// bare std::stoull/std::stoul, so "12x" silently truncated to 12 and
// "banana" died with an unhandled std::invalid_argument("stoull") that
// named no flag at all. Every malformed value must now exit 2 with a
// message naming the flag and the rejected value. Likewise a write that
// fails (a full device) or a read that fails (a directory, a missing file)
// must exit 2 and name the path, not report success or blame the content.
// Runs the shipped binary (NOBL_CLI_PATH), like the help-drift suite.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

struct CommandOutput {
  int exit_code = -1;
  std::string text;  ///< stdout + stderr interleaved
};

CommandOutput run_cli(const std::string& args) {
  const std::string command = std::string(NOBL_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CommandOutput out;
  if (pipe == nullptr) return out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.text.append(buffer, got);
  }
  const int status = ::pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

void expect_rejected(const std::string& args, const std::string& flag,
                     const std::string& value) {
  const CommandOutput out = run_cli(args);
  EXPECT_EQ(out.exit_code, 2) << args << "\n" << out.text;
  EXPECT_NE(out.text.find(flag), std::string::npos)
      << "`" << args << "` must name " << flag << ", got: " << out.text;
  EXPECT_NE(out.text.find(value), std::string::npos)
      << "`" << args << "` must echo the rejected value, got: " << out.text;
}

TEST(FlagParsing, MalformedNumbersAreRejectedWithTheFlagName) {
  expect_rejected("trace --replay missing.nbt --n banana", "--n", "banana");
  expect_rejected("trace --replay missing.nbt --n 64x", "--n", "64x");
  expect_rejected("trace --replay missing.nbt --n -5", "--n", "-5");
  expect_rejected("trace --replay missing.nbt --n 99999999999999999999999",
                  "--n", "99999999999999999999999");
  expect_rejected("serve --socket /tmp/nobl-absent.sock --workers banana",
                  "--workers", "banana");
  expect_rejected("serve --socket /tmp/nobl-absent.sock --queue 1e3",
                  "--queue", "1e3");
  expect_rejected("serve --socket /tmp/nobl-absent.sock --memory-entries 12x",
                  "--memory-entries", "12x");
  expect_rejected("run --campaign golden --dist-workers three",
                  "--dist-workers", "three");
}

TEST(FlagParsing, OutOfRangeCountsAreRejected) {
  const CommandOutput workers =
      run_cli("serve --socket /tmp/nobl-absent.sock --workers 4096");
  EXPECT_EQ(workers.exit_code, 2);
  EXPECT_NE(workers.text.find("--workers"), std::string::npos);
  const CommandOutput dist =
      run_cli("run --campaign golden --dist-workers 4096");
  EXPECT_EQ(dist.exit_code, 2);
  EXPECT_NE(dist.text.find("--dist-workers"), std::string::npos);
}

TEST(FlagParsing, UnknownTransportNamesTheValidOnes) {
  const CommandOutput out =
      run_cli("run --campaign golden --transport carrier-pigeon");
  EXPECT_EQ(out.exit_code, 2);
  EXPECT_NE(out.text.find("carrier-pigeon"), std::string::npos);
  EXPECT_NE(out.text.find("fork"), std::string::npos);
  EXPECT_NE(out.text.find("tcp"), std::string::npos);
}

TEST(FlagParsing, CheckTransportRequiresGoldenMode) {
  const CommandOutput out = run_cli("check --transport tcp");
  EXPECT_EQ(out.exit_code, 2);
  EXPECT_NE(out.text.find("--golden"), std::string::npos);
}

void expect_path_error(const std::string& args, const std::string& what,
                       const std::string& path) {
  const CommandOutput out = run_cli(args);
  EXPECT_EQ(out.exit_code, 2) << args << "\n" << out.text;
  const std::string expected = what + " \"" + path + "\"";
  EXPECT_NE(out.text.find(expected), std::string::npos)
      << "`" << args << "` must report " << expected << ", got: " << out.text;
}

TEST(FlagParsing, FailedWritesExitTwoAndNameThePath) {
  const std::string input = ::testing::TempDir() + "flag_parsing_input.csv";
  {
    std::ofstream out(input);
    out << "log_v,1\n0,2,0,1\n";
  }
  expect_path_error("convert " + input + " /dev/full", "cannot write",
                    "/dev/full");
  expect_path_error("convert --to bin " + input + " /dev/full",
                    "cannot write", "/dev/full");
  expect_path_error("run --campaign golden --backend cost --quiet --json "
                    "/dev/full",
                    "cannot write", "/dev/full");
  // An existing regular file cannot become the export directory.
  expect_path_error("trace --campaign golden --quiet --export " + input,
                    "cannot write", input);
  std::remove(input.c_str());
}

TEST(FlagParsing, FailedReadsExitTwoAndNameThePath) {
  const std::string output = ::testing::TempDir() + "flag_parsing_out.csv";
  const std::string missing = ::testing::TempDir() + "flag_parsing_absent";
  for (const std::string& path : {::testing::TempDir(), missing}) {
    expect_path_error("convert " + path + " " + output, "cannot read", path);
    expect_path_error("run --spec " + path, "cannot read", path);
    expect_path_error("check --results " + path, "cannot read", path);
  }
  std::remove(output.c_str());
}

}  // namespace
