//===- CliTest.cpp - Stream-discipline tests for seminal_cli --------------==//
//
// The CLI's machine-output contract: under --json, stdout carries
// exactly one JSON document and nothing else -- every human-facing
// render (metrics, trace summary, progress) goes to stderr, so
// `seminal_cli --json ... > out.json` is always valid. These tests run
// the real binary (path injected by CMake as SEMINAL_CLI_PATH) and
// parse what lands on each stream.
//
//===----------------------------------------------------------------------==//

#include "JsonTestUtil.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

using namespace seminal;

namespace {

struct RunResult {
  std::string Stdout;
  int ExitCode = -1;
};

/// Runs a shell command, capturing stdout; stderr goes wherever the
/// redirection in \p Command sends it.
RunResult run(const std::string &Command) {
  RunResult R;
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return R;
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    R.Stdout.append(Buf.data(), N);
  int Status = pclose(Pipe);
  if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  return R;
}

std::string cli() { return SEMINAL_CLI_PATH; }

/// The Figure 2 expression: one type error, rich search.
const char *ErrExpr = "let lst = List.map (fun (x, y) -> x + y) [1;2;3]";

} // namespace

TEST(CliStreamTest, JsonModeEmitsOnlyJsonOnStdout) {
  // --metrics is on purpose: its render must land on stderr, never
  // interleave with the JSON document.
  RunResult R = run(cli() + " --expr '" + ErrExpr +
                    "' --json --metrics 2>/dev/null");
  EXPECT_EQ(R.ExitCode, 1) << "an error was found, so the exit code is 1";
  EXPECT_TRUE(JsonValidator(R.Stdout).valid())
      << "stdout is not one JSON document:\n"
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(R.Stdout.find("\"suggestions\""), std::string::npos);
}

TEST(CliStreamTest, HumanRendersGoToStderr) {
  RunResult R = run(cli() + " --expr '" + ErrExpr +
                    "' --json --metrics 2>&1 1>/dev/null");
  EXPECT_EQ(R.ExitCode, 1);
  // The stderr side carries the human-readable renders ...
  EXPECT_FALSE(R.Stdout.empty());
  // ... and is NOT the JSON document.
  EXPECT_FALSE(JsonValidator(R.Stdout).valid());
}

TEST(CliStreamTest, WellTypedInputExitsZeroWithJson) {
  RunResult R = run(cli() + " --expr 'let x = 1 + 2' --json 2>/dev/null");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_TRUE(JsonValidator(R.Stdout).valid()) << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"input_typechecks\": true"), std::string::npos)
      << R.Stdout;
}

TEST(CliStreamTest, BadUsageExitsTwo) {
  RunResult R = run(cli() + " --definitely-not-a-flag 2>/dev/null");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_TRUE(R.Stdout.empty()) << "usage errors must not write stdout";
}

TEST(CliStreamTest, DeeplyNestedFileIsASyntaxError) {
  // 100,000 nested parentheses: the parser's nesting bound turns what
  // would exhaust the stack into an ordinary syntax error (exit 1).
  char Path[] = "/tmp/seminal_cli_deep_XXXXXX";
  int Fd = mkstemp(Path);
  ASSERT_GE(Fd, 0);
  std::string Source = "let x = " + std::string(100000, '(') + "1" +
                       std::string(100000, ')') + "\n";
  ASSERT_EQ(write(Fd, Source.data(), Source.size()), ssize_t(Source.size()));
  close(Fd);
  RunResult R = run(cli() + " " + Path + " 2>&1");
  unlink(Path);
  EXPECT_EQ(R.ExitCode, 1) << R.Stdout;
  EXPECT_NE(R.Stdout.find("Syntax error"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("nesting deeper than"), std::string::npos)
      << R.Stdout;
}
