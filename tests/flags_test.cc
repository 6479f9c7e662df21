// Tests for the shared FlagSet parser: typed flag registration, the
// unknown-flag (exit 64) vs malformed-value (exit 2) error taxonomy,
// positional preservation, the kKeep policy for staged parsing, the
// argv variant used by the benches, and usage-text generation.

#include "efes/common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace efes {
namespace {

std::vector<std::string> Args(std::initializer_list<const char*> items) {
  return std::vector<std::string>(items.begin(), items.end());
}

TEST(FlagSetTest, ParsesEveryFlagKindAndStripsThem) {
  FlagSet flags;
  bool verbose = false;
  std::string out;
  size_t threads = 0;
  std::string format = "text";
  std::vector<std::string> seen;
  flags.AddBool("verbose", "say more", &verbose)
      .AddString("out", "<file>", "output path", &out)
      .AddUint("threads", "<n>", "worker threads", &threads)
      .AddChoice("format", {"text", "json"}, "output format", &format)
      .AddAction("tag", "<t>", "repeatable tag",
                 [&seen](std::string_view value) {
                   seen.emplace_back(value);
                   return Status::OK();
                 });

  std::vector<std::string> args =
      Args({"--verbose", "--out=est.json", "--threads=8", "--format=json",
            "--tag=a", "--tag=b", "positional"});
  ASSERT_TRUE(flags.Parse(&args).ok());
  EXPECT_TRUE(verbose);
  EXPECT_EQ(out, "est.json");
  EXPECT_EQ(threads, 8u);
  EXPECT_EQ(format, "json");
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(args, Args({"positional"}));
}

TEST(FlagSetTest, UnknownFlagIsTheExit64Class) {
  FlagSet flags;
  bool verbose = false;
  flags.AddBool("verbose", "say more", &verbose);
  std::vector<std::string> args = Args({"--nope"});
  Status status = flags.Parse(&args);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsUnknownFlagError(status));
}

TEST(FlagSetTest, MalformedValueIsTheExit2Class) {
  FlagSet flags;
  size_t threads = 0;
  std::string format = "text";
  std::string out;
  flags.AddUint("threads", "<n>", "worker threads", &threads)
      .AddChoice("format", {"text", "json"}, "output format", &format)
      .AddString("out", "<file>", "output path", &out);
  // A minus sign is not a huge count, and overflow does not saturate.
  for (const char* bad : {"--threads=zero", "--threads=0", "--threads=",
                          "--threads=-1", "--threads=-0",
                          "--threads=18446744073709551616",
                          "--threads=99999999999999999999", "--threads=1.5",
                          "--format=xml", "--out="}) {
    std::vector<std::string> args = Args({bad});
    Status status = flags.Parse(&args);
    ASSERT_FALSE(status.ok()) << "accepted: " << bad;
    EXPECT_FALSE(IsUnknownFlagError(status)) << bad;
  }
  EXPECT_EQ(threads, 0u);
}

TEST(FlagSetTest, BoolFlagRejectsAValueAndValueFlagRequiresOne) {
  FlagSet flags;
  bool verbose = false;
  std::string out;
  flags.AddBool("verbose", "say more", &verbose)
      .AddString("out", "<file>", "output path", &out);
  {
    std::vector<std::string> args = Args({"--verbose=yes"});
    Status status = flags.Parse(&args);
    ASSERT_FALSE(status.ok());
    EXPECT_FALSE(IsUnknownFlagError(status));
  }
  {
    std::vector<std::string> args = Args({"--out"});
    Status status = flags.Parse(&args);
    ASSERT_FALSE(status.ok());
    EXPECT_FALSE(IsUnknownFlagError(status));
  }
}

TEST(FlagSetTest, ActionErrorsAreUsageErrors) {
  FlagSet flags;
  flags.AddAction("pick", "<x>", "always refuses", [](std::string_view) {
    return Status::InvalidArgument("no");
  });
  std::vector<std::string> args = Args({"--pick=anything"});
  Status status = flags.Parse(&args);
  ASSERT_FALSE(status.ok());
  EXPECT_FALSE(IsUnknownFlagError(status));
}

TEST(FlagSetTest, KeepPolicyLeavesUnknownFlagsForTheNextStage) {
  FlagSet flags;
  bool verbose = false;
  flags.AddBool("verbose", "say more", &verbose);
  std::vector<std::string> args =
      Args({"--verbose", "--benchmark_filter=prof", "input.csv"});
  ASSERT_TRUE(flags.Parse(&args, FlagSet::UnknownFlags::kKeep).ok());
  EXPECT_TRUE(verbose);
  EXPECT_EQ(args, Args({"--benchmark_filter=prof", "input.csv"}));
}

TEST(FlagSetTest, PositionalsSurviveInOrder) {
  FlagSet flags;
  bool verbose = false;
  flags.AddBool("verbose", "say more", &verbose);
  std::vector<std::string> args =
      Args({"first", "--verbose", "second", "third"});
  ASSERT_TRUE(flags.Parse(&args).ok());
  EXPECT_EQ(args, Args({"first", "second", "third"}));
}

TEST(FlagSetTest, UsageTextListsEveryFlagWithItsValueShape) {
  FlagSet flags;
  bool verbose = false;
  std::string format = "text";
  size_t threads = 0;
  flags.AddBool("verbose", "say more", &verbose)
      .AddChoice("format", {"text", "json"}, "output format", &format)
      .AddUint("threads", "<n>", "worker threads", &threads);
  const std::string usage = flags.UsageText();
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--format=text|json"), std::string::npos);
  EXPECT_NE(usage.find("--threads=<n>"), std::string::npos);
  EXPECT_NE(usage.find("say more"), std::string::npos);
  EXPECT_NE(usage.find("worker threads"), std::string::npos);
}

}  // namespace
}  // namespace efes
