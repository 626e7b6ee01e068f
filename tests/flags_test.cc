// The flag parser shared by neutraj_cli, neutraj_server and neutraj_client
// (tools/flags.h).

#include "flags.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace neutraj::flags {
namespace {

TEST(FlagsTest, ValuesBooleansAndStrayPositionals) {
  // A token after a flag that does not start with "--" is its value, even
  // when it looks like a negative number; a flag with no value is a boolean.
  const char* topk[] = {"neutraj_client", "topk", "--exclude", "-1", "--k",
                        "5", "--prometheus"};
  const Args args = ParseArgs(7, topk, /*subcommand=*/true);
  EXPECT_EQ(args.command, "topk");
  EXPECT_EQ(args.GetInt("exclude", 0), -1);
  EXPECT_EQ(args.GetInt("k", 10), 5);
  EXPECT_TRUE(args.Has("prometheus"));
  EXPECT_EQ(args.Get("prometheus"), "1");
  EXPECT_FALSE(args.Has("nprobe"));
  EXPECT_THROW(args.Require("traj"), std::runtime_error);

  const char* stray[] = {"neutraj_server", "--model", "m.ntj", "extra", "x"};
  EXPECT_THROW(ParseArgs(5, stray, /*subcommand=*/false), std::runtime_error);
  const char* none[] = {"neutraj_cli"};
  EXPECT_THROW(ParseArgs(1, none, /*subcommand=*/true), std::runtime_error);
}

}  // namespace
}  // namespace neutraj::flags
