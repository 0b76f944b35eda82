// Tests for the shared --flag parser (common/cli_args.hpp), in particular
// the strict numeric/choice validation the CLIs rely on: a malformed value
// must abort with a clear CheckError instead of silently truncating
// ("10x" -> 10) or falling back to a default — a typo'd campaign flag must
// never silently run a different campaign.
#include "common/cli_args.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/progress.hpp"

namespace caft {
namespace {

/// Builds a CliArgs from a token list (argv[0] is skipped by the parser).
CliArgs make_args(std::vector<std::string> tokens) {
  tokens.insert(tokens.begin(), "prog");
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& token : tokens) argv.push_back(token.data());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, ParsesFlagsValuesAndPositionals) {
  // A flag followed by a non-flag token consumes it as its value, so the
  // positional comes first and the bare flag last.
  const CliArgs args = make_args({"input.txt", "--replays", "500", "--gantt"});
  EXPECT_EQ(args.get("replays"), "500");
  EXPECT_TRUE(args.has("gantt"));
  EXPECT_EQ(args.get("gantt"), "true");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.get_size("replays", 0), 500u);
  EXPECT_EQ(args.get_size("absent", 7), 7u);
}

TEST(CliArgs, GetDoubleParsesStrictly) {
  const CliArgs args = make_args({"--rate", "0.25", "--bad", "0.25x",
                                  "--empty-ish", "--neg", "-0.5"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 1.5), 1.5);
  // Trailing junk, and a bare flag where a number is required, both throw.
  EXPECT_THROW((void)args.get_double("bad", 0.0), CheckError);
  EXPECT_THROW((void)args.get_double("empty-ish", 0.0), CheckError);
  // "-0.5" parses as the *next flag* being absent — the parser treats a
  // leading '-' token as this flag's value only when it does not start
  // with "--"; get_double accepts genuine negative numbers.
  EXPECT_DOUBLE_EQ(args.get_double("neg", 0.0), -0.5);
}

TEST(CliArgs, GetSizeRejectsMalformedCounts) {
  const CliArgs args = make_args({"--replays", "10O0", "--neg", "-5",
                                  "--float", "3.5", "--ok", "12"});
  EXPECT_EQ(args.get_size("ok", 0), 12u);
  EXPECT_THROW((void)args.get_size("replays", 0), CheckError);  // letter O
  EXPECT_THROW((void)args.get_size("neg", 0), CheckError);
  EXPECT_THROW((void)args.get_size("float", 0), CheckError);
}

TEST(CliArgs, GetChoiceValidatesAgainstSet) {
  const CliArgs args =
      make_args({"--exec", "subprocess", "--sampler", "fast"});
  EXPECT_EQ(args.get_choice("exec", "in-process", {"in-process", "subprocess"}),
            "subprocess");
  EXPECT_EQ(
      args.get_choice("absent", "in-process", {"in-process", "subprocess"}),
      "in-process");
  try {
    (void)args.get_choice("sampler", "uniform", {"uniform", "window"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    // The message must name the flag, the bad value and the valid set.
    const std::string what = error.what();
    EXPECT_NE(what.find("--sampler"), std::string::npos);
    EXPECT_NE(what.find("'fast'"), std::string::npos);
    EXPECT_NE(what.find("uniform|window"), std::string::npos);
  }
}

TEST(CliArgs, RejectUnreadNamesEveryUnconsultedFlag) {
  // A typo'd flag, and a retired one, must abort — never run the default.
  const CliArgs args = make_args({"--replays", "10", "--replys", "5000",
                                  "--block-replays", "25", "--csv", "out"});
  EXPECT_EQ(args.get_size("replays", 1000), 10u);
  (void)args.get("csv");
  try {
    args.reject_unread();
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--replys"), std::string::npos) << what;
    EXPECT_NE(what.find("--block-replays"), std::string::npos) << what;
    EXPECT_EQ(what.find("--replays"), std::string::npos) << what;
    EXPECT_EQ(what.find("--csv"), std::string::npos) << what;
  }
}

TEST(CliArgs, RejectUnreadCountsEveryAccessorAndIgnoresPositionals) {
  // has() and a lookup that falls back to the default both count as reads:
  // a flag the mode consulted is accepted whatever its value.
  const CliArgs args = make_args({"1", "--gantt", "--k", "2", "--rate",
                                  "0.5", "--sampler", "exp", "--theta-lo",
                                  "3"});
  EXPECT_TRUE(args.has("gantt"));
  EXPECT_EQ(args.get_size("k", 1), 2u);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(args.get_choice("sampler", "uniform", {"uniform", "exp"}), "exp");
  EXPECT_FALSE(args.has("absent"));
  EXPECT_THROW(args.reject_unread(), CheckError);  // --theta-lo unread
  (void)args.get_double("theta-lo", 0.0);
  EXPECT_NO_THROW(args.reject_unread());
  EXPECT_NO_THROW(make_args({}).reject_unread());
}

TEST(CliArgs, CheckWritablePathAcceptsAndPreservesFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "caft_cli_args_probe.txt")
          .string();
  std::remove(path.c_str());

  // A creatable path passes; the probe must not leave partial state that
  // confuses the real writer later (an empty file is fine — it is what the
  // writer would produce anyway).
  CliArgs::check_writable_path("trace-out", path);

  // An *existing* file must survive the probe byte-identically: validation
  // runs before the campaign, and aborting later for an unrelated reason
  // must not have truncated a previous run's artifact.
  { std::ofstream out(path, std::ios::trunc); out << "previous artifact"; }
  CliArgs::check_writable_path("trace-out", path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "previous artifact");
  std::remove(path.c_str());
}

TEST(CliArgs, CheckWritablePathRejectsBadTargets) {
  // A directory that does not exist: fail now, not after the campaign.
  try {
    CliArgs::check_writable_path("metrics-out",
                                 "/nonexistent-dir-xyzzy/metrics.json");
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--metrics-out"), std::string::npos);
    EXPECT_NE(what.find("/nonexistent-dir-xyzzy/metrics.json"),
              std::string::npos);
  }
  // A bare flag parses as the value "true": that is a missing path, not a
  // file named "true" in the working directory.
  EXPECT_THROW(CliArgs::check_writable_path("trace-out", "true"), CheckError);
  EXPECT_THROW(CliArgs::check_writable_path("trace-out", ""), CheckError);
}

TEST(CliArgs, CheckPortParsesStrictly) {
  EXPECT_EQ(CliArgs::check_port("port", "0"), 0);  // 0 = ephemeral bind
  EXPECT_EQ(CliArgs::check_port("port", "7070"), 7070);
  EXPECT_EQ(CliArgs::check_port("port", "65535"), 65535);
  const std::vector<std::string> bad = {
      "65536",   // one past the top
      "80x",     // trailing junk
      "-1",      // get_size rule: leading '-' never silently wraps
      "",        // empty
      "true",    // a bare --port with no value
      "999999999999999999999",  // longer than any port, must not overflow
      "0x50",    // no hex ports
  };
  for (const std::string& text : bad) {
    try {
      (void)CliArgs::check_port("port", text);
      FAIL() << "expected CheckError for '" << text << "'";
    } catch (const CheckError& error) {
      // The message must name the flag and the offending value.
      const std::string what = error.what();
      EXPECT_NE(what.find("--port"), std::string::npos) << text;
    }
  }
}

TEST(CliArgs, CheckListenAddressAcceptsDottedQuadsOnly) {
  EXPECT_EQ(CliArgs::check_listen_address("listen", "127.0.0.1"),
            "127.0.0.1");
  EXPECT_EQ(CliArgs::check_listen_address("listen", "0.0.0.0"), "0.0.0.0");
  EXPECT_EQ(CliArgs::check_listen_address("listen", "10.255.0.42"),
            "10.255.0.42");
  const std::vector<std::string> bad = {
      "localhost",      // hostnames mean DNS; a listen address names an
                        // interface — rejected by design
      "127.0.0.256",    // octet out of range
      "127.0.0",        // three octets
      "1.2.3.4.5",      // five octets
      "127.0..1",       // empty octet
      "127.0.0.1 ",     // trailing junk
      " 127.0.0.1",     // leading junk
      "127.0.0.+1",     // stoul would eat the '+'; the checker must not
      "::1",            // IPv6 not spoken here
      "",               // empty
      "true",           // bare --listen
  };
  for (const std::string& text : bad) {
    try {
      (void)CliArgs::check_listen_address("listen", text);
      FAIL() << "expected CheckError for '" << text << "'";
    } catch (const CheckError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("--listen"), std::string::npos) << text;
      // Actionable: the message suggests the two sane defaults.
      EXPECT_NE(what.find("127.0.0.1"), std::string::npos) << text;
      EXPECT_NE(what.find("0.0.0.0"), std::string::npos) << text;
    }
  }
}

// --- ProgressHeartbeat (campaign/progress.hpp) — the --progress state
// machine the CLIs hang on CampaignProgress callbacks, driven here with an
// injected clock so the 200 ms throttle is deterministic.

CampaignProgress progress_at(std::size_t done, std::size_t total) {
  CampaignProgress progress;
  progress.replays_done = done;
  progress.replays_total = total;
  progress.successes = done;
  return progress;
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  return lines;
}

TEST(ProgressHeartbeat, EmitsTerminalLineSwallowedByThrottle) {
  // The regression this class exists for: the campaign's last update lands
  // inside the 200 ms throttle window with replays_done < replays_total
  // (an early-stopped campaign, or intermediate folds) — finish() must
  // still emit the terminal state instead of leaving the heartbeat frozen
  // at an earlier count.
  using Clock = ProgressHeartbeat::Clock;
  Clock::time_point fake_now{std::chrono::seconds(1000)};
  std::ostringstream sink;
  ProgressHeartbeat heartbeat(&sink, [&] { return fake_now; });

  heartbeat(progress_at(100, 1000));  // first update always prints
  fake_now += std::chrono::milliseconds(50);
  heartbeat(progress_at(300, 1000));  // throttled: 50 ms < 200 ms
  EXPECT_EQ(count_lines(sink.str()), 1u);
  EXPECT_NE(sink.str().find("100/1000"), std::string::npos);

  heartbeat.finish();  // campaign complete (early stop at 300)
  EXPECT_EQ(count_lines(sink.str()), 2u);
  EXPECT_NE(sink.str().find("300/1000"), std::string::npos);
  heartbeat.finish();  // idempotent
  EXPECT_EQ(count_lines(sink.str()), 2u);
}

TEST(ProgressHeartbeat, FinalUpdateBypassesThrottleAndFinishStaysQuiet) {
  using Clock = ProgressHeartbeat::Clock;
  Clock::time_point fake_now{std::chrono::seconds(1000)};
  std::ostringstream sink;
  ProgressHeartbeat heartbeat(&sink, [&] { return fake_now; });

  heartbeat(progress_at(500, 1000));
  fake_now += std::chrono::milliseconds(10);
  heartbeat(progress_at(1000, 1000));  // done == total: prints regardless
  EXPECT_EQ(count_lines(sink.str()), 2u);
  EXPECT_NE(sink.str().find("1000/1000"), std::string::npos);
  EXPECT_NE(sink.str().find("100.0%"), std::string::npos);
  heartbeat.finish();  // nothing pending — no duplicate line
  EXPECT_EQ(count_lines(sink.str()), 2u);
}

TEST(ProgressHeartbeat, RestartedCampaignResetsRateState) {
  using Clock = ProgressHeartbeat::Clock;
  Clock::time_point fake_now{std::chrono::seconds(1000)};
  std::ostringstream sink;
  ProgressHeartbeat heartbeat(&sink, [&] { return fake_now; });

  heartbeat(progress_at(1000, 1000));  // campaign A completes
  fake_now += std::chrono::milliseconds(10);
  // Campaign B begins: a non-increasing count (or changed total) resets
  // the throttle, so B's first update prints even inside A's window.
  heartbeat(progress_at(200, 2000));
  EXPECT_EQ(count_lines(sink.str()), 2u);
  EXPECT_NE(sink.str().find("200/2000"), std::string::npos);
  heartbeat.finish();  // B's last state already printed
  EXPECT_EQ(count_lines(sink.str()), 2u);
}

TEST(ProgressHeartbeat, FinishWithNoObservationsIsANoOp) {
  std::ostringstream sink;
  ProgressHeartbeat heartbeat(&sink);
  heartbeat.finish();
  EXPECT_TRUE(sink.str().empty());
}

}  // namespace
}  // namespace caft
