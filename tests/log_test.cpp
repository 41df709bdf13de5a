// Structured event log tests (common/log.h): exact line bytes under an
// injected clock, level filtering, field rendering/escaping, the
// reese_fleet_events_total counter, file sinks, and serialization under
// concurrent emitters.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"

namespace reese {
namespace {

using log::Field;
using log::Level;
using log::Logger;

/// A logger frozen at a fixed instant, writing into `capture`.
void freeze(Logger* logger, std::string* capture, double at = 1234.5) {
  logger->set_clock([at] { return at; });
  logger->set_capture(capture);
}

TEST(Log, LevelNamesRoundTrip) {
  EXPECT_STREQ(log::level_name(Level::kDebug), "debug");
  EXPECT_STREQ(log::level_name(Level::kError), "error");
  Level level;
  ASSERT_TRUE(log::level_from_name("warn", &level));
  EXPECT_EQ(level, Level::kWarn);
  ASSERT_TRUE(log::level_from_name("debug", &level));
  EXPECT_EQ(level, Level::kDebug);
  EXPECT_FALSE(log::level_from_name("verbose", &level));
  EXPECT_FALSE(log::level_from_name("", &level));
}

TEST(Log, EmitsExactJsonLines) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  logger.info("worker_dead", "worker 127.0.0.1:9 unreachable",
              {log::field("worker", "127.0.0.1:9"),
               log::field("shard", static_cast<u64>(3)),
               log::field("kips", 12.5),
               log::field("cancelled", false)});
  EXPECT_EQ(capture,
            "{\"ts\": 1234.500000, \"level\": \"info\", "
            "\"kind\": \"worker_dead\", "
            "\"msg\": \"worker 127.0.0.1:9 unreachable\", "
            "\"worker\": \"127.0.0.1:9\", \"shard\": 3, "
            "\"kips\": 12.500000, \"cancelled\": false}\n");
  // Every line is one standalone JSON object.
  EXPECT_TRUE(json::parse_json(capture).ok()) << capture;
}

TEST(Log, EscapesHostileMessagesAndFieldValues) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  logger.warn("config",
              "a \"quoted\"\nmessage\\with\tcontrol\x01" "chars",
              {log::field("path", "/tmp/\"log\".json")});
  ASSERT_EQ(capture.find('\n'), capture.size() - 1)
      << "embedded newlines must be escaped, one event = one line";
  EXPECT_TRUE(json::parse_json(capture).ok()) << capture;
  EXPECT_NE(capture.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(capture.find("\\u0001"), std::string::npos);
}

TEST(Log, LevelFilterDropsQuietly) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  EXPECT_EQ(logger.level(), Level::kInfo) << "default level is info";
  logger.debug("noise", "not emitted");
  EXPECT_TRUE(capture.empty());
  EXPECT_EQ(logger.events_written(), 0u);

  logger.set_level(Level::kError);
  logger.info("still_noise", "not emitted");
  logger.error("fatal", "emitted");
  EXPECT_EQ(logger.events_written(), 1u);
  EXPECT_NE(capture.find("\"kind\": \"fatal\""), std::string::npos);

  logger.set_level(Level::kDebug);
  logger.debug("now_loud", "emitted");
  EXPECT_EQ(logger.events_written(), 2u);
}

TEST(Log, EveryEventBumpsTheKindCounter) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  metrics::Registry registry;
  logger.set_registry(&registry);
  EXPECT_EQ(logger.registry(), &registry);
  logger.info("shard_dispatch", "one");
  logger.info("shard_dispatch", "two");
  logger.info("shard_merged", "three");
  logger.debug("dropped", "below the level filter: not counted");
  logger.set_registry(nullptr);
  logger.info("untracked", "after detach: not counted");

  metrics::Counter* dispatch = registry.counter(
      "reese_fleet_events_total", {{"kind", "shard_dispatch"}});
  metrics::Counter* merged = registry.counter(
      "reese_fleet_events_total", {{"kind", "shard_merged"}});
  ASSERT_NE(dispatch, nullptr);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(dispatch->value(), 2u);
  EXPECT_EQ(merged->value(), 1u);
  EXPECT_EQ(registry.size(), 2u) << "dropped/detached events add no series";
}

TEST(Log, FileSinkAppendsAcrossReopen) {
  char path[] = "/tmp/reese_log_test_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);

  Logger logger;
  logger.set_clock([] { return 1.0; });
  ASSERT_TRUE(logger.open_file(path));
  logger.info("first", "one");
  // Reopening the same path (a restarted daemon) must append, not clobber.
  ASSERT_TRUE(logger.open_file(path));
  logger.info("second", "two");

  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"kind\": \"first\""), std::string::npos);
  EXPECT_NE(content.str().find("\"kind\": \"second\""), std::string::npos);

  EXPECT_FALSE(logger.open_file("/no/such/dir/event.log"))
      << "an unopenable path must fail without losing the current sink";
  logger.info("third", "still landing in the original file");
  std::ifstream again(path);
  std::stringstream later;
  later << again.rdbuf();
  EXPECT_NE(later.str().find("\"kind\": \"third\""), std::string::npos);
  ::unlink(path);
}

TEST(Log, ConcurrentEmittersNeverInterleaveWithinALine) {
  Logger logger;
  std::string capture;
  freeze(&logger, &capture);
  constexpr int kThreads = 8;
  constexpr int kEvents = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kEvents; ++i) {
        logger.info("stress", "event",
                    {log::field("thread", t), log::field("i", i)});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(logger.events_written(),
            static_cast<u64>(kThreads) * kEvents);
  // Each line parses on its own: interleaved writes would corrupt one.
  usize lines = 0;
  std::istringstream stream(capture);
  std::string line;
  while (std::getline(stream, line)) {
    ++lines;
    EXPECT_TRUE(json::parse_json(line).ok()) << line;
  }
  EXPECT_EQ(lines, static_cast<usize>(kThreads) * kEvents);
}

}  // namespace
}  // namespace reese
