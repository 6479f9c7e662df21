// End-to-end tests for the efes_serve subsystem: the line protocol
// (parse/serialize/recover), and EfesServer::ServeFd, the loop efes_serve
// runs, driven over a request file and a response file — session
// lifecycle, per-request fault containment, deadlines, overload
// shedding, graceful shutdown, and byte-determinism of responses across
// runs and thread counts.

#include "efes/serve/server.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "efes/common/fault.h"
#include "efes/common/file_io.h"
#include "efes/common/parallel.h"
#include "efes/scenario/paper_example.h"
#include "efes/scenario/scenario_io.h"
#include "efes/serve/protocol.h"

namespace efes {
namespace {

// --------------------------------------------------------------- protocol

TEST(ServeProtocolTest, ParsesAFullRequest) {
  auto request = ParseServeRequest(
      R"({"id":"r1","op":"estimate","session":"s","quality":"low",)"
      R"("modules":"mapping,dedup","format":"text","faults":"engine.assess:once",)"
      R"("lenient":true,"explain":true,"deadline_ms":250})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->id, "r1");
  EXPECT_EQ(request->op, "estimate");
  EXPECT_EQ(request->session, "s");
  EXPECT_EQ(request->quality, "low");
  EXPECT_EQ(request->modules, "mapping,dedup");
  EXPECT_EQ(request->format, "text");
  EXPECT_EQ(request->faults, "engine.assess:once");
  EXPECT_TRUE(request->lenient);
  EXPECT_TRUE(request->explain);
  EXPECT_TRUE(request->has_deadline);
  EXPECT_EQ(request->deadline_ms, 250u);
}

TEST(ServeProtocolTest, RejectsGarbageNestedValuesAndUnknownKeys) {
  EXPECT_FALSE(ParseServeRequest("not json at all").ok());
  EXPECT_FALSE(ParseServeRequest("").ok());
  EXPECT_FALSE(ParseServeRequest("{\"id\":\"x\",\"op\":\"ping\"").ok());
  EXPECT_FALSE(
      ParseServeRequest(R"({"id":"x","op":"ping","extra":{"a":1}})").ok());
  EXPECT_FALSE(
      ParseServeRequest(R"({"id":"x","op":"ping","bogus_key":"v"})").ok());
  EXPECT_FALSE(ParseServeRequest(R"({"id":"x","op":"frobnicate"})").ok());
  EXPECT_FALSE(ParseServeRequest(R"({"op":"ping"})").ok());  // id required
}

TEST(ServeProtocolTest, RecoversTheIdFromMalformedLines) {
  EXPECT_EQ(RecoverRequestId(R"({"id":"r9","op":"ping",)"), "r9");
  EXPECT_EQ(RecoverRequestId("no id here"), "");
}

TEST(ServeProtocolTest, SerializesTheResponseEnvelope) {
  ServeResponse ok;
  ok.id = "a";
  ok.result_json = "{\"pong\":true}";
  EXPECT_EQ(SerializeServeResponse(ok),
            R"({"id":"a","ok":true,"degraded":false,"result":{"pong":true}})");
  ServeResponse error;
  error.id = "b";
  error.status = Status::ResourceExhausted("queue full");
  error.retry_after_ms = 50;
  EXPECT_EQ(
      SerializeServeResponse(error),
      R"({"id":"b","ok":false,"code":"resource exhausted","error":"queue full",)"
      R"("degraded":false,"retry_after_ms":50})");
}

// ----------------------------------------------------------- server fixture

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test *process*: ctest runs each test in parallel, and a
    // shared directory would let one SetUp's remove_all race a sibling's
    // scenario load.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    directory_ = std::filesystem::temp_directory_path() /
                 (std::string("efes_serve_test_") + info->name());
    std::filesystem::remove_all(directory_);
    std::filesystem::create_directories(directory_);
    auto scenario = MakePaperExample();
    ASSERT_TRUE(scenario.ok());
    scenario_dir_ = (directory_ / "scenario").string();
    ASSERT_TRUE(SaveScenario(*scenario, scenario_dir_).ok());
  }

  void TearDown() override {
    FaultRegistry::Global().DisarmAll();
    SetThreadCountOverride(0);
    std::filesystem::remove_all(directory_);
  }

  /// Feeds `requests` to a fresh server's ServeFd through a request file
  /// and returns the lines of its response file, indexed by request id.
  std::map<std::string, std::string> Run(
      const std::vector<std::string>& requests, ServeOptions options = {}) {
    const std::string requests_path = (directory_ / "requests").string();
    const std::string responses_path = (directory_ / "responses").string();
    std::string request_text;
    for (const std::string& request : requests) {
      request_text += request + "\n";
    }
    EXPECT_TRUE(WriteFileAtomic(requests_path, request_text).ok());
    EXPECT_TRUE(WriteFileAtomic(responses_path, "").ok());
    const int in_fd = ::open(requests_path.c_str(), O_RDONLY);
    const int out_fd = ::open(responses_path.c_str(), O_WRONLY);
    EXPECT_GE(in_fd, 0);
    EXPECT_GE(out_fd, 0);
    {
      EfesServer server(std::move(options));
      Status served = server.ServeFd(in_fd, out_fd);
      EXPECT_TRUE(served.ok()) << served.ToString();
    }
    ::close(in_fd);
    ::close(out_fd);
    auto responses = ReadFileToString(responses_path);
    EXPECT_TRUE(responses.ok()) << responses.status();
    std::map<std::string, std::string> by_id;
    std::istringstream out(responses.ok() ? *responses : "");
    std::string line;
    while (std::getline(out, line)) {
      if (line.empty()) continue;
      auto parsed = ParseResponseId(line);
      by_id[parsed] = line;
      ++response_count_;
    }
    return by_id;
  }

  /// Extracts the "id" value a response line leads with.
  static std::string ParseResponseId(const std::string& line) {
    constexpr char kPrefix[] = "{\"id\":\"";
    if (line.rfind(kPrefix, 0) != 0) return "<null>";
    size_t end = line.find('"', sizeof(kPrefix) - 1);
    if (end == std::string::npos) return "<null>";
    return line.substr(sizeof(kPrefix) - 1, end - (sizeof(kPrefix) - 1));
  }

  std::string OpenLine(const std::string& id, const std::string& session) {
    return "{\"id\":\"" + id + "\",\"op\":\"open\",\"session\":\"" + session +
           "\",\"dir\":\"" + scenario_dir_ + "\"}";
  }

  std::filesystem::path directory_;
  std::string scenario_dir_;
  size_t response_count_ = 0;
};

// ---------------------------------------------------------------- lifecycle

TEST_F(ServeTest, PingIsByteStable) {
  auto responses = Run({R"({"id":"p","op":"ping"})"});
  EXPECT_EQ(responses["p"],
            R"({"id":"p","ok":true,"degraded":false,"result":{"pong":true}})");
}

TEST_F(ServeTest, OpenEstimateAssessCloseHappyPath) {
  auto responses = Run({
      OpenLine("o", "movies"),
      R"({"id":"e","op":"estimate","session":"movies","quality":"low"})",
      R"({"id":"a","op":"assess","session":"movies","modules":"mapping"})",
      R"({"id":"c","op":"close","session":"movies"})",
  });
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_NE(responses["o"].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses["o"].find("\"sources\":"), std::string::npos);
  EXPECT_NE(responses["e"].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses["e"].find("\"totals\""), std::string::npos);
  EXPECT_NE(responses["a"].find("\"reports\""), std::string::npos);
  EXPECT_NE(responses["c"].find("\"closed\":true"), std::string::npos);
}

TEST_F(ServeTest, UnknownSessionAndDoubleOpenAreErrors) {
  auto responses = Run({
      R"({"id":"e","op":"estimate","session":"ghost"})",
      OpenLine("o1", "dup"),
      OpenLine("o2", "dup"),
  });
  EXPECT_NE(responses["e"].find("\"code\":\"not found\""), std::string::npos);
  EXPECT_NE(responses["o1"].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses["o2"].find("\"code\":\"already exists\""),
            std::string::npos);
}

TEST_F(ServeTest, SessionTableIsBounded) {
  ServeOptions options;
  options.max_sessions = 1;
  auto responses = Run({OpenLine("o1", "a"), OpenLine("o2", "b")}, options);
  EXPECT_NE(responses["o1"].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses["o2"].find("\"code\":\"resource exhausted\""),
            std::string::npos);
}

// -------------------------------------------------------------- containment

TEST_F(ServeTest, MalformedLineDegradesOnlyItsResponse) {
  auto responses = Run({
      R"({"id":"bad","op":"ping",)",  // truncated JSON
      "complete garbage",
      R"({"id":"p","op":"ping"})",
  });
  EXPECT_NE(responses["bad"].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(responses["<null>"].find("\"id\":null"), std::string::npos);
  EXPECT_NE(responses["p"].find("\"ok\":true"), std::string::npos);
}

TEST_F(ServeTest, RequestFaultIsContainedToItsRequest) {
  // The faulted estimate degrades (module failure contained by the
  // engine); the session, the cache, and the follow-up estimate on the
  // same server are untouched — its response is byte-identical to one
  // from a server that never saw a fault.
  auto with_fault = Run({
      OpenLine("o", "movies"),
      R"({"id":"bad","op":"estimate","session":"movies",)"
      R"("faults":"engine.assess:once"})",
      R"({"id":"good","op":"estimate","session":"movies"})",
  });
  auto clean = Run({
      OpenLine("o", "movies"),
      R"({"id":"good","op":"estimate","session":"movies"})",
  });
  EXPECT_NE(with_fault["bad"].find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(with_fault["good"].find("\"degraded\":false"),
            std::string::npos);
  EXPECT_EQ(with_fault["good"], clean["good"]);
}

TEST_F(ServeTest, RequestTaskFaultIsThreadCountInvariant) {
  // A request's faults reach the pool threads that run its tasks, so a
  // `parallel.task` fault fires on the same task, and degrades the same
  // modules, at every thread count.
  std::vector<std::string> answers;
  for (size_t threads : {1, 2, 8}) {
    SetThreadCountOverride(threads);
    auto responses = Run({
        OpenLine("o", "movies"),
        R"({"id":"f","op":"estimate","session":"movies","format":"json",)"
        R"("faults":"parallel.task:n=3"})",
    });
    answers.push_back(responses["f"]);
  }
  EXPECT_NE(answers[0].find("\"degraded\":true"), std::string::npos);
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[0], answers[2]);
}

TEST_F(ServeTest, BadFaultSpecIsAnErrorNotACrash) {
  auto responses = Run({
      OpenLine("o", "movies"),
      R"({"id":"e","op":"estimate","session":"movies",)"
      R"("faults":"serve.cancel:n=notanumber"})",
  });
  EXPECT_NE(responses["e"].find("\"ok\":false"), std::string::npos);
}

TEST_F(ServeTest, FaultedLoadFailsTheOpenOnly) {
  std::string broken_dir = (directory_ / "missing").string();
  auto responses = Run({
      "{\"id\":\"bad\",\"op\":\"open\",\"session\":\"broken\",\"dir\":\"" +
          broken_dir + "\"}",
      OpenLine("o", "movies"),
      R"({"id":"e","op":"estimate","session":"movies"})",
  });
  EXPECT_NE(responses["bad"].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(responses["o"].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses["e"].find("\"ok\":true"), std::string::npos);
}

// ----------------------------------------------------------------- deadlines

TEST_F(ServeTest, ExpiredDeadlineFailsWholeNeverTorn) {
  auto responses = Run({
      OpenLine("o", "movies"),
      R"({"id":"late","op":"estimate","session":"movies","deadline_ms":0})",
      R"({"id":"ok","op":"estimate","session":"movies"})",
  });
  EXPECT_NE(responses["late"].find("\"code\":\"deadline exceeded\""),
            std::string::npos);
  // No partial result rides along with the failure.
  EXPECT_EQ(responses["late"].find("\"result\""), std::string::npos);
  // The session survives its request's deadline.
  EXPECT_NE(responses["ok"].find("\"ok\":true"), std::string::npos);
}

TEST_F(ServeTest, ExpiredDeadlineOnOpenLeavesNoSessionBehind) {
  auto responses = Run({
      "{\"id\":\"o\",\"op\":\"open\",\"session\":\"movies\",\"dir\":\"" +
          scenario_dir_ + "\",\"deadline_ms\":0}",
      R"({"id":"e","op":"estimate","session":"movies"})",
  });
  EXPECT_NE(responses["o"].find("\"code\":\"deadline exceeded\""),
            std::string::npos);
  EXPECT_NE(responses["e"].find("\"code\":\"not found\""), std::string::npos);
}

TEST_F(ServeTest, WatchdogForceFailsAStalledRequest) {
  ServeOptions options;
  options.watchdog_grace_ms = 20;
  auto responses = Run(
      {
          OpenLine("o", "movies"),
          R"({"id":"stuck","op":"estimate","session":"movies",)"
          R"("faults":"serve.stall:once","deadline_ms":1})",
      },
      options);
  EXPECT_EQ(responses["stuck"],
            R"({"id":"stuck","ok":false,"code":"deadline exceeded",)"
            R"("error":"deadline expired mid-module; the watchdog discarded )"
            R"(the result","degraded":false})");
}

// ------------------------------------------------------------ concurrency

TEST_F(ServeTest, ExplainDoesNotHoldOtherSessions) {
  // Each run records into its own recorder, so an `explain` estimate
  // needs no server to itself: one stalled on session s1 (parked until
  // the watchdog fails it, past its deadline) must not hold an `explain`
  // estimate on s2. Requests go through pipes, so the stalled one is
  // running before the other is sent. The deadline leaves sanitizer
  // builds ample time to answer the free request first.
  int to_server[2];
  int from_server[2];
  ASSERT_EQ(::pipe(to_server), 0);
  ASSERT_EQ(::pipe(from_server), 0);
  ServeOptions options;
  options.workers = 2;
  options.watchdog_grace_ms = 20;
  std::thread serving([&] {
    EfesServer server(options);
    EXPECT_TRUE(server.ServeFd(to_server[0], from_server[1]).ok());
    ::close(from_server[1]);
  });
  auto send = [&](const std::string& line) {
    const std::string buffer = line + "\n";
    EXPECT_EQ(::write(to_server[1], buffer.data(), buffer.size()),
              static_cast<ssize_t>(buffer.size()));
  };
  FILE* responses = ::fdopen(from_server[0], "r");
  auto next_response = [&]() -> std::string {
    char* data = nullptr;
    size_t capacity = 0;
    const ssize_t length = ::getline(&data, &capacity, responses);
    std::string line = length > 0 ? std::string(data, length) : "";
    std::free(data);
    return line;
  };

  send(OpenLine("o1", "s1"));
  send(OpenLine("o2", "s2"));
  for (int i = 0; i < 2; ++i) {
    EXPECT_NE(next_response().find("\"ok\":true"), std::string::npos);
  }
  send(R"({"id":"stalled","op":"estimate","session":"s1","explain":true,)"
       R"("faults":"serve.stall:once","deadline_ms":1000})");
  // `stats` is answered inline. Once it counts no admitted-but-unstarted
  // request, the stalled one is running.
  bool started = false;
  for (int poll = 0; poll < 100000 && !started; ++poll) {
    send(R"({"id":"stats","op":"stats"})");
    started = next_response().find("\"queued\":0") != std::string::npos;
  }
  EXPECT_TRUE(started);
  send(R"({"id":"free","op":"estimate","session":"s2","explain":true})");
  const std::string first = next_response();
  const std::string second = next_response();
  ::close(to_server[1]);
  serving.join();
  std::fclose(responses);
  ::close(to_server[0]);

  EXPECT_EQ(ParseResponseId(first), "free");
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(first.find("\"provenance\""), std::string::npos);
  EXPECT_EQ(ParseResponseId(second), "stalled");
  EXPECT_NE(second.find("\"code\":\"deadline exceeded\""),
            std::string::npos);
}

// ------------------------------------------------- overload + graceful drain

TEST_F(ServeTest, OverloadIsShedWithRetryAfter) {
  ServeOptions options;
  options.max_queue = 0;  // everything sheds, deterministically
  auto responses = Run({OpenLine("o", "movies")}, options);
  EXPECT_NE(responses["o"].find("\"code\":\"resource exhausted\""),
            std::string::npos);
  EXPECT_NE(responses["o"].find("\"retry_after_ms\":50"), std::string::npos);
}

TEST_F(ServeTest, ShutdownDrainsAndRefusesNewWork) {
  auto responses = Run({
      OpenLine("o", "movies"),
      R"({"id":"e","op":"estimate","session":"movies"})",
      R"({"id":"s","op":"shutdown"})",
      R"({"id":"after","op":"ping"})",
  });
  // Work admitted before shutdown still completes (drained, not dropped).
  EXPECT_NE(responses["e"].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses["s"].find("\"draining\":true"), std::string::npos);
  EXPECT_NE(responses["after"].find("\"code\":\"unavailable\""),
            std::string::npos);
}

// -------------------------------------------------------------- determinism

TEST_F(ServeTest, ResponsesAreByteIdenticalAcrossRuns) {
  const std::vector<std::string> requests = {
      OpenLine("o", "movies"),
      R"({"id":"e1","op":"estimate","session":"movies","quality":"low"})",
      R"({"id":"e2","op":"estimate","session":"movies","format":"text"})",
      R"({"id":"bad","op":"estimate","session":"movies",)"
      R"("faults":"engine.plan:once"})",
      R"({"id":"late","op":"estimate","session":"movies","deadline_ms":0})",
      R"({"id":"c","op":"close","session":"movies"})",
  };
  // A huge watchdog grace keeps the already-expired request on its
  // deterministic cooperative-checkpoint path (the watchdog's force-fail
  // is a liveness backstop, raced on purpose only in the stall test).
  ServeOptions options;
  options.watchdog_grace_ms = 600000;
  auto first = Run(requests, options);
  options = ServeOptions{};
  options.watchdog_grace_ms = 600000;
  auto second = Run(requests, options);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace efes
