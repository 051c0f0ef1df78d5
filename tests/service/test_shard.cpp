// End-to-end tests of the pre-fork sharded server (service/shard.hpp): real
// fork()ed workers behind a real TCP listener. Covers digest routing (repeat
// queries for one architecture land on one worker and hit its session
// cache), exactly-once envelope delivery across a kill -9 worker crash, and
// the SIGTERM-drain contract.
#include "service/shard.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "service/transport.hpp"
#include "util/drain.hpp"
#include "util/json.hpp"

namespace autosec::service {
namespace {

using util::JsonValue;

std::string source_path(const std::string& relative) {
  return std::string(AUTOSEC_SOURCE_DIR) + "/" + relative;
}

std::string analyze_line(const std::string& id,
                         const std::string& architecture = "data/arch1.arch",
                         int nmax = 1) {
  return "{\"id\": \"" + id + "\", \"op\": \"analyze\", \"nmax\": " +
         std::to_string(nmax) + ", \"architecture\": \"" + source_path(architecture) +
         "\"}";
}

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking line reader over a client socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  std::string next() {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(got));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Thread-safe capture of the supervisor's err stream (the reaper thread and
/// the accept loop both write to it).
class LockedBuffer : public std::streambuf {
 public:
  std::string text() {
    std::lock_guard<std::mutex> lock(mutex_);
    return text_;
  }
  bool contains(const std::string& needle) {
    return text().find(needle) != std::string::npos;
  }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    std::lock_guard<std::mutex> lock(mutex_);
    text_.append(data, static_cast<size_t>(count));
    return count;
  }
  int overflow(int character) override {
    if (character != EOF) {
      std::lock_guard<std::mutex> lock(mutex_);
      text_.push_back(static_cast<char>(character));
    }
    return character;
  }

 private:
  std::mutex mutex_;
  std::string text_;
};

/// Direct children of this process, from /proc — how the crash test finds a
/// worker to kill without the supervisor's help.
std::vector<pid_t> child_pids() {
  std::vector<pid_t> children;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return children;
  const pid_t self = ::getpid();
  while (const dirent* entry = ::readdir(proc)) {
    const std::string name = entry->d_name;
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat("/proc/" + name + "/stat");
    std::string content;
    std::getline(stat, content);
    // "pid (comm) state ppid ..." — comm may hold anything, so parse from
    // the LAST ')' onward.
    const size_t close_paren = content.rfind(')');
    if (close_paren == std::string::npos) continue;
    std::istringstream fields(content.substr(close_paren + 1));
    std::string state;
    pid_t ppid = 0;
    fields >> state >> ppid;
    if (ppid == self) children.push_back(static_cast<pid_t>(std::stol(name)));
  }
  ::closedir(proc);
  return children;
}

struct ShardFixture {
  explicit ShardFixture(int workers) {
    util::drain_fd();  // ensure the drain self-pipe exists
    util::reset_drain();
    std::string error;
    listen_fd = listen_tcp("127.0.0.1:0", &port, error);
    EXPECT_GE(listen_fd, 0) << error;
    options.deterministic = true;
    options.workers = workers;
    err_stream = std::make_unique<std::ostream>(&err);
    supervisor = std::thread([this] {
      exit_code = run_sharded(listen_fd, options, *err_stream);
    });
  }

  ~ShardFixture() {
    if (supervisor.joinable()) {
      util::request_drain();
      supervisor.join();
    }
    ::close(listen_fd);
    util::reset_drain();
  }

  /// Request a drain and wait for run_sharded to return.
  int drain() {
    util::request_drain();
    supervisor.join();
    return exit_code;
  }

  ServerOptions options;
  int listen_fd = -1;
  int port = 0;
  LockedBuffer err;
  std::unique_ptr<std::ostream> err_stream;
  std::thread supervisor;
  int exit_code = -1;
};

TEST(ShardTest, DigestRoutingKeepsOneWorkersSessionCacheHotAcrossConnections) {
  ShardFixture fixture(2);

  const int first = connect_tcp(fixture.port);
  ASSERT_GE(first, 0);
  LineReader first_reader(first);
  ASSERT_TRUE(write_fd_all(first, analyze_line("r1") + "\n"));
  const JsonValue cold = JsonValue::parse(first_reader.next());
  EXPECT_EQ(cold.string_or("id", ""), "r1");
  ASSERT_TRUE(cold.bool_or("ok", false)) << cold.dump();
  EXPECT_EQ(cold.find("metrics")->string_or("session_cache", ""), "miss");

  // A DIFFERENT connection repeating the same architecture is routed to the
  // same worker by digest — its session cache is already hot.
  const int second = connect_tcp(fixture.port);
  ASSERT_GE(second, 0);
  LineReader second_reader(second);
  ASSERT_TRUE(write_fd_all(second, analyze_line("r2") + "\n"));
  const JsonValue warm = JsonValue::parse(second_reader.next());
  EXPECT_EQ(warm.string_or("id", ""), "r2");
  ASSERT_TRUE(warm.bool_or("ok", false)) << warm.dump();
  EXPECT_EQ(warm.find("metrics")->string_or("session_cache", ""), "hit");
  EXPECT_EQ(warm.find("metrics")->int_or("explores", -1), 0);
  // And both saw the identical result payload.
  EXPECT_EQ(cold.find("result")->dump(), warm.find("result")->dump());

  ::close(first);
  ::close(second);
  EXPECT_EQ(fixture.drain(), 0);
  EXPECT_TRUE(fixture.err.contains("2 workers ready")) << fixture.err.text();
  EXPECT_TRUE(fixture.err.contains("drained")) << fixture.err.text();
}

TEST(ShardTest, ResponsesKeepPerConnectionInputOrder) {
  ShardFixture fixture(2);
  const int fd = connect_tcp(fixture.port);
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  // A burst of pipelined requests, including an unroutable malformed line
  // (round-robins to some worker) sandwiched between routable ones.
  std::string burst;
  for (int i = 0; i < 4; ++i) {
    burst += analyze_line("q" + std::to_string(i)) + "\n";
    if (i == 1) burst += "{not json\n";
  }
  ASSERT_TRUE(write_fd_all(fd, burst));

  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    const JsonValue response = JsonValue::parse(reader.next());
    ids.push_back(response.string_or("id", ""));
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"q0", "q1", "", "q2", "q3"}));
  ::close(fd);
  EXPECT_EQ(fixture.drain(), 0);
}

TEST(ShardTest, KilledWorkerIsRespawnedWithNoLostOrDuplicatedEnvelopes) {
  ShardFixture fixture(1);
  const int fd = connect_tcp(fixture.port);
  ASSERT_GE(fd, 0);
  LineReader reader(fd);

  // Prove the worker is up, and learn its pid, before killing it.
  ASSERT_TRUE(write_fd_all(fd, analyze_line("before") + "\n"));
  const JsonValue before = JsonValue::parse(reader.next());
  ASSERT_TRUE(before.bool_or("ok", false)) << before.dump();
  const std::vector<pid_t> workers = child_pids();
  ASSERT_EQ(workers.size(), 1u);

  ASSERT_EQ(::kill(workers[0], SIGKILL), 0);

  // Requests sent while (or right after) the worker dies must each be
  // answered exactly once by the respawned replacement.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        write_fd_all(fd, analyze_line("after" + std::to_string(i)) + "\n"));
  }
  for (int i = 0; i < 3; ++i) {
    const JsonValue response = JsonValue::parse(reader.next());
    EXPECT_EQ(response.string_or("id", ""), "after" + std::to_string(i));
    EXPECT_TRUE(response.bool_or("ok", false)) << response.dump();
  }

  // The replacement is a different process, and the supervisor said so.
  std::vector<pid_t> respawned;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    respawned = child_pids();
    if (respawned.size() == 1 && respawned[0] != workers[0]) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(respawned.size(), 1u);
  EXPECT_NE(respawned[0], workers[0]);
  EXPECT_TRUE(fixture.err.contains("respawned shard 0")) << fixture.err.text();

  ::close(fd);
  EXPECT_EQ(fixture.drain(), 0);
}

TEST(ShardTest, ShardPastItsRespawnBudgetAnswersInternalErrorInsteadOfHanging) {
  ShardFixture fixture(1);
  const int fd = connect_tcp(fixture.port);
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  ASSERT_TRUE(write_fd_all(fd, analyze_line("before") + "\n"));
  ASSERT_TRUE(JsonValue::parse(reader.next()).bool_or("ok", false));

  // The shard respawns 16 times; the 17th death leaves it down for good.
  // The last worker dies with a request in flight (arch3 at nmax 3 runs for
  // a few hundred milliseconds), so that request is pending under the
  // shard's final generation when the supervisor gives up on it.
  pid_t victim = -1;
  for (int kill_count = 1; kill_count <= 17; ++kill_count) {
    std::vector<pid_t> workers;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      workers = child_pids();
      if (workers.size() == 1 && workers[0] != victim) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(workers.size(), 1u) << "kill " << kill_count;
    ASSERT_NE(workers[0], victim) << "kill " << kill_count;
    victim = workers[0];
    if (kill_count == 17) {
      ASSERT_TRUE(
          write_fd_all(fd, analyze_line("in_flight", "data/arch3.arch", 3) + "\n"));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_EQ(::kill(victim, SIGKILL), 0);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!fixture.err.contains("exceeded its respawn budget") &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fixture.err.contains("exceeded its respawn budget")) << fixture.err.text();
  // The in-flight request and one sent to the dead shard are each answered
  // with a synthetic internal_error — neither is left pending forever.
  ASSERT_TRUE(write_fd_all(fd, analyze_line("after") + "\n"));
  for (const char* id : {"in_flight", "after"}) {
    const JsonValue response = JsonValue::parse(reader.next());
    EXPECT_EQ(response.string_or("id", ""), id);
    EXPECT_FALSE(response.bool_or("ok", true)) << response.dump();
    EXPECT_EQ(response.find("error")->string_or("code", ""), "internal_error");
  }

  ::close(fd);
  EXPECT_EQ(fixture.drain(), 0);
}

TEST(ShardTest, DrainExitsZeroAndReapsEveryWorker) {
  ShardFixture fixture(3);
  // Touch the server once so workers are demonstrably alive.
  const int fd = connect_tcp(fixture.port);
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  ASSERT_TRUE(write_fd_all(fd, analyze_line("touch") + "\n"));
  EXPECT_EQ(JsonValue::parse(reader.next()).string_or("id", ""), "touch");
  ::close(fd);

  EXPECT_EQ(fixture.drain(), 0);
  EXPECT_TRUE(fixture.err.contains("3 workers ready")) << fixture.err.text();
  EXPECT_TRUE(fixture.err.contains("drained")) << fixture.err.text();
  // No zombie or surviving worker processes remain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!child_pids().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(child_pids().empty());
}

}  // namespace
}  // namespace autosec::service
