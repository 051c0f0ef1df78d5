#include "service/shard.hpp"

#include <dirent.h>
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "service/config.hpp"
#include "service/transport.hpp"
#include "util/drain.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/progress.hpp"
#include "util/strings.hpp"

namespace autosec::service {

namespace {

constexpr int kMaxResends = 2;        ///< per request, before internal_error
constexpr uint64_t kMaxRespawns = 16; ///< per shard, before it is left dead
/// Worker heartbeat period. The watchdog deadline (--watchdog-ms) should be
/// several multiples of this; the supervisor only counts a heartbeat as
/// progress when its progress epoch advanced.
constexpr int kHeartbeatMs = 250;

uint64_t steady_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Close every inherited descriptor except stdio and `keep`. Called in a
/// freshly forked worker: the child must not hold the listener, the client
/// connections, or the other workers' pipes open (a held pipe would mask
/// their EOF at drain time).
void close_inherited_fds(int keep) {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return;
  const int dir_fd = ::dirfd(dir);
  std::vector<int> to_close;
  while (dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    if (fd <= 2 || fd == keep || fd == dir_fd) continue;
    to_close.push_back(static_cast<int>(fd));
  }
  ::closedir(dir);
  for (const int fd : to_close) ::close(fd);
}

/// Worker child main loop: read "<seq> <request>" frames, answer with
/// "<seq> <response>" frames, exit 0 on EOF (the parent closing the pipe is
/// the drain protocol). Control frames ride the same pipe with a "!" token
/// where the sequence number goes: the worker emits "!hb <epoch>" heartbeats
/// (its util::progress epoch — advancing only while the engine crosses
/// safepoints) and accepts "!cfg <json>" pushes, applying the parent's
/// hot-reloaded configuration without restarting. Never returns.
[[noreturn]] void run_worker(int fd, const ServerOptions& options) {
  try {
    // The parent's drain handling does not apply here: a worker exits on
    // EOF, and an operator's stray signal just makes the parent respawn it.
    // SIGHUP targets the parent's config reload; a worker that shares the
    // process group must not die from it (it gets "!cfg" frames instead).
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGHUP, SIG_IGN);
    ignore_sigpipe();
    // The inherited pool object's threads do not exist in this process.
    util::abandon_pool_after_fork();
    close_inherited_fds(fd);

    Server server(options);
    // Responses and heartbeats interleave on one pipe; the mutex keeps every
    // frame intact.
    auto write_mutex = std::make_shared<std::mutex>();
    std::thread heartbeat([fd, write_mutex] {
      while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kHeartbeatMs));
        std::string frame = "!hb ";
        frame += std::to_string(util::progress::epoch());
        frame += '\n';
        std::lock_guard<std::mutex> lock(*write_mutex);
        if (!write_fd_all(fd, frame)) return;  // parent gone; main loop exits
      }
    });
    heartbeat.detach();  // _exit tears the process down, thread included

    std::string buffer;
    char chunk[65536];
    while (true) {
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got < 0) {
        if (errno == EINTR) continue;
        ::_exit(1);
      }
      if (got == 0) ::_exit(0);  // parent closed the pipe: drain complete
      buffer.append(chunk, static_cast<size_t>(got));

      std::vector<std::string> seqs;
      std::vector<std::string> lines;
      size_t pos = 0;
      while (true) {
        const size_t newline = buffer.find('\n', pos);
        if (newline == std::string::npos) break;
        const std::string_view frame(buffer.data() + pos, newline - pos);
        pos = newline + 1;
        const size_t space = frame.find(' ');
        if (space == std::string_view::npos) continue;  // malformed frame
        const std::string_view token = frame.substr(0, space);
        if (!token.empty() && token.front() == '!') {
          // Control frame: consumed here, never answered.
          if (token == "!cfg") {
            server.apply_config_text(std::string(frame.substr(space + 1)));
          }
          continue;
        }
        seqs.emplace_back(token);
        lines.emplace_back(frame.substr(space + 1));
      }
      buffer.erase(0, pos);
      if (lines.empty()) continue;

      const std::vector<std::string> responses = server.handle_batch(lines);
      std::string out;
      for (size_t i = 0; i < responses.size(); ++i) {
        out += seqs[i];
        out += ' ';
        out += responses[i];
        out += '\n';
      }
      std::lock_guard<std::mutex> lock(*write_mutex);
      if (!write_fd_all(fd, out)) ::_exit(1);
    }
  } catch (...) {
    ::_exit(1);
  }
}

/// One response waiting for its turn in a connection's output order.
struct Slot {
  std::string response;
  bool ready = false;
};

struct Worker {
  // pid/fd/generation/down are guarded by write_mutex, which also serializes
  // frame writes — a pending registered under the lock carries the
  // generation its frame was actually sent to. fd is -1 while a respawn is
  // in flight; only `down` means the shard will never answer again.
  std::mutex write_mutex;
  pid_t pid = -1;
  int fd = -1;
  uint64_t generation = 0;
  uint64_t respawns = 0;
  bool down = false;
  std::thread reader;
  /// Liveness for the watchdog: steady_ms of the last observed progress —
  /// a response frame, a heartbeat whose epoch advanced, a dispatch, or a
  /// respawn. A worker holding pending requests whose progress stalls past
  /// the watchdog deadline is presumed hung and SIGKILLed.
  std::atomic<uint64_t> last_progress_ms{0};
  std::atomic<uint64_t> last_epoch{0};
  std::atomic<uint64_t> watchdog_kills{0};
};

class ShardSupervisor;

/// Per-connection ordering buffer: responses arrive from worker-reader
/// threads in completion order and are released to the sink in input order.
class ShardConnection : public ConnectionHandler {
 public:
  ShardConnection(ShardSupervisor& supervisor,
                  std::shared_ptr<ConnectionSink> sink)
      : supervisor_(supervisor), sink_(std::move(sink)) {}

  void handle_lines(std::vector<std::string> lines) override;

  void finish() override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return order_.empty(); });
  }

  std::shared_ptr<Slot> enqueue() {
    auto slot = std::make_shared<Slot>();
    std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(slot);
    return slot;
  }

  void deliver(const std::shared_ptr<Slot>& slot, std::string response) {
    std::lock_guard<std::mutex> lock(mutex_);
    slot->response = std::move(response);
    slot->ready = true;
    // Release the ready prefix: input order, whatever order workers finish.
    while (!order_.empty() && order_.front()->ready) {
      sink_->write_line(order_.front()->response);
      order_.pop_front();
    }
    if (order_.empty()) cv_.notify_all();
  }

 private:
  ShardSupervisor& supervisor_;
  std::shared_ptr<ConnectionSink> sink_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Slot>> order_;
};

class ShardSupervisor {
 public:
  ShardSupervisor(int listen_fd, const ServerOptions& options, std::ostream& err)
      : listen_fd_(listen_fd), options_(options), err_(err) {
    worker_options_ = options;
    worker_options_.workers = 0;
    worker_options_.tcp_address.clear();
    worker_options_.socket_path.clear();
    worker_options_.input_path.clear();
    // Workers never read the config file themselves: the parent validates it
    // once and pushes the canonical document as a "!cfg" frame (including to
    // respawned workers). A file that goes bad between reloads can therefore
    // never crash-loop a respawn.
    worker_options_.config_path.clear();
    watchdog_ms_.store(options.watchdog_ms, std::memory_order_relaxed);
    max_connections_ =
        std::make_shared<std::atomic<size_t>>(options.max_connections);
    for (int i = 0; i < options.workers; ++i) {
      workers_.push_back(std::make_unique<Worker>());
    }
  }

  int run() {
    // The startup config travels to every worker (including respawned ones)
    // as a "!cfg" frame; a bad file fails startup loudly, like the Server.
    if (!options_.config_path.empty()) {
      try {
        const ServeConfig config = ServeConfig::from_file(options_.config_path);
        apply_config_locally(config);
        std::lock_guard<std::mutex> lock(config_mutex_);
        current_config_ = config.canonical();
      } catch (const std::exception& error) {
        log(std::string("serve: ") + error.what());
        return 2;
      }
    }
    for (size_t i = 0; i < workers_.size(); ++i) {
      try {
        spawn_worker(i);
      } catch (const std::exception& error) {
        log(std::string("serve: ") + error.what());
        shutdown_workers();
        return 2;
      }
    }
    reaper_ = std::thread([this] { reaper_loop(); });
    watchdog_ = std::thread([this] { watchdog_loop(); });
    if (!options_.config_path.empty()) {
      util::install_reload_signal();
      reloader_ = std::thread([this] { reload_loop(); });
    }
    log("serve: " + std::to_string(workers_.size()) + " workers ready");

    AcceptLoopOptions accept_options;
    accept_options.max_connections = options_.max_connections;
    accept_options.dynamic_max_connections = max_connections_;
    accept_options.overflow_line = [this] {
      ErrorInfo error{"overloaded",
                      "connection limit reached; retry after retry_after_ms",
                      ""};
      error.retry_after_ms = options_.deterministic ? 100 : 1000;
      return synthetic_envelope("", "", error);
    };
    serve_connections(
        listen_fd_, accept_options,
        [this](std::shared_ptr<ConnectionSink> sink) {
          return std::make_unique<ShardConnection>(*this, std::move(sink));
        },
        err_);

    // Every connection has been answered; tell the workers to exit by
    // closing their pipes and reap them. The empty critical section lets any
    // in-flight respawn finish before the pipes are torn down.
    shutting_down_.store(true, std::memory_order_relaxed);
    { std::lock_guard<std::mutex> guard(respawn_mutex_); }
    if (watchdog_.joinable()) watchdog_.join();
    if (reloader_.joinable()) reloader_.join();
    shutdown_workers();
    if (reaper_.joinable()) reaper_.join();
    log("serve: drained, shutting down");
    return 0;
  }

  /// Route one request line to a worker and register it for delivery.
  void submit(ShardConnection& conn, std::string line) {
    const std::shared_ptr<Slot> slot = conn.enqueue();
    const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    const size_t index = route(line);
    Worker& worker = *workers_[index];

    std::unique_lock<std::mutex> write_lock(worker.write_mutex);
    if (worker.down) {
      // Shard permanently dead (respawn budget exhausted): answer directly.
      write_lock.unlock();
      conn.deliver(slot, synthesize_error(line));
      return;
    }
    {
      std::lock_guard<std::mutex> pending_lock(pending_mutex_);
      Pending pending;
      pending.line = line;
      pending.worker = index;
      pending.generation = worker.generation;
      pending.conn = &conn;
      pending.slot = slot;
      pending_.emplace(seq, std::move(pending));
    }
    std::string frame = std::to_string(seq);
    frame += ' ';
    frame += line;
    frame += '\n';
    // Dispatch counts as progress: the watchdog clock starts at the hand-off,
    // not at some stale mark from the previous request.
    worker.last_progress_ms.store(steady_ms(), std::memory_order_relaxed);
    // A failed write means the worker just died, and fd < 0 means its
    // respawn is in flight: either way the pending entry stays under the old
    // generation and resend_pending hands it to the replacement.
    if (worker.fd >= 0) write_fd_all(worker.fd, frame);
  }

 private:
  struct Pending {
    std::string line;
    size_t worker = 0;
    uint64_t generation = 0;
    int resends = 0;
    ShardConnection* conn = nullptr;
    std::shared_ptr<Slot> slot;
  };

  void log(const std::string& message) {
    std::lock_guard<std::mutex> lock(err_mutex_);
    err_ << message << "\n";
    err_.flush();
  }

  /// Architecture-sticky routing: same model path → same worker → hot
  /// session cache. Lines without a routable architecture (status,
  /// malformed) round-robin.
  size_t route(const std::string& line) {
    const size_t count = workers_.size();
    try {
      const util::JsonValue doc = util::JsonValue::parse(line);
      if (const util::JsonValue* arch = doc.find("architecture");
          arch != nullptr && arch->is_string() && !arch->as_string().empty()) {
        return static_cast<size_t>(util::fnv1a64(arch->as_string()) % count);
      }
    } catch (const std::exception&) {
      // Unroutable request: the worker will answer bad_request.
    }
    return round_robin_.fetch_add(1, std::memory_order_relaxed) % count;
  }

  std::string synthesize_error(const std::string& line) const {
    const ParseResult parsed = parse_request(line);
    return synthetic_envelope(
        parsed.id, parsed.op_text,
        {"internal_error", "worker crashed while handling the request", ""});
  }

  void spawn_worker(size_t index) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
      throw std::runtime_error(std::string("socketpair(): ") +
                               std::strerror(errno));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error(std::string("fork(): ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::close(fds[0]);
      run_worker(fds[1], worker_options_);  // never returns
    }
    ::close(fds[1]);
    Worker& worker = *workers_[index];
    {
      std::lock_guard<std::mutex> lock(worker.write_mutex);
      worker.pid = pid;
      worker.fd = fds[0];
      ++worker.generation;
      worker.last_progress_ms.store(steady_ms(), std::memory_order_relaxed);
      worker.last_epoch.store(0, std::memory_order_relaxed);
      // A worker spawned after a reload must run the reloaded config, not
      // the flags it inherited through fork.
      std::string config;
      {
        std::lock_guard<std::mutex> config_lock(config_mutex_);
        config = current_config_;
      }
      if (!config.empty()) {
        write_fd_all(worker.fd, "!cfg " + config + "\n");
      }
    }
    worker.reader = std::thread([this, index, fd = fds[0]] {
      reader_loop(index, fd);
    });
  }

  void reader_loop(size_t index, int fd) {
    std::string buffer;
    char chunk[65536];
    while (true) {
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got < 0) {
        if (errno == EINTR) continue;
        break;
      }
      // EOF: the worker exited. Everything it wrote before dying was drained
      // above; an incomplete trailing frame is dropped, so its request stays
      // pending and is resent.
      if (got == 0) break;
      buffer.append(chunk, static_cast<size_t>(got));
      size_t pos = 0;
      while (true) {
        const size_t newline = buffer.find('\n', pos);
        if (newline == std::string::npos) break;
        handle_frame(index, buffer.substr(pos, newline - pos));
        pos = newline + 1;
      }
      buffer.erase(0, pos);
    }
  }

  void handle_frame(size_t index, const std::string& frame) {
    const size_t space = frame.find(' ');
    if (space == std::string::npos) return;
    Worker& worker = *workers_[index];
    if (frame.front() == '!') {
      // "!hb <epoch>": a heartbeat only counts as progress when the worker's
      // engine crossed a safepoint since the last one — a wedged solve keeps
      // the heartbeat thread alive but freezes the epoch, which is exactly
      // what the watchdog must catch.
      if (frame.compare(0, space, "!hb") == 0) {
        char* end = nullptr;
        const uint64_t epoch = std::strtoull(frame.c_str() + space + 1, &end, 10);
        if (end == frame.c_str() + space + 1) return;
        if (epoch != worker.last_epoch.exchange(epoch, std::memory_order_relaxed)) {
          worker.last_progress_ms.store(steady_ms(), std::memory_order_relaxed);
        }
      }
      return;
    }
    char* end = nullptr;
    const uint64_t seq = std::strtoull(frame.c_str(), &end, 10);
    if (end != frame.c_str() + space) return;
    worker.last_progress_ms.store(steady_ms(), std::memory_order_relaxed);
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      const auto it = pending_.find(seq);
      // Absent = already answered (a resend raced the original worker's last
      // response). Erasing under the lock is what makes delivery
      // exactly-once: work may run twice, envelopes never do.
      if (it == pending_.end()) return;
      pending = std::move(it->second);
      pending_.erase(it);
    }
    pending.conn->deliver(pending.slot, frame.substr(space + 1));
  }

  void reaper_loop() {
    while (true) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, 0);
      if (pid < 0) {
        if (errno == EINTR) continue;
        break;  // ECHILD: every worker reaped
      }
      if (shutting_down_.load(std::memory_order_relaxed)) continue;
      size_t index = workers_.size();
      for (size_t i = 0; i < workers_.size(); ++i) {
        std::lock_guard<std::mutex> lock(workers_[i]->write_mutex);
        if (workers_[i]->pid == pid) {
          index = i;
          break;
        }
      }
      if (index == workers_.size()) continue;  // not one of ours
      respawn(index, pid);
    }
  }

  void respawn(size_t index, pid_t old_pid) {
    // Serialized against the drain sequence: once shutting_down_ is set and
    // this mutex observed free, no new worker (or reader thread) appears
    // behind shutdown_workers()' back.
    std::lock_guard<std::mutex> guard(respawn_mutex_);
    if (shutting_down_.load(std::memory_order_relaxed)) return;
    Worker& worker = *workers_[index];
    // Join the reader FIRST: it drains every response the dead worker wrote
    // before exiting, so a request that was actually answered is never
    // resent (and its envelope never duplicated).
    if (worker.reader.joinable()) worker.reader.join();
    {
      std::lock_guard<std::mutex> lock(worker.write_mutex);
      if (worker.fd >= 0) ::close(worker.fd);
      worker.fd = -1;
      worker.pid = -1;
    }

    bool revived = false;
    if (++worker.respawns <= kMaxRespawns) {
      // Fault-injection env specs (AUTOSEC_FAULT) must not survive into the
      // replacement: a respawned worker re-arming the same hang or crash
      // site would die again immediately, burning the respawn budget on one
      // injected fault. The first spawn inherits the env untouched — that is
      // how the chaos harness arms its faults in the first place.
      ::unsetenv("AUTOSEC_FAULT");
      try {
        spawn_worker(index);
        revived = true;
      } catch (const std::exception& error) {
        log(std::string("serve: cannot respawn worker: ") + error.what());
      }
    } else {
      log("serve: shard " + std::to_string(index) +
          " exceeded its respawn budget; leaving it down");
    }
    {
      std::lock_guard<std::mutex> lock(worker.write_mutex);
      if (revived) {
        log("serve: worker " + std::to_string(old_pid) + " died; respawned shard " +
            std::to_string(index) + " as " + std::to_string(worker.pid));
      } else {
        // From here on submit() answers directly; everything registered
        // before this point is failed by resend_pending below.
        worker.down = true;
      }
    }
    resend_pending(index, revived);
  }

  /// After a respawn: every request the old incarnation never answered —
  /// including those submitted while the respawn was in flight — is resent
  /// to the new one, except requests over the resend cap, which get a
  /// synthesized internal_error (one poisoned request must not crash the
  /// shard forever). After a permanent shard death every pending request of
  /// the shard gets that error.
  void resend_pending(size_t index, bool revived) {
    Worker& worker = *workers_[index];
    std::vector<Pending> failed;
    {
      std::lock_guard<std::mutex> write_lock(worker.write_mutex);
      const uint64_t generation = worker.generation;
      std::string frames;
      std::lock_guard<std::mutex> pending_lock(pending_mutex_);
      for (auto it = pending_.begin(); it != pending_.end();) {
        Pending& pending = it->second;
        if (pending.worker != index || (revived && pending.generation == generation)) {
          ++it;
          continue;
        }
        if (!revived || pending.resends >= kMaxResends) {
          failed.push_back(std::move(pending));
          it = pending_.erase(it);
          continue;
        }
        ++pending.resends;
        pending.generation = generation;
        frames += std::to_string(it->first);
        frames += ' ';
        frames += pending.line;
        frames += '\n';
        ++it;
      }
      if (!frames.empty() && worker.fd >= 0) write_fd_all(worker.fd, frames);
    }
    for (const Pending& pending : failed) {
      pending.conn->deliver(pending.slot, synthesize_error(pending.line));
    }
  }

  /// Does the shard hold requests the client is still waiting on? Only then
  /// may the watchdog presume a stalled epoch means a hang — an idle worker
  /// legitimately reports no progress.
  bool has_pending(size_t index) {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (const auto& [seq, pending] : pending_) {
      if (pending.worker == index) return true;
    }
    return false;
  }

  /// Hung-worker detection: a worker with dispatched requests whose progress
  /// epoch has not advanced within the deadline is SIGKILLed; the reaper then
  /// respawns it and resends its pending requests — the same exactly-once
  /// path a crash takes. Heartbeats keep arriving from a worker wedged in a
  /// solve (the heartbeat thread is separate), but their epoch is frozen, so
  /// they do not reset the clock.
  void watchdog_loop() {
    while (!shutting_down_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kHeartbeatMs / 2));
      const uint64_t deadline = watchdog_ms_.load(std::memory_order_relaxed);
      if (deadline == 0) continue;
      const uint64_t now = steady_ms();
      for (size_t i = 0; i < workers_.size(); ++i) {
        Worker& worker = *workers_[i];
        pid_t pid = -1;
        {
          std::lock_guard<std::mutex> lock(worker.write_mutex);
          pid = worker.pid;
        }
        if (pid < 0) continue;
        const uint64_t last =
            worker.last_progress_ms.load(std::memory_order_relaxed);
        if (now - last < deadline) continue;
        if (!has_pending(i)) continue;
        // Reset the clock under the lock, re-checking the pid: the reaper may
        // already have respawned this shard while we looked.
        std::lock_guard<std::mutex> lock(worker.write_mutex);
        if (worker.pid != pid) continue;
        worker.last_progress_ms.store(now, std::memory_order_relaxed);
        worker.watchdog_kills.fetch_add(1, std::memory_order_relaxed);
        log("serve: watchdog: worker " + std::to_string(pid) + " (shard " +
            std::to_string(i) + ") made no progress in " +
            std::to_string(now - last) + "ms; killing it");
        ::kill(pid, SIGKILL);  // the reaper respawns and resends
      }
    }
  }

  /// Parent-side knobs a config document can retune: the accept-loop cap and
  /// the watchdog deadline. Everything else is worker business, forwarded as
  /// a "!cfg" frame.
  void apply_config_locally(const ServeConfig& config) {
    if (config.max_connections) {
      max_connections_->store(*config.max_connections,
                              std::memory_order_relaxed);
    }
    if (config.watchdog_ms) {
      watchdog_ms_.store(*config.watchdog_ms, std::memory_order_relaxed);
    }
  }

  /// SIGHUP watcher: re-read the config file, apply the parent-side knobs,
  /// and push the canonical document to every live worker. A malformed file
  /// is logged and the previous configuration stays in force everywhere.
  void reload_loop() {
    while (!shutting_down_.load(std::memory_order_relaxed)) {
      pollfd fds[1] = {{util::reload_fd(), POLLIN, 0}};
      ::poll(fds, 1, 200);
      if (!util::consume_reload()) continue;
      ServeConfig config;
      try {
        config = ServeConfig::from_file(options_.config_path);
      } catch (const std::exception& error) {
        log(std::string("serve: config reload rejected (previous "
                        "configuration stays in force): ") +
            error.what());
        continue;
      }
      apply_config_locally(config);
      const std::string canonical = config.canonical();
      {
        std::lock_guard<std::mutex> lock(config_mutex_);
        current_config_ = canonical;
      }
      for (const std::unique_ptr<Worker>& worker : workers_) {
        std::lock_guard<std::mutex> lock(worker->write_mutex);
        if (worker->fd >= 0) {
          write_fd_all(worker->fd, "!cfg " + canonical + "\n");
        }
      }
      log("serve: config reloaded from '" + options_.config_path +
          "' and pushed to workers");
    }
  }

  void shutdown_workers() {
    for (const std::unique_ptr<Worker>& worker : workers_) {
      std::lock_guard<std::mutex> lock(worker->write_mutex);
      // shutdown() (not close) wakes the blocked reader with EOF and tells
      // the child to exit; the fd itself is closed after the reader joined.
      if (worker->fd >= 0) ::shutdown(worker->fd, SHUT_RDWR);
    }
    for (const std::unique_ptr<Worker>& worker : workers_) {
      if (worker->reader.joinable()) worker->reader.join();
      std::lock_guard<std::mutex> lock(worker->write_mutex);
      if (worker->fd >= 0) ::close(worker->fd);
      worker->fd = -1;
    }
  }

  int listen_fd_;
  ServerOptions options_;
  ServerOptions worker_options_;
  std::ostream& err_;
  std::mutex err_mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread reaper_;
  std::thread watchdog_;
  std::thread reloader_;
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<size_t> round_robin_{0};
  std::atomic<bool> shutting_down_{false};
  std::atomic<uint64_t> watchdog_ms_{0};
  std::shared_ptr<std::atomic<size_t>> max_connections_;
  std::mutex config_mutex_;
  std::string current_config_;  ///< canonical "!cfg" payload for new workers
  std::mutex respawn_mutex_;
  std::mutex pending_mutex_;
  std::map<uint64_t, Pending> pending_;
};

void ShardConnection::handle_lines(std::vector<std::string> lines) {
  for (std::string& line : lines) supervisor_.submit(*this, std::move(line));
}

}  // namespace

int run_sharded(int listen_fd, const ServerOptions& options, std::ostream& err) {
  ShardSupervisor supervisor(listen_fd, options, err);
  return supervisor.run();
}

}  // namespace autosec::service
