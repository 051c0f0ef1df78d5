// `autosec serve` — a persistent batch-analysis service over the staged
// engine. Requests are newline-delimited JSON (one request per line, see
// service/protocol.hpp for the v1 schema) read from stdin, a file, a Unix
// socket, or a TCP listener; each is answered with exactly one response
// line. Every transport speaks the same v1 envelopes — a response is
// bit-identical whether it travelled over stdin or a socket.
//
//  * Each request reads and digests its architecture file once and derives
//    its two keys from it (service/identity.hpp): the session key and the
//    job identity. Every cache and snapshot below is keyed by one of them.
//  * Sessions are cached (service/session_cache.hpp): repeated queries for
//    the same architecture + engine knobs reuse every compiled/explored/
//    uniformized stage. The per-response metrics object proves it
//    (session_cache "hit", explores 0).
//  * With --disk-cache DIR, finished results are also persisted in a
//    util::DurableStore keyed by the job identity, so a restarted server
//    answers repeated requests with disk_cache "hit" and explores 0 — warm
//    from the first request. A job that misses the disk cache while an
//    identical one is being computed waits for that answer instead of
//    computing it again (explores 0, counted as serve.coalesced).
//  * With --checkpoint DIR, every per-request csl::CheckpointLedger records
//    its finished solves in one checkpoint store the server opens at
//    startup, so a killed worker's respawn resumes instead of recomputing.
//  * Socket transports serve connections concurrently (service/
//    transport.hpp): each connection gets its own reader thread, responses
//    keep per-connection input order, and batches of available request
//    lines fan across the engine thread pool.
//  * Admission control (service/admission.hpp): --max-inflight and
//    --max-load-mb gate requests at the door; a saturated server answers
//    with a structured `overloaded` error carrying retry_after_ms instead
//    of aborting admitted work mid-flight.
//  * With --workers N (service/shard.hpp) the process pre-forks N engine
//    workers and routes requests by architecture digest, so each worker's
//    session cache stays hot for its shard of the fleet's models.
//  * Per-request deadlines (timeout_ms) cancel cleanly between solver
//    sweeps via util::CancelToken and answer with a structured timeout
//    error; the session survives for the next request.
//  * SIGTERM/SIGINT request a graceful drain: requests already read are
//    finished and answered, then the loop exits 0 (util/drain.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/admission.hpp"
#include "service/config.hpp"
#include "service/identity.hpp"
#include "service/protocol.hpp"
#include "service/session_cache.hpp"
#include "util/budget.hpp"
#include "util/durable_store.hpp"
#include "util/json.hpp"

namespace autosec::csl {
class CheckpointLedger;
class EngineSession;
}  // namespace autosec::csl

namespace autosec::service {

struct ServerOptions {
  /// Read requests from this file instead of stdin (mainly tests/CI).
  std::string input_path;
  /// Listen on this Unix socket instead of stdin; connections are served
  /// concurrently, each streaming NDJSON requests and responses.
  std::string socket_path;
  /// Listen on TCP ("PORT" or "HOST:PORT", default host 127.0.0.1; port 0
  /// picks a free port, reported on stderr). Mutually exclusive with
  /// --socket.
  std::string tcp_address;
  /// Pre-fork this many engine workers behind the listener and shard
  /// requests by architecture digest (0 = serve in-process). Requires a
  /// socket or TCP listener.
  int workers = 0;
  /// Concurrent connections served per listener; excess connections get one
  /// overloaded envelope and are closed.
  size_t max_connections = 64;
  /// Admission control: concurrent admitted requests (0 = unlimited).
  size_t max_inflight = 0;
  /// Admission control: estimated engine working-set ceiling in MiB
  /// (0 = no memory gate).
  size_t max_load_mb = 0;
  /// Persist results under this directory (created if needed) so restarts
  /// answer repeated requests without engine work. Empty = no disk cache.
  std::string disk_cache_dir;
  /// Disk-cache size quota in MiB; stores beyond it evict entries
  /// oldest-first (0 = unbounded).
  size_t disk_cache_mb = 0;
  /// Snapshot per-property solved values under this directory (created if
  /// needed) at engine safepoints, so a killed run — or a respawned shard
  /// worker — resumes instead of recomputing. Empty = no checkpointing.
  std::string checkpoint_dir;
  /// Minimum milliseconds between checkpoint persists (0 = every record).
  /// Completed requests always flush, so the interval only bounds what a
  /// mid-request crash can lose; 250 ms keeps persist cost well under the
  /// 2% overhead budget the Fig. 5 bench gates.
  uint64_t checkpoint_interval_ms = 250;
  /// Sharded mode: SIGKILL + respawn a worker whose progress epoch has not
  /// advanced for this long while it holds dispatched requests (0 = off).
  uint64_t watchdog_ms = 0;
  /// Hot-reloadable config file (service/config.hpp): read at startup (its
  /// fields override the flags) and re-read on SIGHUP.
  std::string config_path;
  size_t cache_capacity = 8;
  /// Applied to requests that carry no timeout_ms of their own.
  std::optional<int64_t> default_timeout_ms;
  /// Max request lines handled per parallel batch.
  size_t max_batch = 16;
  /// Worker threads (0 = keep the process-wide setting).
  int threads = 0;
  /// Zero out wall-clock fields in responses — golden-file tests.
  bool deterministic = false;
};

class Server {
 public:
  /// Opens the disk-cache and checkpoint stores; throws std::runtime_error
  /// when either directory is set but unusable.
  explicit Server(ServerOptions options);

  /// Handle one raw request line and return the single-line JSON response
  /// (no trailing newline). Thread-safe; concurrent calls on the same
  /// session-cache entry serialize on the entry's mutex.
  std::string handle_line(const std::string& line);

  /// Handle a batch of request lines, fanning across the engine pool in
  /// max_batch groups; responses come back in input order. Under
  /// --deterministic the lines are handled one at a time, in input order, so
  /// the same input gives the same bytes, status counters included.
  std::vector<std::string> handle_batch(const std::vector<std::string>& lines);

  /// Stop accepting new work: every subsequent handle_line answers with a
  /// structured shutting_down error. The serve loops call this when a drain
  /// signal arrives; tests call it directly.
  void begin_drain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Run to EOF over a stream (the --input path). No signal handlers.
  int serve_stream(std::istream& in, std::ostream& out);
  /// Poll loop over a raw fd (stdin), watching the drain self-pipe so a
  /// SIGTERM interrupts the wait; requests already read are still answered.
  int serve_fd(int fd, std::ostream& out);
  /// Concurrent accept loop over an already-listening socket fd (TCP or
  /// Unix); exits 0 on drain. Does not close the fd.
  int serve_listener(int listen_fd, std::ostream& err);
  /// Dispatch on ServerOptions: input file, TCP/Unix listener (optionally
  /// pre-fork sharded), or stdin.
  int run(std::ostream& out, std::ostream& err);

  SessionCache::Stats cache_stats() const { return cache_.stats(); }
  uint64_t requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Apply a hot config reload to the live server: admission limits,
  /// connection cap, cache capacities, checkpoint interval, timeout fallback,
  /// batch size, watchdog deadline, log level. Never drops a connection or
  /// invalidates a cache entry.
  void apply_config(const ServeConfig& config);
  /// Parse + apply; on a malformed document logs a warning and keeps the
  /// previous configuration (an operator typo must not take the server down).
  /// Returns whether the config was applied.
  bool apply_config_text(const std::string& text);
  /// Re-read options().config_path and apply it (the SIGHUP path).
  bool reload_config_file();
  /// Canonical JSON of the last applied config document ("{}" when no
  /// --config file is in play).
  std::string active_config() const;
  uint64_t config_reloads() const {
    return config_reloads_.load(std::memory_order_relaxed);
  }
  size_t effective_max_batch() const {
    return max_batch_.load(std::memory_order_relaxed);
  }
  uint64_t effective_watchdog_ms() const {
    return watchdog_ms_.load(std::memory_order_relaxed);
  }
  /// Admission gate — exposed so tests can saturate it deterministically.
  AdmissionController& admission() { return admission_; }
  const ServerOptions& options() const { return options_; }

  /// The envelope answered to connections shed at the accept gate (and to
  /// requests shed by admission): ok=false, code "overloaded",
  /// retry_after_ms filled.
  std::string overflow_response() const;

 private:
  struct RequestMetrics {
    double wall_seconds = 0.0;
    const char* session_cache = "none";  // "hit" | "miss" | "none"
    const char* disk_cache = "none";     // "hit" | "miss" | "none"
    size_t explores = 0;
    size_t states = 0;
    size_t solver_fallbacks = 0;
    /// State store that held the states ("compact"); "none" for
    /// requests that build no state space (status, diagnose, cache hits that
    /// never re-explore keep the session's recorded engine).
    std::string engine = "none";
    /// Cache key of the entry this request used; lets handle_line evict the
    /// (possibly poisoned) entry when dispatch fails engine-side.
    std::string cache_key;
    /// The request's resource meter (always armed, ceilings optional); its
    /// peak feeds the admission controller's working-set estimate.
    std::shared_ptr<util::ResourceBudget> budget;
    /// Per-property values replayed from the checkpoint ledger instead of
    /// recomputed (only reported when checkpointing is enabled).
    size_t checkpoint_hits = 0;
    size_t checkpoint_records = 0;
  };

  /// One admitted request: the architecture file content, read once, and
  /// the keys derived from it. Every layer below uses these, so a file
  /// edited mid-request can never file one content's result under the other
  /// content's key. Status reads no file and has empty keys.
  struct Job {
    const Request& request;
    std::string architecture;
    JobIdentity identity;
  };

  /// Engine work of one parsed request; returns the "result" payload.
  /// Throws util::Cancelled on deadline, RequestError for client mistakes
  /// discovered during dispatch, anything else maps to engine_error.
  util::JsonValue dispatch(const Job& job, RequestMetrics& metrics);

  util::JsonValue run_analyze(const Job& job, RequestMetrics& metrics);
  util::JsonValue run_check(const Job& job, RequestMetrics& metrics);
  util::JsonValue run_sweep(const Job& job, RequestMetrics& metrics);
  util::JsonValue run_diagnose(const Job& job, RequestMetrics& metrics);
  util::JsonValue run_status(RequestMetrics& metrics);

  /// Fills the op-specific part of a check or sweep result.
  using PairSolve = std::function<void(csl::EngineSession&, util::JsonValue&)>;
  /// Run `solve` on the request's cached single-pair session — the one
  /// session check and sweep share, built on a miss after the message is
  /// checked against the architecture — with this request's deadline,
  /// budget and ledger armed.
  util::JsonValue run_on_pair_session(const Job& job, RequestMetrics& metrics,
                                      const PairSolve& solve);

  /// One job identity being computed: identical jobs that miss the disk
  /// cache meanwhile wait here for its answer instead of computing it again.
  struct InFlight {
    std::mutex mutex;
    std::condition_variable finished;
    size_t waiters = 0;  ///< jobs waiting for this one (counted under inflight_mutex_)
    bool done = false;
    std::optional<util::JsonValue> result;  ///< unset when the job failed or none waited
    size_t states = 0;
    std::string engine;
  };

  /// The stored result of the job under --disk-cache, with its metrics
  /// filled, or nullopt on a miss.
  std::optional<util::JsonValue> replay_stored(const Job& job, RequestMetrics& metrics);

  /// The disk-cache miss path. When an identical job is being computed, wait
  /// for its answer (until this request's own deadline) and reply with it:
  /// explores 0, counted as serve.coalesced; if that job fails, try again
  /// here. Otherwise compute the job, store its result and hand it to the
  /// jobs that waited.
  util::JsonValue compute_or_follow(const Job& job, RequestMetrics& metrics);

  /// Process every complete line currently in `buffer` (leaving a trailing
  /// partial line in place), writing responses in input order.
  void process_buffered(std::string& buffer, std::ostream& out);

  /// The request's effective timeout fallback (reloadable at runtime).
  std::optional<int64_t> effective_timeout() const;
  /// Open (and load) the checkpoint ledger of one job on the checkpoint
  /// store; nullptr when checkpointing is disabled.
  std::shared_ptr<csl::CheckpointLedger> make_ledger(const Job& job,
                                                     RequestMetrics& metrics);
  /// Background thread body: wait for SIGHUP ticks and re-apply the config
  /// file until reload_stop_ is set.
  void reload_watch_loop();

  ServerOptions options_;
  SessionCache cache_;
  AdmissionController admission_;
  std::unique_ptr<util::DurableStore> disk_cache_;
  std::mutex inflight_mutex_;
  /// Jobs being answered, by job identity.
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::shared_ptr<util::DurableStore> checkpoints_;
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};

  // Hot-reloadable knobs (see apply_config). default_timeout_ms_ uses -1 for
  // "no fallback" so one atomic carries both states.
  std::atomic<int64_t> default_timeout_ms_{-1};
  std::atomic<size_t> max_batch_{16};
  std::atomic<uint64_t> checkpoint_interval_ms_{250};
  std::atomic<uint64_t> watchdog_ms_{0};
  std::shared_ptr<std::atomic<size_t>> max_connections_;
  std::atomic<uint64_t> config_reloads_{0};
  std::atomic<bool> reload_stop_{false};
  mutable std::mutex config_mutex_;
  std::string active_config_;  ///< canonical JSON of the last applied config
};

/// CLI entry point: parse `serve` flags, construct the server, run it.
int run_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);

}  // namespace autosec::service
