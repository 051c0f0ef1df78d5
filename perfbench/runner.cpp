// perfbench_runner: runs one workload of the autosec benchmark inside this
// process and writes its raw measurements as JSON. perfbench/run.py generates
// the seeded inputs, starts this runner once per run, checks the answers
// against the committed references and prints the metrics.
//
//   perfbench_runner --workload paper_scale|case_studies|serve_mix
//                    --inputs DIR --out FILE --repo ROOT --seconds S --trace 0|1
//
// The runner's working directory is the run's scratch directory: set-up
// writes the architecture files there, and the generated commands and
// requests name them by relative path.
//
// Untraced runs (--trace 0) call only the two public entry points a user
// calls: cli::run_cli for the CLI workloads and service::Server::handle_line
// for serve_mix. The timed phase is a sequence of passes — one run over the
// command list, or one serve episode (a fresh server answering every
// client's stream once) — repeated until --seconds have elapsed. Traced runs
// (--trace 1) drive the same work stage by stage through the public
// functions of each module (transform, compile, explore, EngineSession
// stages, check_all/check, check_with_strategy, parse_request) and record one
// span per call, with wall time, CPU time (getrusage deltas) and the stage's
// peak resident memory (VmHWM reset through /proc/self/clear_refs before each
// call; ru_maxrss when that file is not writable). No span is recorded inside
// the library. The engine pool is sized to the CPUs the process may run on.
//
// Input files (one entry per line, fields separated by tabs):
//   commands.tsv     KEY  ARG...           CLI workloads: one command per line
//   client<i>.tsv    KEY  REQUEST-JSON     serve_mix: the stream of client i,
//                                          i = 0, 1, ... (one thread each)
// KEY is the benchmark's name for the operation; run.py looks its answer up
// in the references under that name. The program only sees ARG.../REQUEST.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "automotive/archfile.hpp"
#include "automotive/architecture.hpp"
#include "automotive/casestudy.hpp"
#include "automotive/transform.hpp"
#include "cli/cli.hpp"
#include "csl/property_parser.hpp"
#include "csl/session.hpp"
#include "csl/solver_plan.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/model.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace fs = std::filesystem;
using namespace autosec;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- probes

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double ru_maxrss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A "Vm...:" field of /proc/self/status in MiB (0 when unreadable).
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, length, field) == 0) {
      return std::stod(line.substr(length)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double vm_hwm_mb() { return proc_status_mb("VmHWM:"); }
double vm_rss_mb() { return proc_status_mb("VmRSS:"); }

/// Reset the process's peak-RSS counter to its current RSS.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// CPUs this process may run on (nproc).
size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return std::thread::hardware_concurrency();
  return static_cast<size_t>(CPU_COUNT(&set));
}

double llc_mb() {
  double best = 0.0;
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_in(base + "level");
    std::ifstream size_in(base + "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    double value = std::stod(size);
    if (size.back() == 'K') value /= 1024.0;
    if (size.back() == 'G') value *= 1024.0;
    if (level >= 3 || best == 0.0) best = std::max(best, value);
  }
  return best;
}

// ---------------------------------------------------------------- json out

std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------- inputs

struct Args {
  std::string workload;
  std::string inputs;
  std::string out;
  std::string repo;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--inputs") args.inputs = value;
    else if (flag == "--out") args.out = value;
    else if (flag == "--repo") args.repo = value;
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (args.workload.empty() || args.inputs.empty() || args.out.empty() || args.repo.empty()) {
    throw std::runtime_error("--workload, --inputs, --out and --repo are required");
  }
  return args;
}

/// One generated operation: its benchmark key and its payload fields.
struct Entry {
  std::string key;
  std::vector<std::string> fields;
};

std::vector<Entry> read_entries(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Entry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Entry entry;
    std::stringstream stream(line);
    std::string field;
    std::getline(stream, entry.key, '\t');
    while (std::getline(stream, field, '\t')) entry.fields.push_back(field);
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) throw std::runtime_error(path + " holds no operations");
  return entries;
}

// ---------------------------------------------------------------- set-up

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// The ROADMAP's paper-scale reference model: `gen-fleet --ecus N` (one
/// internet-facing gateway, N identical node ECUs on one CAN bus, one
/// CMAC-protected stream NODE1 -> NODE2).
automotive::Architecture fleet_architecture(int ecus) {
  using namespace automotive;
  Architecture arch;
  arch.name = "Fleet " + std::to_string(ecus) + " ECUs";
  arch.buses.push_back({"NET", BusKind::kInternet, std::nullopt, std::nullopt});
  arch.buses.push_back({"CAN", BusKind::kCan, std::nullopt, std::nullopt});
  Ecu gateway;
  gateway.name = "GW";
  gateway.phi = 52.0;
  gateway.interfaces.push_back({"NET", 1.9, std::nullopt});
  gateway.interfaces.push_back({"CAN", 3.8, std::nullopt});
  arch.ecus.push_back(std::move(gateway));
  for (int n = 1; n <= ecus; ++n) {
    Ecu node;
    node.name = "NODE" + std::to_string(n);
    node.phi = 12.0;
    node.interfaces.push_back({"CAN", 1.2, std::nullopt});
    arch.ecus.push_back(std::move(node));
  }
  Message message;
  message.name = "m1";
  message.sender = "NODE1";
  message.receivers = {"NODE2"};
  message.buses = {"CAN"};
  message.protection = Protection::kCmac128;
  arch.messages.push_back(std::move(message));
  arch.validate();
  return arch;
}

/// The workload's architecture files, as (file name, text): generated for
/// the CLI workloads, read from the repository for serve_mix (the
/// program-side input generation).
std::vector<std::pair<std::string, std::string>> architecture_files(const Args& args) {
  using namespace automotive;
  std::vector<std::pair<std::string, std::string>> files;
  if (args.workload == "paper_scale") {
    files.emplace_back("fleet10.arch", write_architecture(fleet_architecture(10)));
  } else if (args.workload == "case_studies") {
    const std::pair<Protection, const char*> protections[] = {
        {Protection::kUnencrypted, "unencrypted"},
        {Protection::kCmac128, "cmac128"},
        {Protection::kAes128, "aes128"}};
    for (int which = 1; which <= 3; ++which) {
      for (const auto& [protection, name] : protections) {
        files.emplace_back("arch" + std::to_string(which) + "_" + name + ".arch",
                           write_architecture(casestudy::architecture(which, protection)));
      }
    }
  } else {
    const char* sources[] = {"data/arch1.arch", "data/arch2.arch", "data/arch3.arch",
                             "data/zonal_ethernet.arch", "examples/fleet_20ecu.arch",
                             "examples/telematics_adversary.arch"};
    for (const char* source : sources) {
      std::ifstream in(fs::path(args.repo) / source, std::ios::binary);
      if (!in) throw std::runtime_error(std::string("cannot read ") + source);
      std::ostringstream text;
      text << in.rdbuf();
      files.emplace_back(fs::path(source).filename().string(), text.str());
    }
  }
  return files;
}

/// A server on the disk-cache and checkpoint directories under `root`;
/// `fresh` empties them first.
std::unique_ptr<service::Server> make_server(const fs::path& root, bool fresh) {
  if (fresh) {
    for (const char* dir : {"disk_cache", "checkpoints"}) fs::remove_all(root / dir);
  }
  service::ServerOptions options;
  options.disk_cache_dir = (root / "disk_cache").string();
  options.checkpoint_dir = (root / "checkpoints").string();
  // Every session of the bounded request pool fits, so the cache never
  // evicts and the hit ratio measures reuse, not capacity.
  options.cache_capacity = 64;
  return std::make_unique<service::Server>(options);
}

/// Where the set-up constructs its servers: directories of their own that
/// stay empty, so that set-up time does not grow with what the timed
/// phase's servers cached.
const fs::path kSetupServerRoot = "setup";

/// Write the workload's architecture files into the working directory.
void write_architecture_files(const Args& args) {
  for (const auto& [file, text] : architecture_files(args)) write_file(file, text);
  if (args.workload == "serve_mix") make_server(kSetupServerRoot, true);
}

/// Share of each pass's wall time spent on set-up repeats after the pass.
constexpr double kSetupShare = 0.05;

/// Repeat the set-up — generating the architecture files' texts, loading
/// each file and, for serve_mix, constructing a server — for `seconds`
/// (at least once), after `warmup` untimed repeats. Appends the wall time of
/// every timed repeat to `samples`.
///
/// The files themselves are written once, outside the repeats: creating
/// files on a shared host's disk varied 3x between processes seconds apart
/// and would swamp the set-up's own cost.
void repeat_setup(const Args& args, double seconds, int warmup, std::vector<double>& samples) {
  const auto once = [&args] {
    const Clock::time_point start = Clock::now();
    for (const auto& [file, text] : architecture_files(args)) {
      const automotive::Architecture arch = automotive::load_architecture_file(file);
      if (arch.messages.empty()) throw std::runtime_error(file + " has no message");
    }
    if (args.workload == "serve_mix") make_server(kSetupServerRoot, false);
    return seconds_between(start, Clock::now());
  };
  for (int r = 0; r < warmup; ++r) once();
  const Clock::time_point begin = Clock::now();
  do {
    samples.push_back(once());
  } while (seconds_between(begin, Clock::now()) < seconds);
}

// ---------------------------------------------------------------- answers

/// Distinct answers of the run: the first answer seen per operation key, plus
/// any later answer that differs from it (so run.py checks that one too).
class Answers {
 public:
  /// Returns the index of the stored answer the operation produced.
  size_t record(const std::string& key, std::string text) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = first_.find(key);
    if (found != first_.end() && items_[found->second].second == text) {
      return found->second;
    }
    items_.emplace_back(key, std::move(text));
    if (found == first_.end()) first_.emplace(key, items_.size() - 1);
    return items_.size() - 1;
  }

  std::string json() const {
    std::string out = "[";
    for (size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ",\n";
      out += "[" + quote(items_[i].first) + ", " + quote(items_[i].second) + "]";
    }
    return out + "]";
  }

 private:
  std::mutex mutex_;
  std::map<std::string, size_t> first_;
  std::vector<std::pair<std::string, std::string>> items_;
};

/// One timed operation of the untraced run.
struct Op {
  std::string kind;   ///< command or serve op
  std::string cache;  ///< serve: "<disk_cache>/<session_cache>" of the envelope
  double latency_s = 0.0;
  bool ok = false;
  size_t answer = 0;
  size_t explores = 0;
};

std::string ops_json(const std::vector<Op>& ops) {
  std::string out = "[";
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (i) out += ",\n";
    out += "[" + quote(op.kind) + ", " + quote(op.cache) + ", " + number(op.latency_s) +
           ", " + (op.ok ? "true" : "false") + ", " + std::to_string(op.answer) + ", " +
           std::to_string(op.explores) + "]";
  }
  return out + "]";
}

// ---------------------------------------------------------------- CLI workloads

/// The rendered output minus the `stages:` timing footer.
std::string strip_timings(const std::string& text) {
  std::string out;
  std::stringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.rfind("stages:", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// Per-pass measurements of the timed phase. A pass is one run over the
/// command list (CLI workloads) or one serve episode.
struct Timed {
  std::vector<double> pass_wall_s;
  std::vector<double> pass_cpu_s;
  std::vector<double> pass_ops;
};

/// Called after each pass, outside its timing, with the pass's wall time.
using AfterPass = std::function<void(double)>;

/// Passes over the command list until `seconds` have elapsed (at least one
/// pass; a pass is always completed). seconds <= 0 means exactly one pass.
Timed run_cli_workload(const Args& args, const std::vector<Entry>& commands,
                       std::vector<Op>& ops, Answers& answers, const AfterPass& after_pass) {
  Timed timed;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pass_start = Clock::now();
    const double pass_cpu = cpu_seconds();
    for (const Entry& command : commands) {
      std::ostringstream out;
      std::ostringstream err;
      Op op;
      op.kind = command.fields.front();
      const Clock::time_point t0 = Clock::now();
      int code = 1;
      try {
        code = cli::run_cli(command.fields, out, err);
      } catch (const std::exception& error) {
        err << "exception: " << error.what();
      }
      op.latency_s = seconds_between(t0, Clock::now());
      op.ok = code == 0;
      op.answer = answers.record(command.key, op.ok ? strip_timings(out.str())
                                                    : "error: " + err.str());
      ops.push_back(std::move(op));
    }
    timed.pass_wall_s.push_back(seconds_between(pass_start, Clock::now()));
    timed.pass_cpu_s.push_back(cpu_seconds() - pass_cpu);
    timed.pass_ops.push_back(static_cast<double>(commands.size()));
    after_pass(timed.pass_wall_s.back());
  } while (args.seconds > 0 && seconds_between(start, Clock::now()) < args.seconds);
  return timed;
}

// ---------------------------------------------------------------- serve workload

/// The string value of `"name": "..."` at or after `from`, or "".
std::string field_after(const std::string& text, const std::string& name, size_t from) {
  const std::string needle = "\"" + name + "\": ";
  const size_t at = text.find(needle, from);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  if (text[begin] == '"') {
    const size_t end = text.find('"', begin + 1);
    return text.substr(begin + 1, end - begin - 1);
  }
  size_t end = begin;
  while (end < text.size() && text[end] != ',' && text[end] != '}') ++end;
  return text.substr(begin, end - begin);
}

/// Fill op from one response envelope; returns the payload run.py checks
/// (the "result" object, or the whole envelope of a failed request).
std::string read_envelope(const std::string& response, Op& op) {
  const size_t metrics = response.rfind("\"metrics\": {");
  op.kind = field_after(response, "op", 0);
  op.ok = response.find("\"ok\": true, \"result\": ") != std::string::npos &&
          metrics != std::string::npos;
  if (metrics != std::string::npos) {
    op.cache = field_after(response, "disk_cache", metrics) + "/" +
               field_after(response, "session_cache", metrics);
    const std::string explores = field_after(response, "explores", metrics);
    op.explores = explores.empty() ? 0 : std::stoul(explores);
  }
  if (!op.ok) return "error: " + response;
  const size_t begin = response.find("\"result\": ") + 10;
  const size_t end = response.rfind(", \"metrics\": {");
  return response.substr(begin, end - begin);
}

struct ServeTrace {
  std::vector<double> parse_s;
  uint64_t session_hits = 0;
  uint64_t session_misses = 0;
};

/// One episode: a fresh server (empty session, disk and checkpoint caches)
/// answers every client's stream once, in a closed loop — each client thread
/// sends its next request only after the previous reply.
void run_episode(const std::vector<std::vector<Entry>>& streams, std::vector<Op>& ops,
                 Answers& answers, ServeTrace* trace) {
  const std::unique_ptr<service::Server> server = make_server(".", true);
  std::vector<std::vector<Op>> per_client(streams.size());
  std::vector<std::vector<double>> parse_s(streams.size());
  const auto client = [&](size_t c) {
    for (const Entry& entry : streams[c]) {
      const std::string& line = entry.fields.front();
      if (trace) {
        const Clock::time_point p0 = Clock::now();
        const service::ParseResult parsed = service::parse_request(line);
        parse_s[c].push_back(seconds_between(p0, Clock::now()));
        if (!parsed.request) throw std::runtime_error("unparsable request " + entry.key);
      }
      Op op;
      const Clock::time_point t0 = Clock::now();
      const std::string response = server->handle_line(line);
      op.latency_s = seconds_between(t0, Clock::now());
      op.answer = answers.record(entry.key, read_envelope(response, op));
      per_client[c].push_back(std::move(op));
    }
  };
  std::vector<std::thread> threads;
  std::exception_ptr failure;
  std::mutex failure_mutex;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        client(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        failure = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (failure) std::rethrow_exception(failure);
  for (auto& client_ops : per_client) {
    for (Op& op : client_ops) ops.push_back(std::move(op));
  }
  if (trace) {
    for (const auto& samples : parse_s) {
      trace->parse_s.insert(trace->parse_s.end(), samples.begin(), samples.end());
    }
    const service::SessionCache::Stats stats = server->cache_stats();
    trace->session_hits += stats.hits;
    trace->session_misses += stats.misses;
  }
}

/// Episodes until `seconds` have elapsed (at least one; an episode is always
/// completed). seconds <= 0 means exactly one episode.
Timed run_serve_workload(const Args& args, const std::vector<std::vector<Entry>>& streams,
                         std::vector<Op>& ops, Answers& answers, ServeTrace* trace,
                         const AfterPass& after_pass) {
  Timed timed;
  const Clock::time_point start = Clock::now();
  do {
    const size_t before = ops.size();
    const Clock::time_point episode_start = Clock::now();
    const double episode_cpu = cpu_seconds();
    run_episode(streams, ops, answers, trace);
    timed.pass_wall_s.push_back(seconds_between(episode_start, Clock::now()));
    timed.pass_cpu_s.push_back(cpu_seconds() - episode_cpu);
    timed.pass_ops.push_back(static_cast<double>(ops.size() - before));
    // Hand the finished episode's freed memory back, so every episode starts
    // from the same resident set and peak_rss_mb does not grow with the
    // number of episodes a run fits in.
    malloc_trim(0);
    after_pass(timed.pass_wall_s.back());
  } while (args.seconds > 0 && seconds_between(start, Clock::now()) < args.seconds);
  return timed;
}

// ---------------------------------------------------------------- traced run

/// One call into the library. Spans are flat: every span of an operation
/// is a direct child of that operation and carries its id.
struct Span {
  std::string op;      ///< id of the operation the span belongs to
  std::string name;    ///< layer.stage
  std::string detail;  ///< the property a solve span answered, else ""
  double start_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_mb = 0.0;      ///< process peak RSS during the span
  double rss_before_mb = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()), clear_refs_(reset_peak_rss()) {}

  /// Time `body` as one span of operation `op`.
  void span(const std::string& op, const std::string& name, const std::string& detail,
            const std::function<void()>& body) {
    Span span;
    span.op = op;
    span.name = name;
    span.detail = detail;
    span.rss_before_mb = vm_rss_mb();
    if (clear_refs_) reset_peak_rss();
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    body();
    const Clock::time_point t1 = Clock::now();
    span.cpu_s = cpu_seconds() - cpu0;
    span.start_s = seconds_between(origin_, t0);
    span.wall_s = seconds_between(t0, t1);
    span.peak_mb = clear_refs_ ? vm_hwm_mb() : ru_maxrss_mb();
    spans_.push_back(std::move(span));
  }

  bool clear_refs() const { return clear_refs_; }

  std::string json() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) out += ",\n";
      out += "{\"op\": " + quote(s.op) + ", \"name\": " + quote(s.name) +
             ", \"detail\": " + quote(s.detail) + ", \"start_s\": " + number(s.start_s) +
             ", \"wall_s\": " + number(s.wall_s) + ", \"cpu_s\": " + number(s.cpu_s) +
             ", \"peak_mb\": " + number(s.peak_mb) +
             ", \"rss_before_mb\": " + number(s.rss_before_mb) + "}";
    }
    return out + "]";
  }

 private:
  Clock::time_point origin_;
  bool clear_refs_;
  std::vector<Span> spans_;
};

/// One library-level job of the traced run: a model, its overrides and the
/// properties the untraced operation answers on it.
struct Job {
  std::string id;  ///< answer key prefix and span op id
  automotive::Architecture arch;
  bool batch = true;  ///< transform_batch (analyze) vs transform (one pair)
  std::vector<std::string> messages;
  std::vector<automotive::SecurityCategory> categories;
  std::string message;
  automotive::SecurityCategory category = automotive::SecurityCategory::kConfidentiality;
  int nmax = 1;
  double horizon = 1.0;
  std::vector<std::pair<std::string, symbolic::Value>> overrides;
  symbolic::ExplorationEngine engine = symbolic::ExplorationEngine::kAuto;
  symbolic::ModelType model_type = symbolic::ModelType::kCtmc;
  std::vector<std::string> properties;
};

/// The analyzer's four measures of one (message, category) pair, in the
/// order and spelling automotive::analyze_* uses.
void add_measures(Job& job, const std::string& violated, const std::string& exposure) {
  const std::string h = std::to_string(job.horizon);
  job.properties.push_back("R{\"" + exposure + "\"}=? [ C<=" + h + " ]");
  job.properties.push_back("P=? [ F<=" + h + " \"" + violated + "\" ]");
  job.properties.push_back("S=? [ \"" + violated + "\" ]");
  job.properties.push_back("R{\"time\"}=? [ F \"" + violated + "\" ]");
}

void finish_batch_job(Job& job) {
  if (job.messages.empty()) {
    for (const auto& message : job.arch.messages) job.messages.push_back(message.name);
  }
  for (const std::string& message : job.messages) {
    for (const auto category : job.categories) {
      add_measures(job, automotive::batch_violated_label(message, category),
                   automotive::batch_exposure_reward(message, category));
    }
  }
}

std::vector<automotive::SecurityCategory> parse_categories(const std::string& text) {
  using automotive::SecurityCategory;
  if (text == "all") {
    return {SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity,
            SecurityCategory::kAvailability};
  }
  const auto parsed = service::parse_category_token(text);
  if (!parsed) throw std::runtime_error("unknown category " + text);
  return {*parsed};
}

/// The library jobs behind one CLI command (analyze: one; sweep: one per point).
std::vector<Job> jobs_of_command(const Entry& command) {
  const std::vector<std::string>& argv = command.fields;
  std::map<std::string, std::string> flags;
  for (size_t i = 2; i + 1 < argv.size(); i += 2) flags[argv[i]] = argv[i + 1];
  const auto flag = [&](const char* name, const char* fallback) {
    const auto found = flags.find(name);
    return found == flags.end() ? std::string(fallback) : found->second;
  };
  Job base;
  base.arch = automotive::load_architecture_file(argv.at(1));
  base.nmax = std::stoi(flag("--nmax", "1"));
  base.horizon = std::stod(flag("--horizon", "1"));
  base.categories = parse_categories(flag("--category", "all"));
  std::vector<Job> jobs;
  if (argv.front() == "analyze") {
    base.id = command.key;
    finish_batch_job(base);
    jobs.push_back(std::move(base));
  } else if (argv.front() == "sweep") {
    const double from = std::stod(flag("--from", "1"));
    const double to = std::stod(flag("--to", "10"));
    const int points = std::stoi(flag("--points", "10"));
    for (int i = 0; i < points; ++i) {
      // The CLI's logarithmic grid, point for point.
      const double t = static_cast<double>(i) / (points - 1);
      Job job = base;
      job.id = command.key + "|point=" + std::to_string(i);
      job.batch = false;
      job.message = flag("--message", "");
      job.category = base.categories.front();
      job.overrides.emplace_back(flag("--constant", ""),
                                 symbolic::Value::of(from * std::pow(to / from, t)));
      add_measures(job, automotive::kViolatedLabel, automotive::kExposureReward);
      jobs.push_back(std::move(job));
    }
  } else {
    throw std::runtime_error("traced run cannot stage command " + argv.front());
  }
  return jobs;
}

/// Library jobs behind one serve request: analyze (batch model) and mdp
/// check with strategy; other ops have no staged counterpart here.
std::optional<Job> job_of_request(const Entry& entry) {
  const service::ParseResult parsed = service::parse_request(entry.fields.front());
  if (!parsed.request) throw std::runtime_error("unparsable request " + entry.key);
  const service::Request& request = *parsed.request;
  Job job;
  job.id = entry.key;
  job.nmax = request.nmax;
  job.horizon = request.horizon_years;
  job.engine = request.engine;
  if (request.op == service::Op::kAnalyze) {
    job.arch = automotive::load_architecture_file(request.architecture);
    job.messages = request.messages;
    job.categories = request.categories;
    if (job.categories.empty()) job.categories = parse_categories("all");
    finish_batch_job(job);
    return job;
  }
  if (request.op == service::Op::kCheck && request.model_type == symbolic::ModelType::kMdp) {
    job.arch = automotive::load_architecture_file(request.architecture);
    job.batch = false;
    job.message = request.message;
    job.category = request.category;
    job.model_type = symbolic::ModelType::kMdp;
    job.properties = request.properties;
    return job;
  }
  return std::nullopt;
}

const char* solve_kind(const csl::Property& property) {
  switch (property.kind) {
    case csl::PropertyKind::kCumulativeReward: return "csl.solve.cumulative_reward";
    case csl::PropertyKind::kProbUntil:
      return property.has_time_bound() ? "csl.solve.bounded_until"
                                       : "csl.solve.unbounded_until";
    case csl::PropertyKind::kSteadyStateProb: return "csl.solve.steady_prob";
    case csl::PropertyKind::kReachabilityReward: return "csl.solve.reach_reward";
    default: return "csl.solve.other";
  }
}

/// What the traced run keeps of the largest uniformized chain it built, for
/// the SpMV loop after the jobs.
struct LargestChain {
  std::shared_ptr<csl::EngineSession> session;
  size_t states = 0;
};

struct Counts {
  uint64_t states = 0;
  uint64_t transitions = 0;
};

void run_job(const Job& job, Tracer& tracer, Answers& answers, Counts& counts,
             LargestChain& largest) {
  csl::SessionOptions options;
  options.model_type = job.model_type;
  options.plan.engine = job.engine;
  csl::apply_plan(options.plan, options);

  symbolic::Model model;
  tracer.span(job.id, "automotive.transform", "", [&] {
    if (job.batch) {
      automotive::BatchTransformOptions transform;
      transform.messages = job.messages;
      transform.categories = job.categories;
      transform.nmax = job.nmax;
      model = automotive::transform_batch(job.arch, transform);
    } else {
      automotive::TransformOptions transform;
      transform.message = job.message;
      transform.category = job.category;
      transform.nmax = job.nmax;
      transform.model_type = job.model_type;
      model = automotive::transform(job.arch, transform);
    }
  });
  std::shared_ptr<const symbolic::CompiledModel> compiled;
  tracer.span(job.id, "symbolic.compile", "", [&] {
    compiled = std::make_shared<const symbolic::CompiledModel>(
        symbolic::compile(model, job.overrides));
  });
  std::shared_ptr<const symbolic::StateSpace> space;
  tracer.span(job.id, "symbolic.explore", "", [&] {
    space = std::make_shared<const symbolic::StateSpace>(
        symbolic::explore(compiled, options.explore));
  });
  counts.states += space->state_count();
  counts.transitions += space->transition_count();
  auto session = std::make_shared<csl::EngineSession>(space, options);

  std::vector<csl::Property> properties;
  for (const std::string& text : job.properties) {
    properties.push_back(csl::parse_property(text));
  }
  if (job.model_type == symbolic::ModelType::kMdp) {
    for (size_t i = 0; i < properties.size(); ++i) {
      csl::StrategyCheck checked;
      tracer.span(job.id, "mdp.check_strategy", job.properties[i],
                  [&] { checked = session->check_with_strategy(properties[i]); });
      answers.record("lib|" + job.id + "|" + job.properties[i] + "|value",
                     number(checked.value));
      answers.record("lib|" + job.id + "|" + job.properties[i] + "|induced_value",
                     number(checked.strategy.induced_value));
    }
    return;
  }
  tracer.span(job.id, "ctmc.chain", "", [&] { session->chain(); });
  tracer.span(job.id, "ctmc.uniformize", "", [&] { session->uniformized(); });
  tracer.span(job.id, "ctmc.steady_state", "", [&] { session->steady(); });
  std::vector<double> values;
  tracer.span(job.id, "csl.solve", "", [&] { values = session->check_all(properties); });
  for (size_t i = 0; i < properties.size(); ++i) {
    answers.record("lib|" + job.id + "|" + job.properties[i], number(values[i]));
  }
  // The same properties one check() call each, so the trace shows which
  // property sets the solve's critical path.
  for (size_t i = 0; i < properties.size(); ++i) {
    tracer.span(job.id, solve_kind(properties[i]), job.properties[i],
                [&] { session->check(properties[i]); });
  }
  if (space->state_count() >= largest.states) {
    largest.session = session;
    largest.states = space->state_count();
  }
}

struct Spmv {
  double steps_per_s = 0.0;
  double bytes_per_step = 0.0;
  double rows = 0.0;
  double nonzeros = 0.0;
};

/// Timed loop of Uniformized::step on the largest chain of the traced run.
Spmv run_spmv(const LargestChain& largest) {
  Spmv result;
  if (!largest.session) return result;
  const ctmc::Uniformized& uniformized = largest.session->uniformized();
  const size_t n = uniformized.state_count;
  std::vector<double> current(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  size_t steps = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (steps < 3 || elapsed < 1.0) {
    uniformized.step(current, next);
    current.swap(next);
    ++steps;
    elapsed = seconds_between(start, Clock::now());
  }
  result.steps_per_s = static_cast<double>(steps) / elapsed;
  result.rows = static_cast<double>(uniformized.transposed.rows());
  result.nonzeros = static_cast<double>(uniformized.transposed.nonzeros());
  // Computed, not measured: CSR values + column indices + row offsets, one
  // read of the input vector and one write of the output vector per step.
  result.bytes_per_step = result.nonzeros * (8.0 + 4.0) + (result.rows + 1.0) * 4.0 +
                          result.rows * 8.0 * 2.0;
  return result;
}

// ---------------------------------------------------------------- output

std::string vector_json(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += number(values[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.workload != "paper_scale" && args.workload != "case_studies" &&
        args.workload != "serve_mix") {
      throw std::runtime_error("unknown workload " + args.workload);
    }
    const size_t cpus = usable_cpus();
    util::set_thread_count(cpus);
    // Spin the pool up before anything is timed.
    util::parallel_for(0, cpus * 4, 1, [](size_t, size_t) {});
    const bool serve = args.workload == "serve_mix";
    if (args.trace) util::metrics::registry().set_enabled(true);

    std::vector<Entry> commands;
    std::vector<std::vector<Entry>> streams;
    if (serve) {
      for (size_t c = 0;; ++c) {
        const std::string path = args.inputs + "/client" + std::to_string(c) + ".tsv";
        if (!fs::exists(path)) break;
        streams.push_back(read_entries(path));
      }
      if (streams.empty()) throw std::runtime_error("serve_mix needs client0.tsv");
    } else {
      commands = read_entries(args.inputs + "/commands.tsv");
    }

    // Set-up samples: a block before the timed phase, then a slice after
    // every pass, so that they see the same changes in the shared host's
    // speed as the passes do.
    write_architecture_files(args);
    std::vector<double> setup_s;
    repeat_setup(args, 0.2, 20, setup_s);
    const AfterPass setup_slice = [&](double pass_wall_s) {
      repeat_setup(args, kSetupShare * pass_wall_s, 0, setup_s);
    };
    const AfterPass nothing = [](double) {};

    std::vector<Op> ops;
    Answers answers;
    Timed timed;
    std::string traced;
    if (!args.trace) {
      timed = serve ? run_serve_workload(args, streams, ops, answers, nullptr, setup_slice)
                    : run_cli_workload(args, commands, ops, answers, setup_slice);
    } else {
      Tracer tracer;
      Counts counts;
      LargestChain largest;
      ServeTrace serve_trace;
      std::vector<Job> jobs;
      if (serve) {
        Args once = args;
        once.seconds = 0;
        timed = run_serve_workload(once, streams, ops, answers, &serve_trace, nothing);
        // Library jobs: each distinct analyze and mdp check the stream sent.
        std::set<std::string> seen;
        for (const auto& stream : streams) {
          for (const Entry& entry : stream) {
            if (!seen.insert(entry.key).second) continue;
            if (std::optional<Job> job = job_of_request(entry)) jobs.push_back(std::move(*job));
          }
        }
      } else {
        for (const Entry& command : commands) {
          for (Job& job : jobs_of_command(command)) jobs.push_back(std::move(job));
        }
      }
      for (const Job& job : jobs) run_job(job, tracer, answers, counts, largest);
      const Spmv spmv = run_spmv(largest);
      util::metrics::Registry& registry = util::metrics::registry();
      std::ostringstream out;
      out << "\"spans\": " << tracer.json() << ",\n"
          << "\"clear_refs\": " << (tracer.clear_refs() ? "true" : "false") << ",\n"
          << "\"states\": " << counts.states << ",\n"
          << "\"transitions\": " << counts.transitions << ",\n"
          << "\"largest_states\": " << largest.states << ",\n"
          << "\"spmv\": {\"steps_per_s\": " << number(spmv.steps_per_s)
          << ", \"bytes_per_step\": " << number(spmv.bytes_per_step)
          << ", \"rows\": " << number(spmv.rows)
          << ", \"nonzeros\": " << number(spmv.nonzeros) << "},\n"
          << "\"parse_s\": " << vector_json(serve_trace.parse_s) << ",\n"
          << "\"registry\": {\"ctmc.matrix_vector_products\": "
          << registry.counter_value("ctmc.matrix_vector_products")
          << ", \"solver.stationary_iterations\": "
          << registry.counter_value("solver.stationary_iterations") << "},\n";
      out << "\"session_cache\": {\"hits\": " << serve_trace.session_hits
          << ", \"misses\": " << serve_trace.session_misses << "},\n";
      traced = out.str();
    }

    std::ofstream file(args.out);
    file << "{\"workload\": " << quote(args.workload) << ",\n"
         << "\"trace\": " << (args.trace ? 1 : 0) << ",\n"
         << "\"setup_s\": " << vector_json(setup_s) << ",\n"
         << "\"pass_wall_s\": " << vector_json(timed.pass_wall_s) << ",\n"
         << "\"pass_cpu_s\": " << vector_json(timed.pass_cpu_s) << ",\n"
         << "\"pass_ops\": " << vector_json(timed.pass_ops) << ",\n"
         << "\"peak_rss_mb\": " << number(vm_hwm_mb()) << ",\n"
         << "\"machine\": {\"nproc\": " << cpus
         << ", \"pool_threads\": " << util::thread_count()
         << ", \"llc_mb\": " << number(llc_mb()) << "},\n"
         << traced
         << "\"ops\": " << ops_json(ops) << ",\n"
         << "\"answers\": " << answers.json() << "}\n";
    file.close();
    if (!file) throw std::runtime_error("cannot write " + args.out);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_runner: " << error.what() << "\n";
    return 1;
  }
}
