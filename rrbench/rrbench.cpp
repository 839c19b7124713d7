// rrbench: end-to-end record/replay benchmark over the AMG, HACC and HPCCG
// proxies (paper Figs. 13, 16, 17 and Table IX).
//
// One workload per run. Every operation — one apps::run_* call — runs in a
// fresh child process forked from this small, single-threaded harness, one
// at a time, under a deadline; its wall time is taken around that call. A
// round is: one uninstrumented run, then for ST, DC and DE one record run
// into a trace directory, a check of that recording, and one replay of it.
// Rounds repeat until --seconds is used up; each timing is the median over
// the rounds. --trace 1 adds, per strategy, an in-memory record/replay pair
// and times the trace layers on the recording, writes spans, and reports
// the per-layer metrics instead of the end-to-end ones.
//
// Usage: rrbench --workload amg|hacc|hpccg --seed N --seconds S --trace 0|1
//        rrbench --smoke
// The last line of stdout is one JSON object (see README.md).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/apps/amg.hpp"
#include "src/apps/hacc.hpp"
#include "src/apps/hpccg.hpp"
#include "src/common/lz.hpp"
#include "src/trace/byte_io.hpp"
#include "src/trace/chunk_format.hpp"
#include "src/trace/decoded_schedule.hpp"
#include "src/trace/manifest.hpp"
#include "src/trace/record_stream.hpp"
#include "src/trace/trace_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace reomp;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Taken during static initialisation, i.e. as close to process start as
// this program can observe.
const double g_process_start = now_s();

constexpr std::uint32_t kThreads = 4;
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 40;
constexpr int kAttempts = 5;  // per operation; only killed children retry

// ---- workloads ---------------------------------------------------------

struct Workload {
  const char* name;
  double scale;        // full-size runs
  double smoke_scale;  // --smoke
  apps::RunResult (*run)(const apps::RunConfig&);
  // Gated events of one run, derived from the workload's parameters the
  // way the proxy's loops perform them (an independent path to the engine's
  // own count).
  std::uint64_t (*expected_events)(double scale, std::uint64_t threads);
};

std::uint64_t amg_events(double scale, std::uint64_t t) {
  const apps::AmgParams p = apps::amg_params_for_scale(scale);
  std::uint64_t levels = 0;
  for (int n = p.n; static_cast<int>(levels) < p.levels && n >= 5;
       n = (n - 1) / 2 + 1) {
    ++levels;
  }
  const std::uint64_t sweeps = static_cast<std::uint64_t>(p.smooth_sweeps);
  const std::uint64_t polls = static_cast<std::uint64_t>(p.flag_polls);
  // Down- and upstroke smooth every level but the coarsest once each; the
  // coarsest smooths 4x. Each sweep: one weight store, `polls` loads and
  // one critical per thread. Each downstroke level adds a norm reduction
  // (one critical per thread) and a level flag (one store, `polls` loads
  // per thread).
  const std::uint64_t sweeps_per_vcycle =
      2 * (levels - 1) * sweeps + 4 * sweeps;
  const std::uint64_t per_sweep = 1 + t * (polls + 1);
  const std::uint64_t per_level_sync = t + 1 + t * polls;
  return static_cast<std::uint64_t>(p.vcycles) *
         (sweeps_per_vcycle * per_sweep + (levels - 1) * per_level_sync);
}

// HACC keeps the default particle count and scales the number of steps,
// so the progress-board traffic keeps its share of the run.
apps::HaccParams hacc_params(double scale) {
  apps::HaccParams p;
  p.steps = static_cast<int>(apps::scaled(scale, p.steps, 1));
  return p;
}

std::uint64_t hacc_events(double scale, std::uint64_t t) {
  const apps::HaccParams p = hacc_params(scale);
  // Per thread and step: substeps x (burst stores + polls), one density
  // critical, and one racy energy update (a load and a store).
  const std::uint64_t per_thread =
      static_cast<std::uint64_t>(p.substeps) *
          static_cast<std::uint64_t>(p.publish_burst + p.polls_per_substep) +
      3;
  return static_cast<std::uint64_t>(p.steps) * t * per_thread;
}

std::uint64_t hpccg_events(double scale, std::uint64_t t) {
  const apps::HpccgParams p = apps::hpccg_params_for_scale(scale);
  // Per iteration and thread: two dot-product criticals, and per sync
  // round one residual store plus `polls` loads.
  return static_cast<std::uint64_t>(p.max_iters) * t *
         (2 + static_cast<std::uint64_t>(p.sync_rounds) *
                  (1 + static_cast<std::uint64_t>(p.polls_per_iter)));
}

apps::RunResult run_amg(const apps::RunConfig& c) { return apps::run_amg(c); }
apps::RunResult run_hacc(const apps::RunConfig& c) {
  return apps::run_hacc(c, hacc_params(c.scale));
}
apps::RunResult run_hpccg(const apps::RunConfig& c) {
  return apps::run_hpccg(c);
}

const Workload kWorkloads[] = {
    {"amg", 240.0, 0.5, run_amg, amg_events},
    {"hacc", 250.0, 0.5, run_hacc, hacc_events},
    {"hpccg", 16.0, 0.2, run_hpccg, hpccg_events},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

constexpr core::Strategy kStrategies[] = {core::Strategy::kST,
                                          core::Strategy::kDC,
                                          core::Strategy::kDE};

std::string sname(core::Strategy s) { return std::string(core::to_string(s)); }

// ---- child processes ---------------------------------------------------

// A call timed inside a child, reported back as a span.
struct CallSpan {
  char name[32] = {};
  double t0 = 0, t1 = 0;
};

// Everything a child sends back, as one fixed-size POD over a pipe.
struct Report {
  int ok = 0;
  char error[256] = {};
  // The apps::run_* call.
  double wall_s = 0;
  double checksum = 0;
  std::uint64_t events = 0;
  std::uint64_t de_epochs = 0;
  std::uint64_t de_accesses = 0;
  double de_parallel_share = 0;
  // The replay half of an in-memory record/replay pair.
  double replay_wall_s = 0;
  double replay_checksum = 0;
  std::uint64_t replay_events = 0;
  // Recording inspection.
  std::uint64_t trace_bytes = 0;
  std::uint64_t chunks = 0;
  double encode_s = 0, write_s = 0, decode_s = 0;
  double codec_ratio = 0, compress_s = 0, decompress_s = 0;
  int nspans = 0;
  CallSpan spans[24];

  void span(const std::string& name, double t0, double t1) {
    if (nspans >= static_cast<int>(std::size(spans))) return;
    CallSpan& s = spans[nspans++];
    std::snprintf(s.name, sizeof(s.name), "%s", name.c_str());
    s.t0 = t0;
    s.t1 = t1;
  }
};

struct Outcome {
  bool completed = false;  // the child sent a whole report and exited 0
  bool killed = false;     // the child missed its deadline
  double rss_mb = 0;       // peak resident set, from wait4
  double t0 = 0, t1 = 0;   // as seen by the parent
  Report rep;
};

int g_killed = 0;  // children killed at their deadline, this process

// Where each thread of a stuck child sleeps in the kernel, e.g.
// "futex_do_wait x4", for the kill message.
std::string kernel_waits(pid_t pid) {
  std::map<std::string, int> count;
  std::error_code ec;
  const fs::path tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& t : fs::directory_iterator(tasks, ec)) {
    std::FILE* f = std::fopen((t.path() / "wchan").c_str(), "r");
    if (f == nullptr) continue;
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), f) != nullptr) ++count[buf];
    std::fclose(f);
  }
  std::string out;
  for (const auto& [where, n] : count) {
    out += (out.empty() ? "" : ", ") + where + " x" + std::to_string(n);
  }
  return out.empty() ? "unknown" : out;
}

void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

// Fork a child that runs `body`, wait for its report at most `deadline_s`
// seconds, kill it past that, and always reap it.
Outcome run_child(const std::function<void(Report&)>& body,
                  double deadline_s) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  Outcome out;
  out.t0 = now_s();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    // The parent's stdout carries only the result line.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    Report rep;
    try {
      body(rep);
      rep.ok = 1;
    } catch (const std::exception& e) {
      std::snprintf(rep.error, sizeof(rep.error), "%s", e.what());
    }
    write_all(fds[1], &rep, sizeof(rep));
    ::_exit(0);
  }
  ::close(fds[1]);
  std::size_t got = 0;
  auto* dst = reinterpret_cast<char*>(&out.rep);
  const double deadline = out.t0 + deadline_s;
  while (got < sizeof(Report)) {
    const double left = deadline - now_s();
    if (left <= 0) {
      out.killed = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) continue;  // re-check the deadline
    const ssize_t n = ::read(fds[0], dst + got, sizeof(Report) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // the child died without a whole report
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  if (out.killed) {
    std::fprintf(stderr, "rrbench: stuck child's threads wait in: %s\n",
                 kernel_waits(pid).c_str());
    ::kill(pid, SIGKILL);
    ++g_killed;
  }
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out.t1 = now_s();
  out.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  out.completed = !out.killed && got == sizeof(Report) && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  if (!out.completed) out.rep.ok = 0;
  return out;
}

// Run an operation, retrying only a child that was killed at its deadline.
Outcome run_op(const std::string& name,
               const std::function<void(Report&)>& body, double deadline_s,
               int attempts = kAttempts) {
  Outcome o;
  for (int a = 0; a < attempts; ++a) {
    o = run_child(body, deadline_s);
    if (!o.killed) break;
    std::fprintf(stderr, "rrbench: %s: child killed at its %.1f s deadline%s\n",
                 name.c_str(), deadline_s,
                 a + 1 < attempts ? ", retrying" : "");
  }
  return o;
}

// ---- operations (child side) -------------------------------------------

apps::RunConfig make_config(std::uint64_t seed, double scale, core::Mode mode,
                            core::Strategy s, const std::string& dir) {
  apps::RunConfig cfg;
  cfg.threads = kThreads;
  cfg.seed = seed;
  cfg.scale = scale;
  cfg.engine.mode = mode;
  cfg.engine.strategy = s;
  cfg.engine.dir = dir;
  return cfg;
}

void fill_run(Report& rep, const apps::RunResult& r, double t0, double t1,
              const char* call) {
  rep.wall_s = t1 - t0;
  rep.checksum = r.checksum;
  rep.events = r.gated_events;
  rep.de_epochs = r.epoch_histogram.total_epochs();
  rep.de_accesses = r.epoch_histogram.total_accesses();
  rep.de_parallel_share = r.epoch_histogram.parallel_epoch_fraction();
  rep.span(call, t0, t1);
}

void timed_run(Report& rep, const Workload& w, const apps::RunConfig& cfg,
               const char* call) {
  const double t0 = now_s();
  const apps::RunResult r = w.run(cfg);
  const double t1 = now_s();
  fill_run(rep, r, t0, t1, call);
}

// Record into an in-memory bundle, then replay that bundle in a fresh
// grandchild (fork keeps the bundle without a copy).
void memory_pair(Report& rep, const Workload& w, const apps::RunConfig& rec,
                 double deadline_s) {
  double t0 = now_s();
  const apps::RunResult r = w.run(rec);
  double t1 = now_s();
  fill_run(rep, r, t0, t1, "record_mem");
  apps::RunConfig play = rec;
  play.engine.mode = core::Mode::kReplay;
  play.engine.bundle = &r.bundle;
  const Outcome o = run_child(
      [&](Report& sub) { timed_run(sub, w, play, "replay_mem"); },
      deadline_s);
  if (!o.completed || !o.rep.ok) {
    throw std::runtime_error(std::string("in-memory replay failed: ") +
                             (o.killed ? "killed at deadline" : o.rep.error));
  }
  rep.replay_wall_s = o.rep.wall_s;
  rep.replay_checksum = o.rep.checksum;
  rep.replay_events = o.rep.events;
  rep.span("replay_mem", o.rep.spans[0].t0, o.rep.spans[0].t1);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  trace::FileSource src(path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const std::size_t n = src.read(buf, sizeof(buf));
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  return bytes;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

// Apply the delta+lz codec to every chunk of a v2 stream; check that each
// chunk inflates back to its raw payload.
void codec_pass(const std::vector<std::uint8_t>& bytes, std::uint64_t& raw,
                std::uint64_t& packed, double& compress_s,
                double& decompress_s) {
  namespace v2 = trace::v2;
  if (bytes.size() < v2::kMagicBytes ||
      std::memcmp(bytes.data(), v2::kStreamMagic, v2::kMagicBytes) != 0) {
    fail("codec: stream is not a v2 container");
  }
  LzEncoder enc;
  std::vector<std::uint8_t> cols, out(lz_max_compressed_size(1 << 20)),
      inflated, joined;
  std::size_t p = v2::kMagicBytes;
  while (p < bytes.size()) {
    v2::ChunkHeader h;
    if (bytes.size() - p < v2::kHeaderBytes ||
        !v2::unpack_header(bytes.data() + p, h) ||
        bytes.size() - p - v2::kHeaderBytes < h.payload_len) {
      fail("codec: malformed chunk");
    }
    const std::uint8_t* payload = bytes.data() + p + v2::kHeaderBytes;
    const std::size_t n = h.payload_len;
    double t0 = now_s();
    if (!trace::column_split(payload, n, h.entry_count, cols)) {
      fail("codec: column split refused a chunk");
    }
    out.resize(std::max(out.size(), lz_max_compressed_size(n)));
    const std::size_t m = enc.compress(cols.data(), n, out.data());
    double t1 = now_s();
    compress_s += t1 - t0;
    inflated.resize(n);
    t0 = now_s();
    const bool ok = lz_decompress(out.data(), m, inflated.data(), n) &&
                    trace::column_join(inflated.data(), n, h.entry_count,
                                       joined);
    t1 = now_s();
    decompress_s += t1 - t0;
    if (!ok || joined.size() != n ||
        std::memcmp(joined.data(), payload, n) != 0) {
      fail("codec: a delta+lz chunk did not inflate to its raw bytes");
    }
    raw += n;
    packed += m;
    p += v2::kHeaderBytes + n;
  }
}

// Check a recording against its manifest and the engine's event count, and
// time the trace layers on it: re-encode, rewrite, decode, and (DE) codec.
void inspect(Report& rep, const std::string& dir, core::Strategy s,
             std::uint64_t events) {
  double t0 = now_s();
  const auto manifest = trace::Manifest::load(trace::manifest_path(dir));
  double t1 = now_s();
  double load_s = t1 - t0;
  rep.span("Manifest::load", t0, t1);
  if (!manifest || !manifest->complete) fail("manifest missing or unsealed");
  if (manifest->strategy != sname(s)) fail("manifest names another strategy");
  const auto ev = manifest->extra.find("events");
  if (ev == manifest->extra.end() || ev->second != std::to_string(events)) {
    fail("manifest event count differs from the engine's");
  }
  const std::size_t want_streams = s == core::Strategy::kST ? 1 : kThreads;
  if (manifest->streams.size() != want_streams) {
    fail("manifest has " + std::to_string(manifest->streams.size()) +
         " streams, want " + std::to_string(want_streams));
  }
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) rep.trace_bytes += e.file_size();
  }
  const std::string rewrite_dir = dir + ".rewrite";
  trace::ensure_dir(rewrite_dir);
  std::uint64_t total_entries = 0, raw = 0, packed = 0;
  double encode_s = 0, write_s = 0, decode_s = 0;
  for (const auto& [name, stat] : manifest->streams) {
    const std::string path = dir + "/" + name + ".rec";
    const std::vector<std::uint8_t> bytes = read_file(path);
    if (bytes.size() != stat.bytes || fs::file_size(path) != stat.bytes) {
      fail(name + ": manifest bytes " + std::to_string(stat.bytes) +
           " != file size " + std::to_string(bytes.size()));
    }
    // Streaming reader: entry and chunk counts.
    trace::FileSource src(path);
    trace::RecordReader reader(src);
    const std::vector<trace::RecordEntry> entries = reader.read_all();
    if (entries.size() != stat.entries || reader.chunks() != stat.chunks) {
      fail(name + ": manifest entries/chunks " + std::to_string(stat.entries) +
           "/" + std::to_string(stat.chunks) + " != decoded " +
           std::to_string(entries.size()) + "/" +
           std::to_string(reader.chunks()));
    }
    total_entries += entries.size();
    rep.chunks += stat.chunks;
    // Bulk decode (the replay fast path's open step).
    t0 = now_s();
    trace::FileSource bulk_src(path);
    const trace::DecodedSchedule sched =
        trace::DecodedSchedule::decode_all(bulk_src, bytes.size());
    t1 = now_s();
    decode_s += t1 - t0;
    rep.span("DecodedSchedule::decode_all " + name, t0, t1);
    if (sched.entries != entries) fail(name + ": bulk and streaming decode differ");
    // Re-encode: chunk cuts are a pure function of the entries, so the
    // writer must reproduce the file byte for byte.
    t0 = now_s();
    trace::MemorySink sink;
    trace::RecordWriter writer(sink);
    writer.append_batch(entries.data(), entries.size());
    writer.finish();
    t1 = now_s();
    encode_s += t1 - t0;
    rep.span("RecordWriter::append_batch " + name, t0, t1);
    if (sink.bytes() != bytes) fail(name + ": re-encoding changed the bytes");
    // Write the recording's bytes to a fresh file.
    const std::string copy = rewrite_dir + "/" + name + ".rec";
    t0 = now_s();
    {
      trace::FileSink out(copy);
      out.write(bytes.data(), bytes.size());
      out.close();
    }
    t1 = now_s();
    write_s += t1 - t0;
    rep.span("FileSink::write " + name, t0, t1);
    if (s == core::Strategy::kDE) {
      t0 = now_s();
      codec_pass(bytes, raw, packed, rep.compress_s, rep.decompress_s);
      rep.span("codec delta+lz " + name, t0, now_s());
    }
  }
  fs::remove_all(rewrite_dir);
  if (total_entries != events) {
    fail("streams hold " + std::to_string(total_entries) +
         " entries, engine counted " + std::to_string(events));
  }
  rep.decode_s = load_s + decode_s;
  rep.encode_s = encode_s;
  rep.write_s = write_s;
  if (s == core::Strategy::kDE) {
    if (packed == 0) fail("codec: no chunk to compress");
    rep.codec_ratio = static_cast<double>(raw) / static_cast<double>(packed);
  }
}

// ---- harness (parent side) ---------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct SpanRec {
  std::string name;
  double t0, t1;
  int parent;
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, double scale, bool traced,
        std::string root)
      : w_(w), seed_(seed), scale_(scale), traced_(traced),
        root_(std::move(root)) {}
  ~Bench() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Untimed set-up: the trace root, the expected event count and one
  // warm-up run, which also sets the per-operation deadline.
  void setup() {
    fs::remove_all(root_);
    trace::ensure_dir(root_);
    expected_ = w_.expected_events(scale_, kThreads);
    const Outcome o = run_op(
        "warm-up",
        [&](Report& rep) {
          timed_run(rep, w_, cfg(core::Mode::kOff, core::Strategy::kDE, ""),
                    "warmup");
        },
        60.0);
    if (!o.completed || !o.rep.ok) {
      throw std::runtime_error(std::string("warm-up run failed: ") +
                               o.rep.error);
    }
    // Far above any healthy run: record and replay stay under 5x the
    // uninstrumented time on every workload.
    deadline_s_ = std::max(4.0, 12.0 * o.rep.wall_s);
    workload_span_ = add_span(w_.name, g_process_start, 0, -1);
  }

  void round() {
    const double r0 = now_s();
    {
      const Outcome o = op("native", core::Mode::kOff, core::Strategy::kDE, "");
      if (ok(o, "native")) {
        samples_["native_s"].push_back(o.rep.wall_s);
        // With the engine off no gate reaches it.
        check(o.rep.events == 0 && std::isfinite(o.rep.checksum),
              "native run counted " + std::to_string(o.rep.events) +
                  " gated events or gave a non-finite checksum");
      }
    }
    for (core::Strategy s : kStrategies) {
      const std::string n = sname(s);
      const std::string dir = root_ + "/" + n;
      fs::remove_all(dir);
      const Outcome rec = op(n + "_record", core::Mode::kRecord, s, dir);
      const bool recorded = ok(rec, n + " record");
      if (recorded) {
        samples_[n + "_record_s"].push_back(rec.rep.wall_s);
        samples_["proc." + n + "_record_rss_mb"].push_back(rec.rss_mb);
        check(rec.rep.events == expected_,
              n + " record: " + std::to_string(rec.rep.events) +
                  " gated events, parameters give " +
                  std::to_string(expected_));
        if (s == core::Strategy::kDE) {
          check(rec.rep.de_accesses == rec.rep.events,
                "DE epoch histogram covers " +
                    std::to_string(rec.rep.de_accesses) + " accesses, not " +
                    std::to_string(rec.rep.events));
          samples_["core.de_epochs"].push_back(
              static_cast<double>(rec.rep.de_epochs));
          samples_["core.de_parallel_epoch_share"].push_back(
              rec.rep.de_parallel_share);
        }
        inspect_op(s, dir, rec.rep.events);
      }
      if (!recorded) {
        ++attempted_;  // the replay this round could not have
        ++failed_;
      } else {
        const Outcome rep = op(n + "_replay", core::Mode::kReplay, s, dir);
        if (ok(rep, n + " replay")) {
          samples_[n + "_replay_s"].push_back(rep.rep.wall_s);
          samples_["proc." + n + "_replay_rss_mb"].push_back(rep.rss_mb);
          replay_rss_ = std::max(replay_rss_, rep.rss_mb);
          check_replay(n, rec.rep, rep.rep.checksum, rep.rep.events);
        }
      }
      if (traced_) memory_op(s);
    }
    samples_["replay_peak_rss_mb"].push_back(replay_rss_);
    replay_rss_ = 0;
    last_round_s_ = now_s() - r0;
    ++rounds_;
  }

  double last_round_s() const { return last_round_s_; }
  int rounds() const { return rounds_; }
  bool correct() const { return correct_; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  std::uint64_t expected_events() const { return expected_; }

  double med(const std::string& key) const {
    const auto it = samples_.find(key);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

  void finish_spans() { spans_[workload_span_].t1 = now_s(); }

  void write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
                 w_.name, static_cast<unsigned long long>(seed_));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, s.name.c_str(), s.t0 - g_process_start,
                   s.t1 - g_process_start, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  apps::RunConfig cfg(core::Mode m, core::Strategy s,
                      const std::string& dir) const {
    return make_config(seed_, scale_, m, s, dir);
  }

  int add_span(const std::string& name, double t0, double t1, int parent) {
    spans_.push_back({name, t0, t1, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  void add_spans(const std::string& op_name, const Outcome& o) {
    if (!traced_) return;
    const int id = add_span(op_name, o.t0, o.t1, workload_span_);
    for (int i = 0; i < o.rep.nspans && o.completed; ++i) {
      add_span(o.rep.spans[i].name, o.rep.spans[i].t0, o.rep.spans[i].t1, id);
    }
  }

  // One timed apps::run_* operation in a child.
  Outcome op(const std::string& name, core::Mode m, core::Strategy s,
             const std::string& dir) {
    ++attempted_;
    const apps::RunConfig c = cfg(m, s, dir);
    const std::string call = std::string("apps::run_") + w_.name;
    const Outcome o = run_op(
        w_.name + std::string(" ") + name,
        [&](Report& rep) { timed_run(rep, w_, c, call.c_str()); },
        deadline_s_);
    add_spans(name, o);
    return o;
  }

  bool ok(const Outcome& o, const std::string& what) {
    if (o.completed && o.rep.ok) return true;
    ++failed_;
    std::fprintf(stderr, "rrbench: %s %s: %s\n", w_.name, what.c_str(),
                 o.killed ? "killed at its deadline" : o.rep.error);
    return false;
  }

  void check(bool cond, const std::string& what) {
    if (cond) return;
    correct_ = false;
    std::fprintf(stderr, "rrbench: %s check failed: %s\n", w_.name,
                 what.c_str());
  }

  void check_replay(const std::string& n, const Report& rec, double checksum,
                    std::uint64_t events) {
    check(std::memcmp(&checksum, &rec.checksum, sizeof(double)) == 0,
          n + " replay checksum differs from its recording's");
    check(events == rec.events,
          n + " replay: " + std::to_string(events) +
              " gated events, its recording had " +
              std::to_string(rec.events));
  }

  // Check a recording and time the trace layers on it (untimed for the
  // end-to-end metrics; not an apps::run_* call).
  void inspect_op(core::Strategy s, const std::string& dir,
                  std::uint64_t events) {
    const std::string n = sname(s);
    const Outcome o =
        run_op(w_.name + std::string(" ") + n + "_inspect",
               [&](Report& rep) { inspect(rep, dir, s, events); },
               deadline_s_);
    add_spans(n + "_inspect", o);
    if (!o.completed || !o.rep.ok) {
      check(false, n + " recording: " +
                       (o.killed ? std::string("inspection killed")
                                 : std::string(o.rep.error)));
      return;
    }
    const double ev = static_cast<double>(events);
    samples_[n + "_trace_bytes"].push_back(static_cast<double>(o.rep.trace_bytes));
    samples_["trace." + n + "_bytes_per_event"].push_back(
        static_cast<double>(o.rep.trace_bytes) / ev);
    samples_["trace." + n + "_chunks"].push_back(static_cast<double>(o.rep.chunks));
    samples_["trace." + n + "_encode_s"].push_back(o.rep.encode_s);
    samples_["trace." + n + "_write_s"].push_back(o.rep.write_s);
    samples_["trace." + n + "_decode_s"].push_back(o.rep.decode_s);
    if (s == core::Strategy::kDE) {
      samples_["codec.de_ratio"].push_back(o.rep.codec_ratio);
      samples_["codec.de_compress_s"].push_back(o.rep.compress_s);
      samples_["codec.de_decompress_s"].push_back(o.rep.decompress_s);
    }
  }

  // In-memory record/replay pair: two apps::run_* operations.
  void memory_op(core::Strategy s) {
    const std::string n = sname(s);
    attempted_ += 2;
    const apps::RunConfig c = cfg(core::Mode::kRecord, s, "");
    const double dl = deadline_s_;
    const Outcome o = run_op(
        w_.name + std::string(" ") + n + "_memory_pair",
        [&](Report& rep) { memory_pair(rep, w_, c, dl); }, 3 * deadline_s_);
    add_spans(n + "_memory_pair", o);
    if (!ok(o, n + " in-memory record/replay")) {
      ++failed_;  // both halves
      return;
    }
    samples_["core." + n + "_record_mem_s"].push_back(o.rep.wall_s);
    samples_["core." + n + "_replay_mem_s"].push_back(o.rep.replay_wall_s);
    check(o.rep.events == expected_,
          n + " in-memory record: " + std::to_string(o.rep.events) +
              " gated events, parameters give " + std::to_string(expected_));
    check_replay(n + " in-memory", o.rep, o.rep.replay_checksum,
                 o.rep.replay_events);
  }

  const Workload& w_;
  std::uint64_t seed_;
  double scale_;
  bool traced_;
  std::string root_;
  std::uint64_t expected_ = 0;
  double deadline_s_ = 60.0;
  double last_round_s_ = 0;
  double replay_rss_ = 0;
  int rounds_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
  bool correct_ = true;
  int workload_span_ = 0;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<SpanRec> spans_;
};

struct Metric {
  std::string name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"native_s", "s"},
    {"st_record_s", "s"},       {"dc_record_s", "s"},
    {"de_record_s", "s"},       {"st_replay_s", "s"},
    {"dc_replay_s", "s"},       {"de_replay_s", "s"},
    {"st_trace_bytes", "bytes"}, {"dc_trace_bytes", "bytes"},
    {"de_trace_bytes", "bytes"}, {"replay_peak_rss_mb", "MiB"},
};

std::vector<Metric> per_layer_metrics() {
  static const char* const kPerStrategy[][2] = {
      {"core.%s_record_mem_s", "s"}, {"core.%s_replay_mem_s", "s"},
      {"trace.%s_encode_s", "s"},    {"trace.%s_write_s", "s"},
      {"trace.%s_decode_s", "s"},    {"trace.%s_bytes_per_event", "bytes"},
      {"trace.%s_chunks", "count"},  {"proc.%s_record_rss_mb", "MiB"},
      {"proc.%s_replay_rss_mb", "MiB"},
  };
  std::vector<Metric> all = {
      {"core.events", "count"},
      {"core.de_epochs", "count"},
      {"core.de_parallel_epoch_share", "ratio"},
      {"codec.de_ratio", "ratio"},
      {"codec.de_compress_s", "s"},
      {"codec.de_decompress_s", "s"},
      {"proc.killed_children", "count"},
  };
  for (const auto& pat : kPerStrategy) {
    for (core::Strategy s : kStrategies) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), pat[0], sname(s).c_str());
      all.push_back({buf, pat[1]});
    }
  }
  return all;
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].first.name.c_str(), metrics[i].second,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_benchmark(const Workload& w, std::uint64_t seed, double seconds,
                  bool traced) {
  const std::string out_dir = ".bench_out";
  const std::string root = out_dir + "/rrbench-" + w.name + "-" +
                           std::to_string(::getpid());
  Bench bench(w, seed, w.scale, traced, root);
  bench.setup();
  const double start = now_s();
  const double setup_s = start - g_process_start;
  const double end = start + seconds;
  while (bench.rounds() < kMaxRounds &&
         (bench.rounds() < kMinRounds ||
          now_s() + bench.last_round_s() <= end)) {
    bench.round();
  }
  bench.finish_spans();
  std::fprintf(stderr,
               "rrbench: %s seed %llu scale %g: %d rounds, %llu gated "
               "events per run, %d children killed at deadline\n",
               w.name, static_cast<unsigned long long>(seed), w.scale,
               bench.rounds(),
               static_cast<unsigned long long>(bench.expected_events()),
               g_killed);
  std::vector<std::pair<Metric, double>> metrics;
  if (!traced) {
    for (const Metric& m : kEndToEnd) {
      metrics.emplace_back(m, m.name == "setup_s" ? setup_s : bench.med(m.name));
    }
  } else {
    for (const Metric& m : per_layer_metrics()) {
      const std::string& n = m.name;
      double v = bench.med(n);
      if (n == "core.events") v = static_cast<double>(bench.expected_events());
      if (n == "proc.killed_children") v = g_killed;
      metrics.emplace_back(m, v);
    }
    // Traced end-to-end timings, for the tracing overhead (stderr only).
    for (const Metric& m : kEndToEnd) {
      if (m.name.ends_with("_s") && m.name != "setup_s") {
        std::fprintf(stderr, "rrbench: traced %s = %.6f s\n", m.name.c_str(),
                     bench.med(m.name));
      }
    }
    const std::string path = out_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(seed) + ".json";
    bench.write_spans(path);
    std::fprintf(stderr, "rrbench: spans written to %s\n", path.c_str());
  }
  print_result(bench.correct(), bench.attempted(), bench.failed(), metrics);
  return 0;
}

// Every workload at a tiny size with all checks and the traced path on,
// plus one child that never finishes: it must be killed at its deadline,
// reaped, and counted as a failed operation.
int run_smoke() {
  bool correct = true;
  int attempted = 0, failed = 0;
  for (const Workload& w : kWorkloads) {
    const std::string root =
        ".bench_out/rrbench-smoke-" + std::string(w.name) + "-" +
        std::to_string(::getpid());
    Bench bench(w, 1, w.smoke_scale, /*traced=*/true, root);
    bench.setup();
    bench.round();
    correct = correct && bench.correct();
    attempted += bench.attempted();
    failed += bench.failed();
    std::fprintf(stderr, "rrbench smoke: %s %s (%llu events)\n", w.name,
                 bench.correct() && bench.failed() == 0 ? "ok" : "FAILED",
                 static_cast<unsigned long long>(bench.expected_events()));
  }
  const int healthy_failed = failed;
  const int killed_before = g_killed;
  ++attempted;
  const Outcome hang = run_op("hang probe", [](Report&) { ::pause(); }, 0.2, 1);
  if (!hang.completed) ++failed;
  const bool hang_counted =
      hang.killed && !hang.completed && g_killed == killed_before + 1;
  std::fprintf(stderr, "rrbench smoke: hung child %s\n",
               hang_counted ? "killed, reaped and counted as failed"
                            : "NOT handled");
  print_result(correct && hang_counted, attempted, failed, {});
  return correct && hang_counted && healthy_failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "rrbench: %s\nusage: rrbench --workload amg|hacc|hpccg "
               "--seed N --seconds S --trace 0|1\n"
               "       rrbench --smoke\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") workload = value();
      else if (a == "--seed") seed = std::stoull(value());
      else if (a == "--seconds") seconds = std::stod(value());
      else if (a == "--trace") traced = std::stoi(value()) != 0;
      else if (a == "--smoke") smoke = true;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  try {
    if (smoke) return run_smoke();
    const Workload* w = find_workload(workload);
    if (w == nullptr) usage("unknown workload");
    if (!(seconds > 0)) usage("--seconds must be positive");
    return run_benchmark(*w, seed, seconds, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrbench: %s\n", e.what());
    return 1;
  }
}
