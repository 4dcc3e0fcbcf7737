// vppb_perfbench — times one VPPB prediction end to end and layer by layer.
//
// One process records the workload's traces with the in-repo recorder,
// writes them as files, optionally starts a proxy over two in-process
// shards, and then runs closed-loop operations for a fixed time.  Every
// layer is timed from outside, around this file's calls into the
// module's public functions; nothing inside src/ is instrumented.
//
//   vppb_perfbench --workload splash-cold --seed 1 --seconds 10 --trace 0
//                  --work DIR --out raw.json
//
// Workloads (see BENCHMARK.json for why each exists):
//   splash-cold     load_any_file -> compile -> sweep_cpus -> digest on a
//                   fresh SPLASH log each time (30 files, three formats)
//   prodcons-sweep  SweepRunner::sweep over pre-compiled §5 traces
//   whatif-service  4 clients -> cluster::Proxy -> 2 server::Server shards
//
// With --trace 1 the operations carry extra timers (and, on the service,
// extra probe calls) and the per-layer samples are kept in memory until
// the end.  The raw samples go to --out as JSON; perfbench/run.py reduces
// them to the metrics.  Every operation checks its own output: a digest
// or engine-counter mismatch, a 1-CPU speed-up other than 1.00, or a
// non-OK response counts as a failed operation.
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/proxy.hpp"
#include "core/compiler.hpp"
#include "core/result.hpp"
#include "core/sweep.hpp"
#include "machine/machine.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "recorder/recorder.hpp"
#include "server/client.hpp"
#include "server/handlers.hpp"
#include "server/server.hpp"
#include "solaris/program.hpp"
#include "trace/binary.hpp"
#include "trace/chunked.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "viz/visualizer.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"

namespace {

using namespace vppb;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr int kSweepCpus[] = {1, 2, 4, 8};

// ---- raw report ---------------------------------------------------------

struct TraceFile {
  std::string name;
  std::string format;
  std::size_t records = 0;
  std::size_t bytes = 0;
};

/// Everything one run measured, written as JSON at the end.  Layer
/// samples are milliseconds unless the name says otherwise; `counts`
/// holds exact counts and derived per-run figures.
struct Report {
  std::vector<double> setup_s;
  /// CPU probe time around each set-up (the mean of a median of probes
  /// before and one after it), and every probe of the measured phase
  /// with its time; see HostProbe.
  std::vector<double> setup_host_us;
  std::vector<double> host_t_s;
  std::vector<double> host_us;
  std::vector<double> host_mem_us;
  double wall_s = 0.0;
  std::vector<double> op_ms;
  /// When each operation completed, seconds into the measured phase, and
  /// how many consecutive operations make one throughput window.
  std::vector<double> op_end_s;
  std::size_t window_ops = 100;
  /// Whether every window is one deck, holding the same operations.
  bool decks = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  double sim_steps = 0.0;  ///< engine steps inside timed simulate calls
  double sim_s = 0.0;      ///< host seconds inside those calls
  double peak_rss_mb = 0.0;
  double pred_error_pct = 0.0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counts;
  std::vector<std::string> engine_rows;  ///< "trace c<N> counters..." lines
  std::vector<TraceFile> traces;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 10) failures.push_back(why);
  }
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_nums(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_num(v[i]);
  }
  return out + "]";
}

void write_report(const Report& r, const std::string& path,
                  const std::string& workload, std::uint64_t seed,
                  bool traced) {
  std::ostringstream os;
  os << "{\"workload\":" << json_str(workload) << ",\"seed\":" << seed
     << ",\"trace\":" << (traced ? 1 : 0)
     << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE) << "}"
     << ",\"setup_s\":" << json_nums(r.setup_s)
     << ",\"setup_host_us\":" << json_nums(r.setup_host_us)
     << ",\"host_t_s\":" << json_nums(r.host_t_s)
     << ",\"host_us\":" << json_nums(r.host_us)
     << ",\"host_mem_us\":" << json_nums(r.host_mem_us)
     << ",\"wall_s\":" << json_num(r.wall_s)
     << ",\"op_ms\":" << json_nums(r.op_ms)
     << ",\"op_end_s\":" << json_nums(r.op_end_s)
     << ",\"window_ops\":" << r.window_ops
     << ",\"decks\":" << (r.decks ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? "," : "") << json_str(r.failures[i]);
  os << "],\"sim_steps\":" << json_num(r.sim_steps)
     << ",\"sim_s\":" << json_num(r.sim_s)
     << ",\"peak_rss_mb\":" << json_num(r.peak_rss_mb)
     << ",\"pred_error_pct\":" << json_num(r.pred_error_pct)
     << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, v] : r.samples) {
    os << (first ? "" : ",") << json_str(name) << ":" << json_nums(v);
    first = false;
  }
  os << "},\"counts\":{";
  first = true;
  for (const auto& [name, v] : r.counts) {
    os << (first ? "" : ",") << json_str(name) << ":" << json_num(v);
    first = false;
  }
  os << "},\"engine_rows\":[";
  for (std::size_t i = 0; i < r.engine_rows.size(); ++i)
    os << (i ? "," : "") << json_str(r.engine_rows[i]);
  os << "],\"traces\":[";
  for (std::size_t i = 0; i < r.traces.size(); ++i) {
    const TraceFile& t = r.traces[i];
    os << (i ? "," : "") << "{\"name\":" << json_str(t.name)
       << ",\"format\":" << json_str(t.format) << ",\"records\":" << t.records
       << ",\"bytes\":" << t.bytes << "}";
  }
  os << "]}\n";
  std::ofstream f(path);
  f << os.str();
  if (!f) throw Error("cannot write " + path);
}

// ---- host speed ---------------------------------------------------------

/// Two fixed kernels that share no code with VPPB, timed between
/// operations: one of pure arithmetic (the CPU probe) and one that maps,
/// touches and unmaps 1 MB (the memory probe).  A shared virtual host
/// slows this process in phases of seconds to minutes, and the probes
/// slow with it; perfbench/report.py scales the measured times by the
/// probe times taken around them.  The CPU probe touches no memory, so
/// what the operations leave in the caches does not change its time; the
/// memory probe takes fresh pages from the kernel, which the operations'
/// own frees can make a little cheaper.  On a quiet host the CPU probe
/// takes about 0.2 ms and the memory probe about 0.5 ms.
class HostProbe {
 public:
  /// Probes at most this often inside an operation loop (~2% of the time).
  static constexpr double kEveryS = 0.04;

  double cpu_us() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = state_;
    for (int i = 0; i < 100000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    state_ = x;
    return ms_since(t0) * 1000.0;
  }

  double mem_us() {
    constexpr std::size_t kBytes = std::size_t{1} << 20;
    const Clock::time_point t0 = Clock::now();
    void* m = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw Error("memory probe: mmap failed");
    auto* bytes = static_cast<volatile char*>(m);
    for (std::size_t i = 0; i < kBytes; i += 4096) bytes[i] = 1;
    ::munmap(m, kBytes);
    return ms_since(t0) * 1000.0;
  }

  /// Records one probe of each kind, `origin` being the start of the
  /// measured phase.  The memory probe is for single-threaded loops
  /// only: unmapping in a busy multi-threaded process also waits for the
  /// other threads' CPUs.
  void sample(Report& rep, Clock::time_point origin, bool memory) {
    rep.host_t_s.push_back(ms_since(origin) / 1000.0);
    rep.host_us.push_back(cpu_us());
    if (memory) rep.host_mem_us.push_back(mem_us());
  }

  /// Probes both kinds when the last probe is kEveryS old.
  void maybe_sample(Report& rep, Clock::time_point origin) {
    if (rep.host_t_s.empty() ||
        ms_since(origin) / 1000.0 - rep.host_t_s.back() >= kEveryS)
      sample(rep, origin, true);
  }

  /// The median of `n` CPU probes in a row.  Memory probes in a row
  /// reuse each other's freshly freed pages, so they are only taken one
  /// at a time between operations.
  double median_cpu_us(int n) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(cpu_us());
    std::nth_element(v.begin(), v.begin() + n / 2, v.end());
    return v[static_cast<std::size_t>(n / 2)];
  }

 private:
  std::uint64_t state_ = 1;
};

HostProbe& host_probe() {
  static HostProbe probe;
  return probe;
}

// ---- process memory -----------------------------------------------------

/// Resets the kernel's resident high-water mark, so the peak read after
/// the measured phase is that phase's own and not the recording's.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---- traces and pins ----------------------------------------------------

trace::Trace record(const std::function<void()>& body) {
  sol::Program program;
  return rec::record_program(program, body);
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
  if (!f) throw Error("cannot write " + path);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// The exact per-point engine counters a correct replay must repeat.
bool same_counts(const core::EngineCounters& a, const core::EngineCounters& b) {
  return a.steps == b.steps && a.dispatches == b.dispatches &&
         a.migrations == b.migrations && a.preemptions == b.preemptions &&
         a.timer_wakeups == b.timer_wakeups &&
         a.sched_passes == b.sched_passes &&
         a.max_runq_depth == b.max_runq_depth;
}

/// A trace's pinned sweep: the combined digest plus each point's counters.
struct Pin {
  std::uint64_t digest = 0;
  std::vector<core::EngineCounters> counts;
  double speedup8 = 0.0;
  std::uint64_t steps = 0;
};

Pin pin_of(const std::vector<core::SimResult>& rs) {
  Pin p;
  p.digest = core::digest(rs);
  for (const core::SimResult& r : rs) {
    p.counts.push_back(r.engine);
    p.steps += r.engine.steps;
  }
  p.speedup8 = rs.back().speedup;
  return p;
}

/// Checks one sweep against its pin; returns an empty string when it holds.
std::string check_sweep(const Pin& pin, const std::vector<core::SimResult>& rs) {
  if (rs.size() != pin.counts.size()) return "wrong point count";
  if (rs.front().speedup != 1.0)
    return "1-CPU speed-up " + std::to_string(rs.front().speedup);
  if (core::digest(rs) != pin.digest) return "sweep digest mismatch";
  for (std::size_t i = 0; i < rs.size(); ++i)
    if (!same_counts(rs[i].engine, pin.counts[i]))
      return "engine counters differ at c" + std::to_string(kSweepCpus[i]);
  return {};
}

void add_engine_rows(Report& rep, const std::string& trace, const Pin& pin) {
  const char* names[] = {"steps", "sched_passes", "dispatches", "preemptions"};
  for (std::size_t i = 0; i < pin.counts.size(); ++i) {
    const core::EngineCounters& c = pin.counts[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s c%d steps=%llu sched_passes=%llu dispatches=%llu "
                  "preemptions=%llu max_runq_depth=%llu migrations=%llu",
                  trace.c_str(), kSweepCpus[i],
                  static_cast<unsigned long long>(c.steps),
                  static_cast<unsigned long long>(c.sched_passes),
                  static_cast<unsigned long long>(c.dispatches),
                  static_cast<unsigned long long>(c.preemptions),
                  static_cast<unsigned long long>(c.max_runq_depth),
                  static_cast<unsigned long long>(c.migrations));
    rep.engine_rows.push_back(line);
    const std::uint64_t vals[] = {c.steps, c.sched_passes, c.dispatches,
                                  c.preemptions};
    for (std::size_t k = 0; k < 4; ++k)
      rep.counts[std::string("core.engine.") + names[k]] +=
          static_cast<double>(vals[k]);
    double& depth = rep.counts["core.engine.max_runq_depth"];
    depth = std::max(depth, static_cast<double>(c.max_runq_depth));
  }
}

double pred_error_pct(const core::CompiledTrace& c, double predicted8) {
  const double ref = machine::execute(c, machine::MachineConfig{}).speedup_mid;
  return std::fabs(predicted8 - ref) / ref * 100.0;
}

std::vector<core::SimResult> sweep(const core::CompiledTrace& c) {
  std::vector<core::SimResult> rs;
  core::SweepOptions opt;
  opt.results = &rs;
  core::sweep_cpus(c, kSweepCpus, core::SimConfig{}, opt);
  return rs;
}

/// Runs shuffled decks of operations until `seconds` have passed and at
/// least 200 ran, stopping only between decks so every run sees each
/// deck entry equally often; one deck is one throughput window.  The
/// figures come from the quieter half of the decks, whose p90 then
/// still has 100 samples.
template <class Op>
void run_decks(std::vector<std::size_t> deck, std::mt19937_64& rng,
               double seconds, Report& rep, Op&& op) {
  const Clock::time_point t0 = Clock::now();
  rep.window_ops = deck.size();
  rep.decks = true;
  for (;;) {
    std::shuffle(deck.begin(), deck.end(), rng);
    for (const std::size_t i : deck) {
      host_probe().maybe_sample(rep, t0);
      op(i);
      rep.op_end_s.push_back(ms_since(t0) / 1000.0);
    }
    rep.wall_s = ms_since(t0) / 1000.0;
    if (rep.wall_s >= seconds && rep.op_end_s.size() >= 200) return;
  }
}

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

/// One workload: set up (repeatable), compute oracles, measure.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Records traces, writes files, starts services, warms up.
  virtual void setup(Report& rep) = 0;
  /// Stops what setup() started; untimed, before each repeated setup.
  virtual void teardown() {}
  /// Pins and accuracy, once per run, outside setup and measurement.
  virtual void oracle(Report& rep) = 0;
  virtual void measure(Report& rep, const RunOptions& opt) = 0;
};

// ---- splash-cold --------------------------------------------------------

class SplashCold final : public Workload {
 public:
  void setup(Report& rep) override {
    files_.clear();
    rep.traces.clear();
    for (const workloads::SplashApp& app : workloads::splash_suite()) {
      for (const int threads : {64, 256}) {
        const std::string name = lower(app.name) + std::to_string(threads);
        const trace::Trace t = record([&]() {
          app.run(workloads::SplashParams{threads, 1.0});
        });
        const std::string base = "splash-" + name;
        trace::save_file(t, base + ".vpp");
        trace::save_binary_file(t, base + ".vpb");
        write_bytes(base + ".vpc", trace::to_chunked(t));
        const std::pair<const char*, const char*> formats[] = {
            {"text", ".vpp"}, {"binary", ".vpb"}, {"chunked", ".vpc"}};
        for (const auto& [fmt, ext] : formats) {
          files_.push_back(File{base + ext, fmt, name});
          rep.traces.push_back(TraceFile{name, fmt, t.records.size(),
                                         fs::file_size(base + ext)});
        }
      }
    }
  }

  void oracle(Report& rep) override {
    double err = 0.0;
    int n = 0;
    for (const File& f : files_) {
      if (f.format != "text") continue;
      const core::CompiledTrace c = core::compile(trace::load_any_file(f.path));
      const std::vector<core::SimResult> rs = sweep(c);
      if (rs.front().speedup != 1.0)
        rep.fail(f.trace + ": 1-CPU speed-up is not 1.00");
      const Pin pin = pin_of(rs);
      pins_[f.trace] = pin;
      add_engine_rows(rep, f.trace, pin);
      rep.counts["core.compile.steps"] += static_cast<double>(c.flat->total_steps);
      err += pred_error_pct(c, pin.speedup8);
      ++n;
    }
    for (const File& f : files_)
      rep.counts["trace.bytes_read"] += static_cast<double>(fs::file_size(f.path));
    rep.pred_error_pct = err / n;
  }

  void measure(Report& rep, const RunOptions& opt) override {
    std::mt19937_64 rng(opt.seed);
    // 35 entries: every file once and each kernel's 64-thread text log
    // once more.  With an odd deck whose size is 5 mod 10, p50 and p90
    // fall in the middle of one entry's samples, not between two.
    std::vector<std::size_t> deck(files_.size());
    for (std::size_t i = 0; i < deck.size(); ++i) deck[i] = i;
    for (std::size_t i = 0; i < files_.size(); ++i)
      if (files_[i].format == "text" && files_[i].trace.ends_with("64"))
        deck.push_back(i);
    run_decks(deck, rng, opt.seconds, rep, [&](std::size_t i) {
      const File& f = files_[i];
      ++rep.attempted;
      const Clock::time_point t0 = Clock::now();
      trace::Trace t = trace::load_any_file(f.path);
      const Clock::time_point t1 = Clock::now();
      const core::CompiledTrace c = core::compile(t);
      const Clock::time_point t2 = Clock::now();
      const std::vector<core::SimResult> rs = sweep(c);
      const Clock::time_point t3 = Clock::now();
      const std::uint64_t d = core::digest(rs);
      const Clock::time_point t4 = Clock::now();
      auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      const double op = ms(t0, t4);
      rep.op_ms.push_back(op);
      const double sweep_ms = ms(t2, t3);
      rep.sim_s += sweep_ms / 1000.0;
      const Pin& pin = pins_.at(f.trace);
      rep.sim_steps += static_cast<double>(pin.steps);
      std::string why = check_sweep(pin, rs);
      if (why.empty() && d != pin.digest) why = "digest mismatch";
      if (!why.empty()) rep.fail(f.path + ": " + why);
      if (!opt.traced) return;
      const double load = ms(t0, t1), compile = ms(t1, t2), digest = ms(t3, t4);
      rep.samples["trace.load_ms." + f.format].push_back(load);
      rep.samples["core.compile_ms"].push_back(compile);
      rep.samples["core.sweep_ms"].push_back(sweep_ms);
      rep.samples["core.digest_ms"].push_back(digest);
      rep.samples["core.sweep.points"].push_back(4);
      rep.samples["bench.stage_sum_ratio"].push_back(
          (load + compile + sweep_ms + digest) / op);
      // Outside the operation: the cost of one more validation pass.
      const Clock::time_point v0 = Clock::now();
      t.validate();
      rep.samples["trace.validate_ms"].push_back(ms_since(v0));
    });
    if (opt.traced)
      rep.counts["core.engine.ns_per_step"] = rep.sim_s * 1e9 / rep.sim_steps;
  }

 private:
  struct File {
    std::string path;
    std::string format;
    std::string trace;
  };
  std::vector<File> files_;
  std::map<std::string, Pin> pins_;
};

// ---- prodcons-sweep -----------------------------------------------------

class ProdconsSweep final : public Workload {
 public:
  void setup(Report& rep) override {
    // Labels name the trace thread count of each `vppb gen` setting.
    struct Spec {
      const char* label;
      bool tuned;
      int gen_threads;
      std::size_t weight;
    };
    // Weights place p50 inside the tuned196 class and p90 inside the
    // tuned736 class (deck order: 4 + 3 + 1 + 2 operations).
    const Spec specs[] = {{"tuned61", true, 8, 4},
                          {"tuned196", true, 32, 3},
                          {"naive736", false, 128, 1},
                          {"tuned736", true, 128, 2}};
    traces_.clear();
    rep.traces.clear();
    for (const Spec& s : specs) {
      workloads::ProdConsParams p;
      p.producers = 30 * s.gen_threads / 8 + 10;
      p.consumers = p.producers / 2;
      p.items_per_producer = 10;
      const bool tuned = s.tuned;
      const trace::Trace t = record([p, tuned]() {
        if (tuned) {
          workloads::prodcons_tuned(p);
        } else {
          workloads::prodcons_naive(p);
        }
      });
      const std::string path = std::string("prodcons-") + s.label + ".vpb";
      trace::save_binary_file(t, path);
      auto pc = std::make_unique<PcTrace>();
      pc->label = s.label;
      pc->weight = s.weight;
      pc->log = trace::load_any_file(path);
      pc->compiled = core::compile(pc->log);
      // Warm-up: one sweep per trace fills the engine pool.
      std::vector<core::SimResult> rs;
      core::SweepOptions o;
      o.results = &rs;
      runner_.sweep(pc->compiled, kSweepCpus, core::SimConfig{}, o);
      pc->pin = pin_of(rs);
      rep.traces.push_back(TraceFile{
          std::string(s.label) + " (" +
              std::to_string(pc->log.threads.size()) + " threads)",
          "binary", pc->log.records.size(), fs::file_size(path)});
      traces_.push_back(std::move(pc));
    }
  }

  void oracle(Report& rep) override {
    double err = 0.0;
    for (const auto& t : traces_) {
      if (t->pin.digest != pin_of(sweep(t->compiled)).digest)
        rep.fail(t->label + ": pooled sweep differs from sweep_cpus");
      add_engine_rows(rep, t->label, t->pin);
      rep.counts["core.compile.steps"] +=
          static_cast<double>(t->compiled.flat->total_steps);
      rep.counts["trace.bytes_read"] +=
          static_cast<double>(fs::file_size("prodcons-" + t->label + ".vpb"));
      err += pred_error_pct(t->compiled, t->pin.speedup8);
    }
    rep.pred_error_pct = err / static_cast<double>(traces_.size());
  }

  void measure(Report& rep, const RunOptions& opt) override {
    std::mt19937_64 rng(opt.seed);
    std::vector<std::size_t> deck;
    for (std::size_t i = 0; i < traces_.size(); ++i)
      deck.insert(deck.end(), traces_[i]->weight, i);
    run_decks(deck, rng, opt.seconds, rep, [&](std::size_t i) {
      const PcTrace& t = *traces_[i];
      ++rep.attempted;
      std::vector<core::SimResult> rs;
      const Clock::time_point t0 = Clock::now();
      if (opt.traced) {
        // The same points sweep() runs, one timed run() call each.
        double sum = 0.0;
        for (const int cpus : kSweepCpus) {
          core::SimConfig cfg;
          cfg.hw.cpus = cpus;
          cfg.build_timeline = false;
          const Clock::time_point p0 = Clock::now();
          rs.push_back(runner_.run(t.compiled, cfg));
          const double ms = ms_since(p0);
          sum += ms;
          rep.samples["core.engine.ns_per_step." + t.label + ".c" +
                      std::to_string(cpus)]
              .push_back(ms * 1e6 / static_cast<double>(rs.back().engine.steps));
        }
        rep.samples["core.sweep_ms"].push_back(sum);
        rep.samples["core.sweep.points"].push_back(4);
      } else {
        core::SweepOptions o;
        o.results = &rs;
        runner_.sweep(t.compiled, kSweepCpus, core::SimConfig{}, o);
      }
      const double op = ms_since(t0);
      rep.op_ms.push_back(op);
      rep.samples["op_ms." + t.label].push_back(op);
      if (opt.traced)
        rep.samples["bench.stage_sum_ratio"].push_back(
            rep.samples["core.sweep_ms"].back() / op);
      rep.sim_s += op / 1000.0;
      rep.sim_steps += static_cast<double>(t.pin.steps);
      const std::string why = check_sweep(t.pin, rs);
      if (!why.empty()) rep.fail(t.label + ": " + why);
    });
    if (opt.traced)
      rep.counts["core.engine.ns_per_step"] = rep.sim_s * 1e9 / rep.sim_steps;
  }

 private:
  struct PcTrace {
    std::string label;
    std::size_t weight = 1;
    trace::Trace log;
    core::CompiledTrace compiled;
    Pin pin;
  };
  std::vector<std::unique_ptr<PcTrace>> traces_;
  core::SweepRunner runner_;
};

// ---- whatif-service -----------------------------------------------------

class WhatIfService final : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr std::size_t kCacheEntries = 4;  ///< per shard
  static constexpr int kTraces = 20;

  ~WhatIfService() override { teardown(); }

  void teardown() override {
    if (proxy_) proxy_->stop();
    for (auto& s : shards_)
      if (s) s->stop();
    proxy_.reset();
    for (auto& s : shards_) s.reset();
  }

  void setup(Report& rep) override {
    paths_.clear();
    rep.traces.clear();
    // Ocean at 32 threads and 20 problem scales: 20 distinct binary logs
    // of one shape, more than the shards' 2 x 4 cache entries.  One
    // shape keeps every request class's latency unimodal.
    for (int i = 0; i < kTraces; ++i) {
      const double scale = 0.5 + 0.05 * i;
      const trace::Trace t = record([scale]() {
        workloads::ocean(workloads::SplashParams{32, scale});
      });
      const std::string name = "whatif-ocean32-" + std::to_string(i);
      trace::save_binary_file(t, name + ".vpb");
      paths_.push_back(name + ".vpb");
      rep.traces.push_back(TraceFile{name, "binary", t.records.size(),
                                     fs::file_size(name + ".vpb")});
    }

    // Two shards of two workers each, as `vppb cluster --jobs 2` runs them.
    for (int i = 0; i < 2; ++i) {
      server::ServerOptions so;
      so.unix_path = "shard" + std::to_string(i + 1) + ".sock";
      so.jobs = 2;
      so.shard_id = static_cast<std::uint64_t>(i + 1);
      so.cache_entries = kCacheEntries;
      so.faults = &inert_;
      shards_[i] = std::make_unique<server::Server>(so);
      shards_[i]->start();
    }
    cluster::ProxyOptions po;
    po.unix_path = "proxy.sock";
    po.shards.push_back(cluster::ShardEndpoint::parse(1, "shard1.sock"));
    po.shards.push_back(cluster::ShardEndpoint::parse(2, "shard2.sock"));
    proxy_ = std::make_unique<cluster::Proxy>(po);
    proxy_->start();

    // Warm-up: every client connection answers a health probe.
    for (int c = 0; c < kClients; ++c) {
      server::Client client = server::Client::connect_unix("proxy.sock");
      server::Request h;
      h.type = server::ReqType::kHealth;
      if (client.call(h).status != server::Status::kOk)
        throw Error("proxy health probe failed");
    }
  }

  void oracle(Report& rep) override {
    // Expected digests: the in-process handler on a private cache, for
    // every distinct request the mix can draw.
    priv_ = std::make_unique<server::TraceCache>(64, std::size_t{1} << 31);
    expected_.clear();
    double err = 0.0;
    for (const std::string& path : paths_) {
      for (const server::Request& req : variants(path)) {
        const server::Response r = handle(req);
        expected_[key(req)] = r.digest;
        if (req.type == server::ReqType::kPredict) {
          if (r.points.front().speedup != 1.0)
            rep.fail(path + ": 1-CPU speed-up is not 1.00");
          err += pred_error_pct(priv_->get(path)->compiled,
                                r.points.back().speedup);
        }
      }
      const auto entry = priv_->get(path);
      rep.counts["core.compile.steps"] +=
          static_cast<double>(entry->compiled.flat->total_steps);
      rep.counts["trace.bytes_read"] += static_cast<double>(fs::file_size(path));
      const Pin pin = pin_of(sweep(entry->compiled));
      pins_[path] = pin;
      add_engine_rows(rep, path, pin);
    }
    rep.pred_error_pct = err / static_cast<double>(paths_.size());
  }

  void measure(Report& rep, const RunOptions& opt) override {
    if (opt.traced) probe_miss_path(rep);
    const auto stats0 = snapshot();
    std::atomic<std::size_t> done{0};
    std::atomic<int> finished{0};
    std::vector<Report> local(kClients);
    std::vector<std::thread> threads;
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c]() {
        try {
          client_loop(c, opt, local[static_cast<std::size_t>(c)], done, t0);
        } catch (const std::exception& e) {
          local[static_cast<std::size_t>(c)].fail(
              std::string("client: ") + e.what());
        }
        finished.fetch_add(1);
      });
    }
    // The otherwise idle main thread probes the host while clients run.
    while (finished.load() < kClients) {
      host_probe().sample(rep, t0, false);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(HostProbe::kEveryS));
    }
    for (std::thread& t : threads) t.join();
    rep.wall_s = ms_since(t0) / 1000.0;
    for (const Report& l : local) {
      rep.op_ms.insert(rep.op_ms.end(), l.op_ms.begin(), l.op_ms.end());
      rep.op_end_s.insert(rep.op_end_s.end(), l.op_end_s.begin(),
                          l.op_end_s.end());
      rep.attempted += l.attempted;
      rep.failed += l.failed;
      for (const std::string& f : l.failures)
        if (rep.failures.size() < 10) rep.failures.push_back(f);
      for (const auto& [name, v] : l.samples)
        rep.samples[name].insert(rep.samples[name].end(), v.begin(), v.end());
      rep.sim_steps += l.sim_steps;
      rep.sim_s += l.sim_s;
    }
    const auto stats1 = snapshot();
    for (const auto& [name, v] : stats1) rep.counts[name] = v - stats0.at(name);
    const double lookups =
        rep.counts["server.cache.hits"] + rep.counts["server.cache.misses"];
    rep.counts["server.cache.hit_ratio"] =
        lookups > 0 ? rep.counts["server.cache.hits"] / lookups : 0.0;
    if (opt.traced && rep.sim_steps > 0)
      rep.counts["core.engine.ns_per_step"] = rep.sim_s * 1e9 / rep.sim_steps;
  }

 private:
  static std::string key(const server::Request& r) {
    return r.trace_path + (r.type == server::ReqType::kPredict
                               ? std::string("/predict")
                               : "/sim" + std::to_string(r.cpus));
  }

  static std::vector<server::Request> variants(const std::string& path) {
    std::vector<server::Request> out;
    server::Request p;
    p.type = server::ReqType::kPredict;
    p.trace_path = path;
    p.max_cpus = 8;
    out.push_back(p);
    for (const int cpus : {2, 4, 8}) {
      server::Request s;
      s.type = server::ReqType::kSimulate;
      s.trace_path = path;
      s.cpus = cpus;
      out.push_back(s);
    }
    return out;
  }

  server::Response handle(const server::Request& req) {
    return req.type == server::ReqType::kPredict
               ? server::handle_predict(req, *priv_)
               : server::handle_simulate(req, *priv_);
  }

  /// The seeded request stream of one client: 65% predict (max_cpus 8),
  /// 20% simulate at 2/4/8 CPUs, 15% simulate at 4 CPUs with an SVG.
  /// The SVG class is the slowest, so p90 and p99 both sit inside it.
  /// Trace popularity is Zipf(1) over the 20 logs in a fixed order, so
  /// every seed loads the two shards alike; the seed draws the sequence.
  class Stream {
   public:
    Stream(std::uint64_t seed, int client, const WhatIfService& w)
        : rng_(seed * 1000003ULL + static_cast<std::uint64_t>(client)),
          w_(w) {
      std::vector<double> zipf;
      for (std::size_t r = 0; r < w.paths_.size(); ++r)
        zipf.push_back(1.0 / static_cast<double>(r + 1));
      rank_ = std::discrete_distribution<std::size_t>(zipf.begin(), zipf.end());
    }

    server::Request next() {
      server::Request req;
      req.trace_path = w_.paths_[rank_(rng_)];
      const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
      if (u < 0.65) {
        req.type = server::ReqType::kPredict;
        req.max_cpus = 8;
      } else if (u < 0.85) {
        req.type = server::ReqType::kSimulate;
        req.cpus = 2 << std::uniform_int_distribution<int>(0, 2)(rng_);
      } else {
        req.type = server::ReqType::kSimulate;
        req.cpus = 4;
        req.want_svg = true;
      }
      return req;
    }

   private:
    std::mt19937_64 rng_;
    const WhatIfService& w_;
    std::discrete_distribution<std::size_t> rank_;
  };

  void client_loop(int c, const RunOptions& opt, Report& rep,
                   std::atomic<std::size_t>& done, Clock::time_point t0) {
    Stream stream(opt.seed, c, *this);
    server::Client client = server::Client::connect_unix("proxy.sock");
    std::unique_ptr<server::Client> direct[2];
    if (opt.traced) {
      for (int i = 0; i < 2; ++i)
        direct[i] = std::make_unique<server::Client>(server::Client::connect_unix(
            "shard" + std::to_string(i + 1) + ".sock"));
    }
    // Untraced runs need 1,000 operations for a p99 with ten samples
    // beyond it; traced runs report medians only.
    const std::size_t min_ops = opt.traced ? 0 : 1000;
    while (ms_since(t0) / 1000.0 < opt.seconds || done.load() < min_ops) {
      const server::Request req = stream.next();
      ++rep.attempted;
      const Clock::time_point a = Clock::now();
      const server::Response resp = client.call(req);
      const double op = ms_since(a);
      rep.op_ms.push_back(op);
      rep.op_end_s.push_back(ms_since(t0) / 1000.0);
      rep.samples[req.want_svg                             ? "op_ms.svg"
                  : req.type == server::ReqType::kPredict ? "op_ms.predict"
                                                          : "op_ms.simulate"]
          .push_back(op);
      done.fetch_add(1);
      const auto want = expected_.find(key(req));
      if (resp.status != server::Status::kOk) {
        rep.fail(key(req) + ": " + server::to_string(resp.status) + " " +
                 resp.error);
        continue;
      }
      if (want == expected_.end() || resp.digest != want->second ||
          (req.want_svg && resp.svg.empty())) {
        rep.fail(key(req) + ": proxied digest differs from the handler");
        continue;
      }
      if (opt.traced) probe(req, resp, op, direct, rep);
    }
  }

  /// Traced only, outside the operation's timer: the same request sent
  /// straight to its shard, run by the handler in-process, and rebuilt
  /// from the core and viz calls the handler makes.
  void probe(const server::Request& req, const server::Response& via_proxy,
             double proxy_ms, std::unique_ptr<server::Client> (&direct)[2],
             Report& rep) {
    const std::size_t shard = via_proxy.shard_id == 2 ? 1 : 0;
    Clock::time_point a = Clock::now();
    const server::Response d = direct[shard]->call(req);
    const double call = ms_since(a);
    if (d.status != server::Status::kOk || d.digest != via_proxy.digest)
      rep.fail(key(req) + ": direct shard answer differs");
    a = Clock::now();
    const server::Response h = handle(req);
    const double handler = ms_since(a);
    rep.samples["server.call_ms_p50"].push_back(call);
    rep.samples["server.handler_ms_p50"].push_back(handler);
    rep.samples["server.overhead_ms_p50"].push_back(call - handler);
    rep.samples["cluster.forward_ms_p50"].push_back(proxy_ms - call);

    // Stage rebuild: cache lookup, one run() per point, viz model + SVG.
    a = Clock::now();
    const auto entry = priv_->get(req.trace_path);
    double stages = ms_since(a);
    core::SimConfig cfg;
    std::vector<int> points;
    if (req.type == server::ReqType::kPredict) {
      cfg.build_timeline = false;
      points.assign(std::begin(kSweepCpus), std::end(kSweepCpus));
    } else {
      points.push_back(req.cpus);
    }
    double sim = 0.0;
    std::vector<core::SimResult> results;
    const Pin& pin = pins_.at(req.trace_path);
    for (const int cpus : points) {
      cfg.hw.cpus = cpus;
      a = Clock::now();
      results.push_back(core::SweepRunner::shared().run(entry->compiled, cfg));
      sim += ms_since(a);
      const core::EngineCounters& c = results.back().engine;
      const std::size_t idx = static_cast<std::size_t>(std::countr_zero(
          static_cast<unsigned>(cpus)));
      if (!same_counts(c, pin.counts[idx]))
        rep.fail(key(req) + ": engine counters differ");
      rep.sim_steps += static_cast<double>(c.steps);
    }
    rep.sim_s += sim / 1000.0;
    rep.samples[req.type == server::ReqType::kPredict ? "core.sweep_ms"
                                                      : "core.simulate_ms"]
        .push_back(sim);
    rep.samples["core.sweep.points"].push_back(
        static_cast<double>(points.size()));
    // The handler digests every point, and a sweep once more as a whole.
    a = Clock::now();
    std::uint64_t rebuilt = 0;
    for (const core::SimResult& r : results) rebuilt = core::digest(r);
    if (results.size() > 1) rebuilt = core::digest(results);
    const double digest = ms_since(a);
    if (rebuilt != via_proxy.digest)
      rep.fail(key(req) + ": rebuilt digest differs");
    rep.samples["core.digest_ms"].push_back(digest);
    stages += sim + digest;
    const core::SimResult& last = results.back();
    if (req.want_svg) {
      a = Clock::now();
      viz::Visualizer v(last, entry->trace);
      v.compress_threads();
      const double model = ms_since(a);
      a = Clock::now();
      const std::string svg = viz::render_svg(v, viz::RenderOptions{});
      const double render = ms_since(a);
      rep.samples["viz.model_ms"].push_back(model);
      rep.samples["viz.render_svg_ms"].push_back(render);
      rep.samples["viz.svg_kb"].push_back(static_cast<double>(svg.size()) / 1024.0);
      if (svg != via_proxy.svg) rep.fail(key(req) + ": SVG differs");
      stages += model + render;
    }
    if (h.digest != via_proxy.digest)
      rep.fail(key(req) + ": in-process handler digest differs");
    rep.samples["bench.stage_sum_ratio"].push_back(stages / handler);
  }

  /// Traced only: the layers a cache miss pays, once per trace.
  void probe_miss_path(Report& rep) {
    for (const std::string& path : paths_) {
      Clock::time_point a = Clock::now();
      const trace::Trace t = trace::load_any_file(path);
      rep.samples["trace.load_ms.binary"].push_back(ms_since(a));
      a = Clock::now();
      t.validate();
      rep.samples["trace.validate_ms"].push_back(ms_since(a));
      a = Clock::now();
      const core::CompiledTrace c = core::compile(t);
      rep.samples["core.compile_ms"].push_back(ms_since(a));
    }
  }

  /// Shard cache and proxy counters, for before/after deltas.
  std::map<std::string, double> snapshot() {
    std::map<std::string, double> s;
    for (const auto& shard : shards_) {
      const server::TraceCache::Stats c = shard->cache().stats();
      s["server.cache.hits"] += static_cast<double>(c.hits);
      s["server.cache.misses"] += static_cast<double>(c.misses);
      s["server.cache.evictions"] += static_cast<double>(c.evictions);
      s["server.cache.waits"] += static_cast<double>(c.waits);
      server::StatsBody body;
      shard->metrics().snapshot(body);
      s["server.overloaded"] += static_cast<double>(body.overloads);
    }
    auto& reg = obs::Registry::global();
    s["cluster.failovers"] = static_cast<double>(
        reg.counter("vppb_proxy_failovers_total", "").value());
    s["cluster.hedges"] =
        static_cast<double>(reg.counter("vppb_proxy_hedges_total", "").value());
    s["cluster.dedup_hits"] = static_cast<double>(
        reg.counter("vppb_proxy_dedup_hits_total", "").value());
    s["cluster.no_shards"] = static_cast<double>(
        reg.counter("vppb_proxy_no_shards_total", "").value());
    return s;
  }

  util::FaultPlan inert_;
  std::vector<std::string> paths_;  ///< in popularity order
  std::unique_ptr<server::Server> shards_[2];
  std::unique_ptr<cluster::Proxy> proxy_;
  std::unique_ptr<server::TraceCache> priv_;
  std::map<std::string, std::uint64_t> expected_;
  std::map<std::string, Pin> pins_;
};

// ---- main ---------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "splash-cold") return std::make_unique<SplashCold>();
  if (name == "prodcons-sweep") return std::make_unique<ProdconsSweep>();
  if (name == "whatif-service") return std::make_unique<WhatIfService>();
  throw Error("unknown workload '" + name + "'");
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw Error("bad argument " + k);
    args[k.substr(2)] = argv[i + 1];
  }
  for (const char* need : {"workload", "seed", "seconds", "trace", "work", "out"})
    if (!args.count(need)) throw Error(std::string("missing --") + need);
  RunOptions opt;
  opt.seed = std::stoull(args["seed"]);
  opt.seconds = std::stod(args["seconds"]);
  opt.traced = args["trace"] == "1";
  const std::string out = fs::absolute(args["out"]).string();

  // Relative paths keep the unix socket names short.
  fs::create_directories(args["work"]);
  fs::current_path(args["work"]);

  // Service start/stop lines would drown the report.
  obs::Logger::global().set_level(obs::LogLevel::kWarn);
  auto w = make_workload(args["workload"]);
  Report rep;
  // setup_s comes from several set-ups; the last one is measured.
  for (int i = 0; i < 6; ++i) {
    w->teardown();
    const double before = host_probe().median_cpu_us(5);
    const Clock::time_point t0 = Clock::now();
    w->setup(rep);
    rep.setup_s.push_back(ms_since(t0) / 1000.0);
    rep.setup_host_us.push_back(
        std::midpoint(before, host_probe().median_cpu_us(5)));
  }
  w->oracle(rep);
  reset_peak_rss();
  w->measure(rep, opt);
  rep.peak_rss_mb = peak_rss_mb();
  write_report(rep, out, args["workload"], opt.seed, opt.traced);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vppb_perfbench: %s\n", e.what());
    return 1;
  }
}
