// End-to-end benchmark of the tiled stencil runtime, with per-layer
// budgets from a separate traced run. See perfbench/README.md for the
// workloads, the metrics and how to run it.
//
//   nupbench --workload <denoise_engine|heat_temporal|serve_mixed>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Every layer is driven only through its public API (FrameEngine,
// TemporalRunner, StencilServer, DesignCache, plan_tiles, FastSim,
// publish_sim_telemetry). Every measured frame is checked against a golden
// checksum computed before set-up. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones and writes a
// Chrome-trace JSON of the benchmark's own spans.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/design_cache.hpp"
#include "runtime/engine.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/tiler.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/fast.hpp"
#include "stencil/boundary.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "temporal/golden.hpp"
#include "temporal/runner.hpp"
#include "temporal/unroll.hpp"

namespace {

using namespace nup;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double seconds_since(std::int64_t t0_ns) { return (now_ns() - t0_ns) * 1e-9; }

/// SplitMix64: every input the benchmark generates derives from --seed.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return (next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return next() % n; }
};

/// Distinct non-zero frame seeds derived from the run seed.
std::vector<std::uint64_t> frame_seeds(std::uint64_t seed, std::size_t n) {
  Rng rng{seed * 0x2545f4914f6cdd1dull + 0x1234567ull};
  std::vector<std::uint64_t> out;
  while (out.size() < n) {
    const std::uint64_t s = rng.next() | 1u;
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
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
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------------

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// Cache size in KiB of the given level (unified or data) of cpu0, read
/// from sysfs; 0 when unavailable.
std::int64_t cache_kib(int level) {
  for (int idx = 0; idx < 16; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string lvl = read_first_line(base + "level");
    if (lvl.empty()) break;
    const std::string type = read_first_line(base + "type");
    if (std::atoi(lvl.c_str()) != level || type == "Instruction") continue;
    const std::string size = read_first_line(base + "size");
    std::int64_t kib = std::atoll(size.c_str());
    if (!size.empty() && size.back() == 'M') kib *= 1024;
    return kib;
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// (steal, total) CPU time in clock ticks summed over the host's CPUs, from
/// /proc/stat: steal is time the hypervisor gave this VM's vCPUs to others.
std::pair<std::int64_t, std::int64_t> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::int64_t total = 0, steal = 0, v = 0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string host_fingerprint_json() {
  const char* fake = std::getenv("NUP_FAKE_TOPOLOGY");
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
     << ", \"l2_kib\": " << cache_kib(2) << ", \"l3_kib\": " << cache_kib(3)
     << ", \"avx2\": "
     << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ", \"build_type\": \"" << NUPBENCH_BUILD_TYPE << "\""
     << ", \"nup_obs_disable\": " << (NUPBENCH_OBS_DISABLE ? "true" : "false")
     << ", \"nup_fake_topology\": \"" << json_escape(fake ? fake : "")
     << "\"}";
  return os.str();
}

// ---------------------------------------------------------------------------
// The benchmark's own spans (written as Chrome-trace JSON by --trace 1)
// ---------------------------------------------------------------------------

/// Small dense index of the calling thread (the trace's tid).
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Id of the innermost open ScopedSpan of the calling thread (0: none).
thread_local std::uint64_t tls_open_span = 0;

class SpanLog {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: root span
    std::uint64_t frame = 0;   ///< 0: not tied to one frame
    int tid = 0;
    bool async = false;  ///< a frame's lifetime, which crosses threads
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span of the calling thread and returns its id (0
  /// when disabled). Parent 0 means the thread's innermost open ScopedSpan.
  std::uint64_t add(std::string name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t frame = 0, std::uint64_t id = 0) {
    return record(std::move(name), start_ns, end_ns,
                  parent != 0 ? parent : tls_open_span, frame, id, false);
  }

  /// Records one frame's submit -> resolve lifetime as an async span.
  std::uint64_t add_frame(std::string name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t frame,
                          std::uint64_t id) {
    return record(std::move(name), start_ns, end_ns, 0, frame, id, true);
  }

  /// Chrome trace-event JSON with the host fingerprint as metadata. Thread
  /// spans are complete ("X") events; frame lifetimes are async ("b"/"e")
  /// events keyed by frame id. Every event's args hold its span id, parent
  /// span id and frame id.
  bool write(const std::string& path, const std::string& meta_json) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"otherData\": " << meta_json << ", \"traceEvents\": [";
    const char* sep = "\n";
    for (const Record& r : records_) {
      std::ostringstream args;
      args << "\"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
           << ", \"frame\": " << r.frame << "}";
      const std::string head =
          "{\"name\": \"" + json_escape(r.name) + "\", \"pid\": 1, ";
      if (r.async) {
        out << sep << head << "\"cat\": \"frame\", \"ph\": \"b\", \"id\": "
            << r.frame << ", \"tid\": 0, \"ts\": " << fmt_num(r.start_ns / 1e3)
            << ", " << args.str() << "}";
        out << ",\n" << head << "\"cat\": \"frame\", \"ph\": \"e\", \"id\": "
            << r.frame << ", \"tid\": 0, \"ts\": " << fmt_num(r.end_ns / 1e3)
            << "}";
      } else {
        out << sep << head << "\"ph\": \"X\", \"tid\": " << r.tid
            << ", \"ts\": " << fmt_num(r.start_ns / 1e3)
            << ", \"dur\": " << fmt_num((r.end_ns - r.start_ns) / 1e3) << ", "
            << args.str() << "}";
      }
      sep = ",\n";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::uint64_t record(std::string name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t frame, std::uint64_t id, bool async) {
    if (!enabled_) return 0;
    if (id == 0) id = next_id();
    const int tid = thread_index();
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(
        {std::move(name), start_ns, end_ns, id, parent, frame, tid, async});
    return id;
  }

  bool enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span over one call; spans recorded inside it on the same thread
/// take it as their parent. A no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent = 0,
             std::uint64_t frame = 0)
      : log_(log),
        name_(std::move(name)),
        parent_(parent != 0 ? parent : tls_open_span),
        frame_(frame),
        id_(log.enabled() ? log.next_id() : 0),
        outer_(tls_open_span),
        start_(log.enabled() ? now_ns() : 0) {
    if (log_.enabled()) tls_open_span = id_;
  }
  ~ScopedSpan() {
    if (log_.enabled()) {
      tls_open_span = outer_;
      log_.add(std::move(name_), start_, now_ns(), parent_, frame_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t frame_;
  std::uint64_t id_;
  std::uint64_t outer_;
  std::int64_t start_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Frame accounting of one measured phase. Every frame is one operation; a
/// frame fails when it errors, is shed or cancelled, or its checksum
/// differs from the golden one.
struct Phase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t correct = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< one per correct frame

  /// Correct frames over the whole phase.
  double frames_per_s() const {
    return ratio(static_cast<double>(correct), wall_s, 0.0);
  }

  void add_latency(std::int64_t sent, std::int64_t resolved) {
    latency_ms.push_back((resolved - sent) * 1e-6);
  }

  /// Merges counts, wall time and latencies.
  void absorb(const Phase& other) {
    attempted += other.attempted;
    failed += other.failed;
    correct += other.correct;
    wall_s += other.wall_s;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
  }
};

/// Keyed golden checksums of the workload's seed set.
using Goldens = std::unordered_map<std::uint64_t, std::uint64_t>;

std::uint64_t golden_key(std::size_t design, std::uint64_t seed) {
  return seed * 31 + design;
}

// ---------------------------------------------------------------------------
// Metric-registry readers
// ---------------------------------------------------------------------------

bool starts_with(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}
bool ends_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}

using NameFilter = std::function<bool(const std::string&)>;

/// Sum of every counter whose name passes `keep`; `matched` gets how many.
std::int64_t sum_counters(const obs::MetricsSnapshot& snap,
                          const NameFilter& keep,
                          std::size_t* matched = nullptr) {
  std::int64_t total = 0;
  std::size_t n = 0;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.kind == obs::MetricSample::Kind::kCounter && keep(s.name)) {
      total += s.value;
      ++n;
    }
  }
  if (matched) *matched = n;
  return total;
}

/// Merges every histogram whose name passes `keep` (all use the default
/// bucket ladder) into one snapshot.
obs::Histogram::Snapshot merged_histogram(const obs::MetricsSnapshot& snap,
                                          const NameFilter& keep) {
  obs::Histogram::Snapshot out;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.kind != obs::MetricSample::Kind::kHistogram || !keep(s.name) ||
        s.hist.count == 0) {
      continue;
    }
    const obs::Histogram::Snapshot& h = s.hist;
    if (out.count == 0) {
      out = h;
      continue;
    }
    if (h.bounds != out.bounds) continue;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out.counts[b] += h.counts[b];
    }
    out.count += h.count;
    out.sum += h.sum;
    out.min = std::min(out.min, h.min);
    out.max = std::max(out.max, h.max);
  }
  return out;
}

double hist_p50(const obs::MetricsSnapshot& snap, const NameFilter& keep) {
  const obs::Histogram::Snapshot h = merged_histogram(snap, keep);
  return h.count > 0 ? h.percentile(0.5) : 0.0;
}

// ---------------------------------------------------------------------------
// Single-thread replay of one frame through the sim and runtime layers
// ---------------------------------------------------------------------------

/// One program-frame of a workload frame: the program, its tiling and its
/// build options, exactly as the workload's engines run it.
struct FramePart {
  const stencil::StencilProgram* program;
  runtime::TilerOptions tiling;
  arch::BuildOptions build;
};

struct ReplayNumbers {
  double plan_ms = 0;          ///< plan_tiles, all parts of one frame
  double compile_ms = 0;       ///< mean DesignCache miss (per tile design)
  double lookup_us = 0;        ///< median DesignCache hit
  double construct_us = 0;     ///< median FastSim construction per tile
  double publish_us = 0;       ///< median publish_sim_telemetry per tile
  double run_ms = 0;           ///< FastSim::run per frame, rank-scatter sink
  double sink_ms = 0;          ///< median of (sink - no sink) run per frame
  /// Median of 1 - (replayed frame, lookup..publish) / (same frame on a
  /// 1-worker FrameEngine), paired within each repetition.
  double overhead_fraction = 0;
  std::int64_t cycles = 0;     ///< per frame
  std::int64_t datapath_cycles = 0;
  std::int64_t kernel_fires = 0;
  bool outputs_ok = true;

  /// Divides the per-frame figures by `n` (n program-frames per frame).
  void per_part(double n) {
    plan_ms /= n;
    run_ms /= n;
    sink_ms /= n;
    cycles = std::llround(static_cast<double>(cycles) / n);
    datapath_cycles = std::llround(static_cast<double>(datapath_cycles) / n);
    kernel_fires = std::llround(static_cast<double>(kernel_fires) / n);
  }
};

/// Replays one frame tile by tile in the calling thread, timing each public
/// layer call, and runs the same frame on a 1-worker FrameEngine. Each
/// repetition runs the replay with the rank-scatter sink, the replay with
/// no sink and the engine frame, in rotating order, so load drift on the
/// host hits all three alike. The replay feeds every tile synthetic DRAM
/// data (the engine's default feed); when `expect` is non-null it holds the
/// golden checksum per part and the stitched replay outputs are checked.
ReplayNumbers replay_frame(const std::vector<FramePart>& parts,
                           std::uint64_t seed, int reps, SpanLog& spans,
                           const std::vector<std::uint64_t>* expect) {
  ReplayNumbers out;
  const std::uint64_t root = spans.next_id();
  const std::int64_t root_start = now_ns();

  // Tiler.
  std::vector<runtime::TilePlan> plans(parts.size());
  std::vector<double> plan_ms;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t p = 0; p < parts.size(); ++p) {
      ScopedSpan s(spans, "runtime.plan_tiles", root);
      plans[p] = runtime::plan_tiles(*parts[p].program, parts[p].tiling);
    }
    plan_ms.push_back((now_ns() - t0) * 1e-6);
  }
  out.plan_ms = median(plan_ms);

  // Design cache: the first lookup of each tile design compiles it.
  obs::Registry scratch;
  runtime::DesignCache cache(1 << 16, &scratch, "perfbench");
  std::vector<double> compile_ms;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const runtime::Tile& tile : plans[p].tiles) {
      const std::int64_t before = cache.stats().misses;
      const std::int64_t t0 = now_ns();
      cache.get_or_compile(*tile.program, parts[p].build);
      const std::int64_t t1 = now_ns();
      spans.add("runtime.cache.get_or_compile", t0, t1, root);
      if (cache.stats().misses > before) compile_ms.push_back((t1 - t0) * 1e-6);
    }
  }
  out.compile_ms = mean(compile_ms);

  // The same frame on warm 1-worker engines, one per part.
  obs::Registry engine_registry;
  std::vector<std::unique_ptr<runtime::FrameEngine>> engines;
  std::vector<std::shared_ptr<const runtime::TilePlan>> engine_plans;
  for (const FramePart& part : parts) {
    runtime::EngineOptions eo;
    eo.threads = 1;
    eo.metrics = &engine_registry;
    eo.tile_shape = part.tiling.tile_shape;
    eo.build = part.build;
    engines.push_back(std::make_unique<runtime::FrameEngine>(eo));
    engine_plans.push_back(engines.back()->plan_for(*part.program));
    engines.back()->submit(engine_plans.back(), seed).wait();  // warm-up
  }

  std::vector<double> lookup_us, construct_us, publish_us;
  std::vector<double> run_ms, sink_ms, frame_ms, engine_ms, overhead;
  // One replayed frame; returns the summed FastSim::run time in ms.
  auto replay = [&](bool sink) {
    double run_total = 0;
    std::int64_t cycles = 0, dp_cycles = 0, fires = 0;
    const std::int64_t f0 = now_ns();
    for (std::size_t p = 0; p < parts.size(); ++p) {
      std::vector<double> frame(
          static_cast<std::size_t>(plans[p].total_outputs), 0.0);
      for (const runtime::Tile& tile : plans[p].tiles) {
        std::int64_t t0 = now_ns();
        const std::shared_ptr<const runtime::CachedDesign> entry =
            cache.get_or_compile(*tile.program, parts[p].build);
        std::int64_t t1 = now_ns();
        if (sink) lookup_us.push_back((t1 - t0) * 1e-3);
        sim::SimOptions so;
        so.backend = sim::SimBackend::kFast;
        so.seed = seed;
        so.record_outputs = false;
        t0 = now_ns();
        sim::FastSim fast(*tile.program, entry->design, entry->plan, so);
        double* const outputs = frame.data();
        const std::int64_t* const ranks = tile.output_ranks.data();
        std::size_t k = 0;
        if (sink) {
          fast.set_output_callback(
              [outputs, ranks, &k](const poly::IntVec&, double value) {
                outputs[ranks[k++]] = value;
              });
        }
        t1 = now_ns();
        if (sink) construct_us.push_back((t1 - t0) * 1e-3);
        spans.add("sim.construct", t0, t1, root);
        t0 = now_ns();
        const sim::SimResult res = fast.run();
        t1 = now_ns();
        run_total += (t1 - t0) * 1e-6;
        spans.add(sink ? "sim.run" : "sim.run.nosink", t0, t1, root);
        cycles += res.cycles;
        dp_cycles += res.datapath_cycles;
        fires += res.kernel_fires;
        if (sink) {
          t0 = now_ns();
          runtime::publish_sim_telemetry(scratch, entry->design, res);
          t1 = now_ns();
          publish_us.push_back((t1 - t0) * 1e-3);
          spans.add("runtime.publish_sim_telemetry", t0, t1, root);
        }
      }
      if (sink && expect &&
          serve::output_checksum(frame) != (*expect)[p]) {
        out.outputs_ok = false;
      }
    }
    if (sink) {
      frame_ms.push_back((now_ns() - f0) * 1e-6);
      out.cycles = cycles;
      out.datapath_cycles = dp_cycles;
      out.kernel_fires = fires;
    }
    return run_total;
  };
  auto engine_frame = [&] {
    ScopedSpan s(spans, "runtime.engine.frame_1worker", root);
    const std::int64_t t0 = now_ns();
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (!engines[p]->submit(engine_plans[p], seed).wait().ok()) {
        out.outputs_ok = false;
      }
    }
    engine_ms.push_back((now_ns() - t0) * 1e-6);
  };

  for (int r = 0; r < reps; ++r) {
    double with_sink = 0, without_sink = 0;
    for (int step = 0; step < 3; ++step) {
      switch ((r + step) % 3) {
        case 0: with_sink = replay(true); break;
        case 1: without_sink = replay(false); break;
        default: engine_frame(); break;
      }
    }
    run_ms.push_back(with_sink);
    sink_ms.push_back(with_sink - without_sink);
    overhead.push_back(1.0 - frame_ms.back() / engine_ms.back());
  }
  out.lookup_us = median(lookup_us);
  out.construct_us = median(construct_us);
  out.publish_us = median(publish_us);
  out.run_ms = median(run_ms);
  out.sink_ms = median(sink_ms);
  out.overhead_fraction = median(overhead);
  spans.add("probe.replay", root_start, now_ns(), 0, 0, root);
  return out;
}

// ---------------------------------------------------------------------------
// Workload plumbing
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// What a workload hands back: frame accounting for the result line and
/// the metrics of the requested mode.
struct Outcome {
  Phase total;
  bool correct = true;
  std::vector<Metric> metrics;
};

constexpr int kSetupRounds = 9;
constexpr std::size_t kSetupCpus = 8;
constexpr int kReplayReps = 11;

/// The CPUs the process may run on; empty when the mask cannot be read.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> allowed;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) allowed.push_back(c);
    }
  }
  return allowed;
}

/// Up to kSetupCpus of the CPUs the process may run on, evenly spaced; {-1}
/// (no pinning) when the affinity mask cannot be read.
std::vector<int> setup_cpus() {
  const std::vector<int> allowed = allowed_cpus();
  if (allowed.empty()) return {-1};
  std::vector<int> cpus;
  const std::size_t n = std::min(allowed.size(), kSetupCpus);
  for (std::size_t i = 0; i < n; ++i) {
    cpus.push_back(allowed[i * allowed.size() / n]);
  }
  return cpus;
}

/// Times one set-up (construction + first design compile) as the first
/// set-up of its own process: a child forked while the benchmark is still
/// single-threaded and before it computes the goldens, so it starts as
/// cold as a fresh process. The child is pinned to `cpu` (-1: not pinned),
/// reports its time through a pipe and exits without tearing down. A
/// set-up runs in the calling thread; the workers it starts only wait.
template <typename Make>
double cold_setup_on(Make& make, int cpu) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    double s = -1;
    try {
      const std::int64_t t0 = now_ns();
      const auto kept = make();
      s = seconds_since(t0);
    } catch (...) {
    }
    const bool sent = s >= 0 && write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = 0;
  const ssize_t got = read(fds[0], &s, sizeof s);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof s) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a cold set-up failed");
  }
  return s;
}

/// setup_s: the median over kSetupRounds rounds of the mean cold set-up
/// time across setup_cpus(), one cold set-up pinned to each CPU per round.
/// The CPUs of a shared host differ in speed from moment to moment (the
/// same set-up took 1.4 ms on two vCPUs and 2.2 ms on the other two), and
/// a plain median of the set-ups jumps between those speeds as the number
/// of slow CPUs changes; the mean over the CPUs follows it smoothly.
template <typename Make>
double cold_setup_s(Make make) {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& t :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  if (threads != 1) {
    throw std::runtime_error("cold set-ups must fork a single-threaded process");
  }
  std::fflush(nullptr);
  const std::vector<int> cpus = setup_cpus();
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    std::vector<double> times;
    for (const int cpu : cpus) times.push_back(cold_setup_on(make, cpu));
    rounds.push_back(mean(times));
  }
  return median(rounds);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Keeps every CPU the process may run on from halting while it lives: one
/// thread per CPU, pinned there at SCHED_IDLE, spins, and the kernel hands
/// the CPU to any ordinary thread the moment it wakes. The guest kernel
/// halts idle vCPUs without polling first (no cpuidle driver), and on a
/// shared host waking a halted vCPU took anywhere from microseconds to
/// milliseconds with the other tenants' load. That wait landed in every
/// hand-off between serve_mixed's threads, which sleep between requests:
/// four runs read p50/p95 spreads of 0.64/1.61 without the spinners and
/// 0.17/0.27 with them, interleaved in the same minutes.
///
/// Only serve_mixed uses it. With the spinners every CPU looks fully used,
/// and the scheduler (probably its utilisation-limited idle-CPU search) can
/// leave busy threads stacked on one CPU. In one set of ten runs all four
/// denoise_engine workers shared a single CPU while the spinners held the
/// other three (7.4-9.3 frames/s instead of about 31), and heat_temporal
/// ran three times slower.
class KeepAwake {
 public:
  KeepAwake() {
    for (const int cpu : allowed_cpus()) {
      threads_.emplace_back([this, cpu] { spin(cpu); });
    }
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }

 private:
  void spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // With pid 0 both calls apply to the calling thread only. A spinner
    // that cannot drop to SCHED_IDLE would compete with the program, so it
    // does not spin at all.
    const sched_param none{};
    if (sched_setaffinity(0, sizeof(one), &one) != 0 ||
        sched_setscheduler(0, SCHED_IDLE, &none) != 0) {
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) cpu_relax();
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The instance a run measures, set up in the benchmark's own process.
template <typename Make>
auto setup_instance(Make make, SpanLog& spans) {
  ScopedSpan s(spans, "setup");
  return make();
}

/// The end-to-end metrics of one measured phase.
std::vector<Metric> end_to_end_metrics(const Phase& measured, double setup_s) {
  return {
      {"frames_per_s", measured.frames_per_s(), "1/s"},
      {"frame_p50_ms", percentile(measured.latency_ms, 0.50), "ms"},
      {"frame_p95_ms", percentile(measured.latency_ms, 0.95), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-layer metrics read from the replay probe.
void add_replay_metrics(std::vector<Metric>& m, const ReplayNumbers& r) {
  m.push_back({"sim.run_ms", r.run_ms, "ms"});
  m.push_back({"sim.cycles_per_s",
               ratio(static_cast<double>(r.cycles), r.run_ms * 1e-3, 0.0),
               "1/s"});
  m.push_back({"sim.construct_us", r.construct_us, "us"});
  m.push_back({"sim.sink_ms", r.sink_ms, "ms"});
  m.push_back({"sim.cycles", static_cast<double>(r.cycles), "count"});
  m.push_back({"sim.datapath_cycles", static_cast<double>(r.datapath_cycles),
               "count"});
  m.push_back(
      {"sim.kernel_fires", static_cast<double>(r.kernel_fires), "count"});
  m.push_back({"runtime.cache.lookup_us", r.lookup_us, "us"});
  m.push_back({"runtime.cache.compile_ms", r.compile_ms, "ms"});
  m.push_back({"runtime.tiler.plan_ms", r.plan_ms, "ms"});
  m.push_back({"runtime.telemetry.publish_us", r.publish_us, "us"});
  m.push_back(
      {"runtime.engine.overhead_fraction", r.overhead_fraction, "ratio"});
}

/// Per-layer metrics read from the registry over the traced phase.
void add_registry_metrics(std::vector<Metric>& m,
                          const obs::MetricsSnapshot& snap, double wall_s) {
  const std::int64_t hits = sum_counters(snap, [](const std::string& n) {
    return starts_with(n, "cache.") && ends_with(n, ".hits");
  });
  const std::int64_t misses = sum_counters(snap, [](const std::string& n) {
    return starts_with(n, "cache.") && ends_with(n, ".misses");
  });
  // No lookup at all (pinned designs) counts as no miss.
  m.push_back({"runtime.cache.hit_ratio",
               ratio(static_cast<double>(hits),
                     static_cast<double>(hits + misses), 1.0),
               "ratio"});
  std::size_t workers = 0;
  const std::int64_t busy_us = sum_counters(
      snap,
      [](const std::string& n) {
        return starts_with(n, "engine.") &&
               n.find(".worker.") != std::string::npos &&
               ends_with(n, ".busy_us");
      },
      &workers);
  m.push_back({"runtime.engine.worker_busy_fraction",
               ratio(static_cast<double>(busy_us),
                     static_cast<double>(workers) * wall_s * 1e6, 0.0),
               "ratio"});
  m.push_back({"runtime.engine.tile_latency_us",
               hist_p50(snap,
                        [](const std::string& n) {
                          return starts_with(n, "engine.") &&
                                 ends_with(n, "tile_latency_us");
                        }),
               "us"});
  m.push_back({"pipeline.admission_wait_us",
               hist_p50(snap,
                        [](const std::string& n) {
                          return starts_with(n, "pipeline.") &&
                                 ends_with(n, "admission_wait_us");
                        }),
               "us"});
  m.push_back({"pipeline.edge_ready_us",
               hist_p50(snap,
                        [](const std::string& n) {
                          return starts_with(n, "pipeline.edge.") &&
                                 ends_with(n, ".ready_us");
                        }),
               "us"});
  m.push_back({"pipeline.frame_overlap_us",
               hist_p50(snap,
                        [](const std::string& n) {
                          return starts_with(n, "pipeline.") &&
                                 ends_with(n, "frame_interleave_overlap_us");
                        }),
               "us"});
  const std::int64_t recycled = sum_counters(snap, [](const std::string& n) {
    return ends_with(n, ".slab_recycled");
  });
  const std::int64_t allocated = sum_counters(snap, [](const std::string& n) {
    return ends_with(n, ".slab_allocated");
  });
  m.push_back({"pipeline.slab_recycle_ratio",
               ratio(static_cast<double>(recycled),
                     static_cast<double>(recycled + allocated), 0.0),
               "ratio"});
}

/// Layers a workload does not run report 0: they must not move there.
void add_absent(std::vector<Metric>& m,
                const std::vector<std::pair<const char*, const char*>>& names) {
  for (const auto& [name, unit] : names) m.push_back({name, 0.0, unit});
}

const std::vector<std::pair<const char*, const char*>> kTemporalMetrics = {
    {"temporal.plan_ms", "ms"}, {"temporal.passes_per_frame", "count"}};
const std::vector<std::pair<const char*, const char*>> kServeMetrics = {
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p95", "us"},
    {"serve.design_switches_per_kframe", "count"},
    {"serve.group_size_mean", "count"},
    {"serve.shed_fraction", "ratio"},
    {"bench.generator_late_ms_p95", "ms"}};

/// The measured phase of a traced run: alternating untraced and traced
/// slices (the benchmark's spans off, then on) of equal length, so drift in
/// host load hits both alike. The registry covers every slice.
struct TracedRun {
  Phase untraced, traced;
  double wall_s = 0;  ///< registry reset -> snapshot
  obs::MetricsSnapshot snap;

  Metric overhead() const {
    return {"obs.trace_overhead_fraction",
            1.0 - ratio(traced.frames_per_s(), untraced.frames_per_s(), 1.0),
            "ratio"};
  }

  /// An open loop's rate follows the offered load, so it compares the
  /// median latency instead: 1 - untraced / traced, as rates compare.
  Metric latency_overhead() const {
    return {"obs.trace_overhead_fraction",
            1.0 - ratio(percentile(untraced.latency_ms, 0.50),
                        percentile(traced.latency_ms, 0.50), 1.0),
            "ratio"};
  }
};

constexpr int kTraceSlices = 6;

TracedRun run_traced(const std::function<Phase(double, SpanLog&)>& slice,
                     double seconds, SpanLog& spans, obs::Registry& registry) {
  TracedRun out;
  SpanLog off(false);
  registry.reset();
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kTraceSlices; ++i) {
    const bool traced = i % 2 == 1;
    const Phase p = slice(seconds / kTraceSlices, traced ? spans : off);
    (traced ? out.traced : out.untraced).absorb(p);
  }
  out.wall_s = seconds_since(t0);
  out.snap = registry.snapshot();
  return out;
}

// ---------------------------------------------------------------------------
// denoise_engine: closed loop on one FrameEngine
// ---------------------------------------------------------------------------

struct ClosedLoop {
  runtime::FrameEngine* engine;
  std::shared_ptr<const runtime::TilePlan> plan;
  const std::vector<std::uint64_t>* seeds;
  const Goldens* goldens;
  std::size_t in_flight;
  std::size_t cursor = 0;  ///< next seed index, carried across phases
  std::uint64_t frame_no = 0;

  /// Keeps `in_flight` frames submitted until `seconds` elapse, then
  /// drains. Latency is submit -> resolve, stamped in the resolving worker.
  /// The client holds its previous result until the next one is checked,
  /// so in_flight + 2 frames are alive whenever a frame is submitted: the
  /// peak footprint does not depend on when a worker drops its reference.
  Phase run(double seconds, SpanLog& spans) {
    struct Pending {
      runtime::FrameHandle handle;
      std::uint64_t seed;
      std::uint64_t frame;
      std::int64_t submitted_ns;
      std::shared_ptr<std::atomic<std::int64_t>> resolved_ns;
      std::uint64_t span;
    };
    Phase phase;
    std::deque<Pending> pending;
    runtime::FrameHandle held;
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t last_resolve = t0;

    auto submit_one = [&] {
      Pending p;
      p.seed = (*seeds)[cursor++ % seeds->size()];
      p.frame = ++frame_no;
      p.resolved_ns = std::make_shared<std::atomic<std::int64_t>>(0);
      p.span = spans.next_id();
      runtime::SubmitOptions so;
      so.on_frame = [stamp = p.resolved_ns](const runtime::FrameResult&) {
        stamp->store(now_ns(), std::memory_order_release);
      };
      p.submitted_ns = now_ns();
      p.handle = engine->submit(plan, p.seed, std::move(so));
      spans.add("engine.submit", p.submitted_ns, now_ns(), p.span, p.frame);
      pending.push_back(std::move(p));
    };

    while (pending.size() < in_flight) submit_one();
    while (!pending.empty()) {
      Pending p = std::move(pending.front());
      pending.pop_front();
      const std::int64_t w0 = now_ns();
      const runtime::FrameResult& result = p.handle.wait();
      spans.add("frame.wait", w0, now_ns(), p.span, p.frame);
      // on_frame runs just after waiters are released.
      std::int64_t resolved = 0;
      while ((resolved = p.resolved_ns->load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      if (now_ns() < deadline) submit_one();
      ++phase.attempted;
      {
        ScopedSpan v(spans, "frame.verify", p.span, p.frame);
        const auto g = goldens->find(golden_key(0, p.seed));
        if (result.ok() && g != goldens->end() &&
            serve::output_checksum(result.outputs) == g->second) {
          ++phase.correct;
          phase.add_latency(p.submitted_ns, resolved);
        } else {
          ++phase.failed;
        }
      }
      spans.add_frame("frame", p.submitted_ns, resolved, p.frame, p.span);
      last_resolve = std::max(last_resolve, resolved);
      held = std::move(p.handle);
    }
    phase.wall_s = (last_resolve - t0) * 1e-9;
    return phase;
  }
};

Outcome run_denoise(const Options& opt, SpanLog& spans) {
  constexpr std::int64_t kRows = 768, kCols = 1024, kTileRows = 96;
  const stencil::StencilProgram program = stencil::denoise_2d(kRows, kCols);
  const std::vector<std::uint64_t> seeds = frame_seeds(opt.seed, 8);

  obs::Registry registry;
  runtime::EngineOptions eo;
  eo.threads = 4;
  eo.tile_shape = {kTileRows, 0};
  eo.build.datapath_width = 1;
  eo.metrics = &registry;

  auto make = [&] {
    auto e = std::make_unique<runtime::FrameEngine>(eo);
    ScopedSpan s(spans, "engine.plan_for");
    e->plan_for(program);
    return e;
  };
  const double setup_s = opt.trace ? 0.0 : cold_setup_s(make);

  Goldens goldens;
  for (const std::uint64_t s : seeds) {
    goldens[golden_key(0, s)] =
        serve::output_checksum(stencil::run_golden(program, s).outputs);
  }

  auto engine = setup_instance(make, spans);

  ClosedLoop loop{engine.get(), engine->plan_for(program), &seeds, &goldens,
                  2};
  Outcome out;
  // Warm-up: the cold first frames of the process are not measured.
  const Phase warm = loop.run(1.0, spans);
  out.total.absorb(warm);

  if (!opt.trace) {
    const Phase measured = loop.run(opt.seconds, spans);
    out.total.absorb(measured);
    out.metrics = end_to_end_metrics(measured, setup_s);
    return out;
  }

  const TracedRun traced = run_traced(
      [&](double s, SpanLog& log) { return loop.run(s, log); }, opt.seconds,
      spans, registry);
  out.total.absorb(traced.untraced);
  out.total.absorb(traced.traced);

  const std::vector<std::uint64_t> expect = {
      goldens.at(golden_key(0, seeds[0]))};
  const ReplayNumbers replay =
      replay_frame({{&program, {{kTileRows, 0}}, eo.build}}, seeds[0],
                   kReplayReps, spans, &expect);
  out.correct = replay.outputs_ok;
  add_replay_metrics(out.metrics, replay);
  add_registry_metrics(out.metrics, traced.snap, traced.wall_s);
  add_absent(out.metrics, kTemporalMetrics);
  add_absent(out.metrics, kServeMetrics);
  out.metrics.push_back(traced.overhead());
  return out;
}

// ---------------------------------------------------------------------------
// heat_temporal: TemporalRunner::run_frames fed in fixed-size seed chunks
// ---------------------------------------------------------------------------

Outcome run_heat(const Options& opt, SpanLog& spans) {
  constexpr std::int64_t kRows = 192, kCols = 256, kTileRows = 24;
  constexpr std::size_t kChunk = 8;
  const stencil::StencilProgram base = stencil::heat_2d(kRows, kCols);
  temporal::TemporalConfig config;
  config.timesteps = 8;
  config.block = 4;
  config.boundary = stencil::BoundaryPolicy::kClamp;
  const std::vector<std::uint64_t> seeds = frame_seeds(opt.seed, 16);

  obs::Registry registry;
  temporal::RunnerOptions ro;
  ro.pipeline.threads_per_stage = 1;
  ro.pipeline.tile_shape = {kTileRows, 0};
  ro.pipeline.build.datapath_width = 4;
  ro.pipeline.metrics = &registry;

  auto make = [&] {
    ScopedSpan s(spans, "temporal.TemporalRunner");
    return std::make_unique<temporal::TemporalRunner>(base, config, ro);
  };
  const double setup_s = opt.trace ? 0.0 : cold_setup_s(make);

  Goldens goldens;
  for (const std::uint64_t s : seeds) {
    goldens[golden_key(0, s)] = serve::output_checksum(
        temporal::run_golden_sweeps(base, config, s));
  }

  auto runner = setup_instance(make, spans);
  const std::int64_t passes = runner->schedule().num_passes;

  std::size_t cursor = 0;
  std::uint64_t frame_no = 0;
  auto run_phase = [&](double seconds, SpanLog& log) {
    Phase phase;
    const std::int64_t t0 = now_ns();
    std::int64_t end = t0;
    while (end < t0 + static_cast<std::int64_t>(seconds * 1e9)) {
      std::vector<std::uint64_t> chunk;
      for (std::size_t k = 0; k < kChunk; ++k) {
        chunk.push_back(seeds[cursor++ % seeds.size()]);
      }
      const std::uint64_t first_frame = frame_no + 1;
      frame_no += kChunk;
      const std::int64_t s0 = now_ns();
      const std::vector<temporal::FrameOutcome> outcomes =
          runner->run_frames(chunk);
      end = now_ns();
      const std::uint64_t span =
          log.add("temporal.run_frames", s0, end, 0, first_frame);
      // run_frames returns the whole chunk at once: that is when the
      // caller sees each of its frames resolve.
      for (std::size_t k = 0; k < outcomes.size(); ++k) {
        const temporal::FrameOutcome& o = outcomes[k];
        ScopedSpan v(log, "frame.verify", span, first_frame + k);
        ++phase.attempted;
        const auto g = goldens.find(golden_key(0, chunk[k]));
        if (o.ok() && o.passes_completed == passes && g != goldens.end() &&
            serve::output_checksum(o.outputs) == g->second) {
          ++phase.correct;
          phase.add_latency(s0, end);
        } else {
          ++phase.failed;
        }
      }
    }
    phase.wall_s = (end - t0) * 1e-9;
    return phase;
  };

  Outcome out;
  out.total.absorb(run_phase(1.0, spans));  // warm-up, not measured

  if (!opt.trace) {
    const Phase measured = run_phase(opt.seconds, spans);
    out.total.absorb(measured);
    out.metrics = end_to_end_metrics(measured, setup_s);
    return out;
  }

  const TracedRun traced = run_traced(run_phase, opt.seconds, spans, registry);
  out.total.absorb(traced.untraced);
  out.total.absorb(traced.traced);

  // One frame = every replica stage of every pass, at the runner's tiling.
  const temporal::TemporalSchedule& sched = runner->schedule();
  std::vector<FramePart> parts;
  for (std::int64_t p = 0; p < sched.num_passes; ++p) {
    const temporal::PassShape& shape =
        sched.shapes[sched.pass_shape[static_cast<std::size_t>(p)]];
    for (const pipeline::Stage& stage : shape.graph.stages()) {
      parts.push_back({&stage.program, {{kTileRows, 0}}, ro.pipeline.build});
    }
  }
  const ReplayNumbers replay =
      replay_frame(parts, seeds[0], kReplayReps, spans, nullptr);
  out.correct = replay.outputs_ok;
  add_replay_metrics(out.metrics, replay);
  add_registry_metrics(out.metrics, traced.snap, traced.wall_s);

  std::vector<double> plan_ms;
  for (int r = 0; r < kReplayReps; ++r) {
    ScopedSpan s(spans, "temporal.plan_temporal");
    const std::int64_t t0 = now_ns();
    const temporal::TemporalSchedule plan =
        temporal::plan_temporal(base, config);
    plan_ms.push_back((now_ns() - t0) * 1e-6);
  }
  out.metrics.push_back({"temporal.plan_ms", median(plan_ms), "ms"});
  const std::int64_t frames =
      sum_counters(traced.snap, [](const std::string& n) {
        return starts_with(n, "temporal.") && ends_with(n, ".frames_completed");
      });
  const std::int64_t pass_count =
      sum_counters(traced.snap, [](const std::string& n) {
        return starts_with(n, "temporal.") && ends_with(n, ".passes_completed");
      });
  out.metrics.push_back({"temporal.passes_per_frame",
                         ratio(static_cast<double>(pass_count),
                               static_cast<double>(frames), 0.0),
                         "count"});
  add_absent(out.metrics, kServeMetrics);
  out.metrics.push_back(traced.overhead());
  return out;
}

// ---------------------------------------------------------------------------
// serve_mixed: open-loop Poisson arrivals into a StencilServer
// ---------------------------------------------------------------------------

struct OpenLoopPhase {
  Phase phase;
  std::vector<double> queue_us;
  std::vector<double> late_ms;
  std::int64_t last_resolve_ns = 0;
};

class OpenLoop {
 public:
  static constexpr std::size_t kTenants = 4;

  OpenLoop(serve::StencilServer& server,
           const std::vector<stencil::StencilProgram>& designs,
           const std::vector<std::uint64_t>& seeds, const Goldens& goldens,
           double rate_hz, std::uint64_t seed)
      : server_(server),
        designs_(designs),
        seeds_(seeds),
        goldens_(goldens),
        rate_hz_(rate_hz),
        rng_{seed ^ 0x5eed5eed5eedull} {}

  /// Sends round(rate * seconds) requests whose due times are a Poisson
  /// process conditioned on that count (sorted uniform times over the
  /// phase), each from a random tenant for a random design and seed.
  /// One thread does it all: it spins on the clock, submits each request
  /// when it falls due and, every kPollNs in between, polls the requests
  /// in flight and checks each one that resolved. Latency runs from the
  /// due time to the poll that saw the request resolved. A sleeping
  /// generator woke up to 2.4 ms late at p95 on a shared host, and blocked
  /// waiter threads added their own wake-up to every latency; spinning
  /// takes one vCPU and leaves the others to the server's dispatcher and
  /// its 2 engine workers.
  OpenLoopPhase run(double seconds, SpanLog& spans) {
    const std::size_t n = static_cast<std::size_t>(
        std::llround(rate_hz_ * seconds));
    std::vector<double> offsets(n);
    for (double& o : offsets) o = rng_.uniform() * seconds;
    std::sort(offsets.begin(), offsets.end());
    std::vector<Request> plan(n);
    for (std::size_t i = 0; i < n; ++i) {
      plan[i].tenant = rng_.below(kTenants);
      plan[i].design = rng_.below(designs_.size());
      plan[i].seed = seeds_[rng_.below(seeds_.size())];
      plan[i].frame = ++frame_no_;
    }

    const std::int64_t t0 = now_ns() + 2'000'000;  // 2 ms head start
    for (std::size_t i = 0; i < n; ++i) {
      plan[i].due_ns = t0 + static_cast<std::int64_t>(offsets[i] * 1e9);
    }
    OpenLoopPhase out;
    out.last_resolve_ns = t0;
    std::vector<InFlight> flying;
    std::size_t next = 0;
    std::int64_t last_poll = 0;
    while (next < n || !flying.empty()) {
      const std::int64_t now = now_ns();
      if (next < n && now >= plan[next].due_ns) {
        flying.push_back(submit(plan[next++], now, spans));
        continue;
      }
      if (now - last_poll < kPollNs) {
        cpu_relax();
        continue;
      }
      last_poll = now;
      for (std::size_t i = 0; i < flying.size();) {
        InFlight& f = flying[i];
        if (f.admitted && !f.handle.done()) {
          ++i;
          continue;
        }
        resolve(f, now_ns(), spans, out);
        f = std::move(flying.back());
        flying.pop_back();
      }
    }
    out.phase.wall_s = (out.last_resolve_ns - t0) * 1e-9;
    return out;
  }

 private:
  /// Longest a resolved request waits for the poll that sees it.
  static constexpr std::int64_t kPollNs = 20'000;

  struct Request {
    std::int64_t due_ns = 0;
    std::size_t tenant = 0;
    std::size_t design = 0;
    std::uint64_t seed = 0;
    std::uint64_t frame = 0;
  };
  struct InFlight {
    Request req;
    std::uint64_t span = 0;  ///< id of the request's lifetime span
    std::int64_t sent_ns = 0;
    serve::RequestHandle handle;
    bool admitted = false;
  };

  InFlight submit(const Request& req, std::int64_t now, SpanLog& spans) {
    InFlight f;
    f.req = req;
    f.span = spans.next_id();
    f.sent_ns = now;
    const serve::SubmitResult r =
        server_.submit("tenant" + std::to_string(req.tenant),
                       designs_[req.design].name(), req.seed);
    spans.add("serve.submit", f.sent_ns, now_ns(), f.span, req.frame);
    f.admitted = r.admitted();
    f.handle = r.handle;
    return f;
  }

  /// Accounts one request seen resolved (or shed) at `resolved` and checks
  /// its output against the golden.
  void resolve(InFlight& f, std::int64_t resolved, SpanLog& spans,
               OpenLoopPhase& out) const {
    ++out.phase.attempted;
    out.late_ms.push_back((f.sent_ns - f.req.due_ns) * 1e-6);
    bool ok = false;
    if (f.admitted) {
      ScopedSpan v(spans, "frame.verify", f.span, f.req.frame);
      const runtime::FrameResult& result = f.handle.wait();
      const auto g = goldens_.find(golden_key(f.req.design, f.req.seed));
      ok = result.ok() && g != goldens_.end() &&
           serve::output_checksum(result.outputs) == g->second;
      out.queue_us.push_back(static_cast<double>(f.handle.queue_us()));
    }
    spans.add_frame("request", f.req.due_ns, resolved, f.req.frame, f.span);
    if (ok) {
      ++out.phase.correct;
      out.phase.add_latency(f.req.due_ns, resolved);
      out.last_resolve_ns = std::max(out.last_resolve_ns, resolved);
    } else {
      ++out.phase.failed;
    }
  }

  serve::StencilServer& server_;
  const std::vector<stencil::StencilProgram>& designs_;
  const std::vector<std::uint64_t>& seeds_;
  const Goldens& goldens_;
  double rate_hz_;
  Rng rng_;
  std::uint64_t frame_no_ = 0;
};

Outcome run_serve(const Options& opt, SpanLog& spans) {
  constexpr std::int64_t kRows = 64, kCols = 96, kTileRows = 8;
  // Offered load: about a third of what a shared 4-vCPU host sustains on
  // this mix in its slow phases. Unloaded, it kept up with 800/s and fell
  // behind at 1000/s; while the hypervisor took a quarter of a vCPU or more
  // (steal time), it fell behind at 450/s and latency grew to seconds. At
  // 300/s queueing behind design switches stretched the tail whenever the
  // host slowed; 100/s and 200/s spread no less than 150/s from run to run.
  constexpr double kRateHz = 150.0;
  // Queues deep enough that a host slowed by other load backlogs instead
  // of shedding: a shed request is a failed frame.
  constexpr std::size_t kMaxQueuedPerTenant = 1024;
  const std::vector<stencil::StencilProgram> designs = {
      stencil::blur_2d(kRows, kCols), stencil::jacobi_2d(kRows, kCols)};
  const std::vector<std::uint64_t> seeds = frame_seeds(opt.seed, 16);

  // The design cache holds exactly one design's distinct tile designs, so
  // every design switch evicts and recompiles.
  runtime::TilerOptions tiling{{kTileRows, 0}};
  std::size_t per_design = 0;
  for (const stencil::StencilProgram& p : designs) {
    std::vector<std::string> keys;
    for (const runtime::Tile& t : runtime::plan_tiles(p, tiling).tiles) {
      keys.push_back(runtime::DesignCache::canonical_key(*t.program));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    per_design = std::max(per_design, keys.size());
  }

  obs::Registry registry;
  serve::ServeOptions so;
  so.engine.threads = 2;
  so.engine.tile_shape = {kTileRows, 0};
  so.engine.cache_capacity = per_design;
  so.policy = serve::Policy::kAffinity;
  so.global_queue_limit = OpenLoop::kTenants * kMaxQueuedPerTenant;
  so.metrics = &registry;

  auto make = [&] {
    auto s = std::make_unique<serve::StencilServer>(so);
    for (const stencil::StencilProgram& p : designs) {
      ScopedSpan k(spans, "serve.add_kernel");
      s->add_kernel(p);
    }
    serve::TenantQuota quota;
    quota.max_queued = kMaxQueuedPerTenant;
    for (std::size_t t = 0; t < OpenLoop::kTenants; ++t) {
      s->register_tenant("tenant" + std::to_string(t), quota);
    }
    return s;
  };
  const double setup_s = opt.trace ? 0.0 : cold_setup_s(make);

  Goldens goldens;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    for (const std::uint64_t s : seeds) {
      goldens[golden_key(d, s)] =
          serve::output_checksum(stencil::run_golden(designs[d], s).outputs);
    }
  }

  auto server = setup_instance(make, spans);
  const KeepAwake awake;  // from warm-up to the end of the run

  OpenLoop loop(*server, designs, seeds, goldens, kRateHz, opt.seed);
  Outcome out;
  out.total.absorb(loop.run(1.0, spans).phase);  // warm-up, not measured

  if (!opt.trace) {
    const OpenLoopPhase measured = loop.run(opt.seconds, spans);
    out.total.absorb(measured.phase);
    server->shutdown();
    out.metrics = end_to_end_metrics(measured.phase, setup_s);
    return out;
  }

  std::vector<double> queue_us, late_ms;
  const serve::ServeStats a = server->stats();
  const TracedRun traced = run_traced(
      [&](double s, SpanLog& log) {
        const OpenLoopPhase p = loop.run(s, log);
        queue_us.insert(queue_us.end(), p.queue_us.begin(), p.queue_us.end());
        late_ms.insert(late_ms.end(), p.late_ms.begin(), p.late_ms.end());
        return p.phase;
      },
      opt.seconds, spans, registry);
  const serve::ServeStats b = server->stats();
  out.total.absorb(traced.untraced);
  out.total.absorb(traced.traced);
  server->shutdown();

  const std::vector<std::uint64_t> expect = {
      goldens.at(golden_key(0, seeds[0])), goldens.at(golden_key(1, seeds[0]))};
  std::vector<FramePart> parts;
  for (const stencil::StencilProgram& p : designs) {
    parts.push_back({&p, tiling, so.engine.build});
  }
  ReplayNumbers replay =
      replay_frame(parts, seeds[0], kReplayReps, spans, &expect);
  out.correct = replay.outputs_ok;
  // A serve frame is one design's frame: report per-frame figures.
  replay.per_part(static_cast<double>(parts.size()));
  add_replay_metrics(out.metrics, replay);
  add_registry_metrics(out.metrics, traced.snap, traced.wall_s);
  add_absent(out.metrics, kTemporalMetrics);

  const double completed = static_cast<double>(b.completed - a.completed);
  out.metrics.push_back(
      {"serve.queue_us_p50", percentile(queue_us, 0.50), "us"});
  out.metrics.push_back(
      {"serve.queue_us_p95", percentile(queue_us, 0.95), "us"});
  out.metrics.push_back(
      {"serve.design_switches_per_kframe",
       ratio(1000.0 * static_cast<double>(b.design_switches -
                                          a.design_switches),
             completed, 0.0),
       "count"});
  out.metrics.push_back(
      {"serve.group_size_mean",
       ratio(static_cast<double>(b.admitted - a.admitted),
             static_cast<double>(b.groups - a.groups), 0.0),
       "count"});
  out.metrics.push_back(
      {"serve.shed_fraction",
       ratio(static_cast<double>(b.shed - a.shed),
             static_cast<double>(b.submitted - a.submitted), 0.0),
       "ratio"});
  out.metrics.push_back({"bench.generator_late_ms_p95",
                         percentile(late_ms, 0.95), "ms"});
  out.metrics.push_back(traced.latency_overhead());
  return out;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nupbench: %s\nusage: nupbench --workload "
               "<denoise_engine|heat_temporal|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (std::string(NUPBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "nupbench: refusing to score a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 NUPBENCH_BUILD_TYPE);
    return 3;
  }

  const std::string host = host_fingerprint_json();
  std::ostringstream meta;
  meta << "{\"host\": " << host << ", \"workload\": \""
       << json_escape(opt.workload) << "\", \"seed\": " << opt.seed
       << ", \"seconds\": " << fmt_num(opt.seconds)
       << ", \"trace\": " << (opt.trace ? 1 : 0) << "}";
  std::printf("%s\n", meta.str().c_str());
  std::fflush(stdout);

  SpanLog spans(opt.trace);
  Outcome out;
  const auto ticks0 = cpu_ticks();
  try {
    if (opt.workload == "denoise_engine") {
      out = run_denoise(opt, spans);
    } else if (opt.workload == "heat_temporal") {
      out = run_heat(opt, spans);
    } else if (opt.workload == "serve_mixed") {
      out = run_serve(opt, spans);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nupbench: %s\n", e.what());
    return 1;
  }
  // Timings of runs that share a host depend on this; see README.md.
  const auto ticks1 = cpu_ticks();
  std::fprintf(stderr, "nupbench: host steal time %.3g%% of CPU time\n",
               100.0 * ratio(static_cast<double>(ticks1.first - ticks0.first),
                             static_cast<double>(ticks1.second - ticks0.second),
                             0.0));

  if (opt.trace && !opt.trace_out.empty() &&
      !spans.write(opt.trace_out, meta.str())) {
    std::fprintf(stderr, "nupbench: cannot write %s\n",
                 opt.trace_out.c_str());
    return 1;
  }

  const bool correct = out.correct && out.total.failed == 0 &&
                       out.total.attempted > 0;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.total.attempted
       << ", \"failed\": " << out.total.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line << (i ? ", " : "") << "\"" << m.name
         << "\": {\"value\": " << fmt_num(m.value) << ", \"unit\": \""
         << m.unit << "\"}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return correct ? 0 : 1;
}
