#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/table.hpp"

namespace nup::obs {

namespace {

/// Stable per-thread shard index: threads are striped round-robin over the
/// shards, so a fixed worker pool lands on distinct cache lines.
std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx % Counter::kShards;
}

}  // namespace

void detail::append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// ---- Counter -----------------------------------------------------------

void Counter::add(std::int64_t n) noexcept {
#ifndef NUP_OBS_DISABLE
  shards_[shard_index()].n.fetch_add(n, std::memory_order_relaxed);
#else
  (void)n;
#endif
}

std::int64_t Counter::value() const noexcept {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.n.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (Shard& shard : shards_) shard.n.store(0, std::memory_order_relaxed);
}

// ---- Gauge -------------------------------------------------------------

void Gauge::set(std::int64_t v) noexcept {
#ifndef NUP_OBS_DISABLE
  v_.store(v, std::memory_order_relaxed);
#else
  (void)v;
#endif
}

void Gauge::add(std::int64_t d) noexcept {
#ifndef NUP_OBS_DISABLE
  v_.fetch_add(d, std::memory_order_relaxed);
#else
  (void)d;
#endif
}

void Gauge::update_max(std::int64_t v) noexcept {
#ifndef NUP_OBS_DISABLE
  std::int64_t seen = v_.load(std::memory_order_relaxed);
  while (v > seen &&
         !v_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
#else
  (void)v;
#endif
}

std::int64_t Gauge::value() const noexcept {
  return v_.load(std::memory_order_relaxed);
}

void Gauge::reset() noexcept { v_.store(0, std::memory_order_relaxed); }

// ---- Histogram ---------------------------------------------------------

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1),
      min_(std::numeric_limits<std::int64_t>::max()),
      max_(std::numeric_limits<std::int64_t>::min()) {}

std::vector<std::int64_t> Histogram::default_bounds() {
  std::vector<std::int64_t> bounds;
  for (std::int64_t decade = 1; decade <= 100'000'000; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(2 * decade);
    bounds.push_back(5 * decade);
  }
  return bounds;
}

void Histogram::observe(std::int64_t v) noexcept {
#ifndef NUP_OBS_DISABLE
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::int64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
#else
  (void)v;
#endif
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const std::atomic<std::int64_t>& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count > 0 ? min_.load(std::memory_order_relaxed) : 0;
  s.max = s.count > 0 ? max_.load(std::memory_order_relaxed) : 0;
  return s;
}

void Histogram::reset() noexcept {
  for (std::atomic<std::int64_t>& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::int64_t>::max(),
             std::memory_order_relaxed);
  max_.store(std::numeric_limits<std::int64_t>::min(),
             std::memory_order_relaxed);
}

double Histogram::Snapshot::mean() const {
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
}

double Histogram::Snapshot::percentile(double p) const {
  if (count <= 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(count);
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::int64_t before = seen;
    seen += counts[b];
    if (static_cast<double>(seen) < rank) continue;
    // Interpolate inside bucket b, with the span clamped to the observed
    // [min, max]. The overflow (top) bucket in particular holds values in
    // [max(last finite bound, min), max]: anchoring its low edge at the
    // last finite bound would skew every percentile landing there toward
    // the bound instead of the data (a bucket containing observations
    // always satisfies lo <= hi after clamping).
    const double lo_bound = b == 0 ? static_cast<double>(min)
                                   : static_cast<double>(bounds[b - 1]);
    const double hi_bound = b < bounds.size() ? static_cast<double>(bounds[b])
                                              : static_cast<double>(max);
    const double lo = std::max(lo_bound, static_cast<double>(min));
    const double hi = std::min(hi_bound, static_cast<double>(max));
    const double fraction =
        counts[b] > 0
            ? (rank - static_cast<double>(before)) /
                  static_cast<double>(counts[b])
            : 0.0;
    const double value = lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0);
    return std::clamp(value, static_cast<double>(min),
                      static_cast<double>(max));
  }
  return static_cast<double>(max);
}

// ---- Registry ----------------------------------------------------------

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge()))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<std::int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::default_bounds();
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::move(bounds))))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.samples.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kCounter;
    s.name = name;
    s.value = counter->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kGauge;
    s.name = name;
    s.value = gauge->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, hist] : histograms_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kHistogram;
    s.name = name;
    s.hist = hist->snapshot();
    s.value = s.hist.count;
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, hist] : histograms_) hist->reset();
}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // immortal
  return *registry;
}

// ---- MetricsSnapshot rendering -----------------------------------------

std::int64_t MetricsSnapshot::value_of(std::string_view name,
                                       std::int64_t fallback) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return s.value;
  }
  return fallback;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  const auto emit_kind = [&](MetricSample::Kind kind, const char* key,
                             bool first_section) {
    if (!first_section) out << ",";
    out << '"' << key << "\":{";
    bool first = true;
    for (const MetricSample& s : samples) {
      if (s.kind != kind) continue;
      if (!first) out << ',';
      first = false;
      std::string name;
      detail::append_json_string(name, s.name);
      out << name << ':';
      if (kind == MetricSample::Kind::kHistogram) {
        const Histogram::Snapshot& h = s.hist;
        out << "{\"count\":" << h.count << ",\"sum\":" << h.sum
            << ",\"min\":" << h.min << ",\"max\":" << h.max << ",\"mean\":"
            << h.mean() << ",\"p50\":" << h.percentile(0.50)
            << ",\"p95\":" << h.percentile(0.95)
            << ",\"p99\":" << h.percentile(0.99) << '}';
      } else {
        out << s.value;
      }
    }
    out << '}';
  };
  out << '{';
  emit_kind(MetricSample::Kind::kCounter, "counters", true);
  emit_kind(MetricSample::Kind::kGauge, "gauges", false);
  emit_kind(MetricSample::Kind::kHistogram, "histograms", false);
  out << '}';
  return out.str();
}

std::string MetricsSnapshot::to_table() const {
  TextTable table("metrics");
  table.set_header(
      {"metric", "kind", "value", "mean", "p50", "p95", "p99", "max"});
  for (const MetricSample& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        table.add_row({s.name, "counter", cell(s.value), "", "", "", "", ""});
        break;
      case MetricSample::Kind::kGauge:
        table.add_row({s.name, "gauge", cell(s.value), "", "", "", "", ""});
        break;
      case MetricSample::Kind::kHistogram:
        table.add_row({s.name, "hist", cell(s.hist.count),
                       cell(s.hist.mean(), 1), cell(s.hist.percentile(0.50), 1),
                       cell(s.hist.percentile(0.95), 1),
                       cell(s.hist.percentile(0.99), 1), cell(s.hist.max)});
        break;
    }
  }
  return table.to_string();
}

}  // namespace nup::obs
