#include "runtime/design_cache.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nup::runtime {

namespace {

void append_constraint(std::ostringstream& out, const poly::Constraint& c) {
  for (std::size_t d = 0; d < c.expr.coeffs.size(); ++d) {
    out << (d > 0 ? "," : "") << c.expr.coeffs[d];
  }
  out << ':' << c.expr.constant;
}

/// Order-insensitive serialization of one polyhedron: constraint strings
/// sorted, so the same set written in a different order keys identically.
std::string piece_key(const poly::Polyhedron& piece) {
  std::vector<std::string> parts;
  parts.reserve(piece.constraints().size());
  for (const poly::Constraint& c : piece.constraints()) {
    std::ostringstream one;
    append_constraint(one, c);
    parts.push_back(one.str());
  }
  std::sort(parts.begin(), parts.end());
  std::ostringstream out;
  out << '{';
  for (const std::string& p : parts) out << p << ';';
  out << '}';
  return out.str();
}

}  // namespace

std::string DesignCache::canonical_key(const stencil::StencilProgram& program,
                                       const arch::BuildOptions& build) {
  std::ostringstream out;
  // v2: datapath_width joined the build section -- a W=8 plan must never
  // alias a W=1 plan of the same program (the designs differ in padding,
  // physical mapping and the simulator's batch width).
  out << "v2|d=" << program.dim() << "|b=" << build.exact_sizing << ','
      << build.exact_streaming << ',' << build.register_max_depth << ','
      << build.shift_register_max_depth << ','
      << build.datapath_width << "|D=";
  // Pieces sorted by serialized form: a union written in a different piece
  // order is the same domain for every downstream consumer.
  std::vector<std::string> pieces;
  pieces.reserve(program.iteration().pieces().size());
  for (const poly::Polyhedron& piece : program.iteration().pieces()) {
    pieces.push_back(piece_key(piece));
  }
  std::sort(pieces.begin(), pieces.end());
  for (const std::string& p : pieces) out << p;
  // Inputs and references stay in source order: the flattened reference
  // order is the kernel's argument order, which ref_order maps onto.
  out << "|A=";
  for (const stencil::InputArray& input : program.inputs()) {
    out << '[';
    for (const stencil::ArrayReference& ref : input.refs) {
      out << '(';
      for (std::size_t d = 0; d < ref.offset.size(); ++d) {
        out << (d > 0 ? "," : "") << ref.offset[d];
      }
      out << ')';
    }
    out << ']';
  }
  return out.str();
}

std::uint64_t DesignCache::fingerprint(const stencil::StencilProgram& program,
                                       const arch::BuildOptions& build) {
  const std::string key = canonical_key(program, build);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

DesignCache::DesignCache(std::size_t capacity, obs::Registry* registry,
                         const std::string& label)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  obs::Registry& reg = registry ? *registry : obs::Registry::global();
  const std::string prefix =
      label.empty() ? std::string("cache.") : "cache." + label + ".";
  m_hits_ = &reg.counter(prefix + "hits");
  m_misses_ = &reg.counter(prefix + "misses");
  m_inserts_ = &reg.counter(prefix + "inserts");
  m_evictions_ = &reg.counter(prefix + "evictions");
  m_eviction_skips_ = &reg.counter(prefix + "eviction_skips");
  m_pins_ = &reg.counter(prefix + "pins");
  m_unpins_ = &reg.counter(prefix + "unpins");
  m_pinned_ = &reg.gauge(prefix + "pinned");
  m_entries_ = &reg.gauge(prefix + "entries");
  m_compile_us_ = &reg.histogram(prefix + "compile_us");
  t_compile_ = obs::Tracer::global().intern("design-compile", "cache");
}

std::list<DesignCache::Entry>::iterator
DesignCache::lookup_or_compile_locked(const stencil::StencilProgram& program,
                                      const arch::BuildOptions& build) {
  std::string key = canonical_key(program, build);
  const auto found = index_.find(key);
  if (found != index_.end()) {
    ++stats_.hits;
    m_hits_->inc();
    lru_.splice(lru_.begin(), lru_, found->second);  // mark most recent
    return found->second;
  }

  ++stats_.misses;
  m_misses_->inc();
  auto entry = std::make_shared<CachedDesign>();
  entry->fingerprint = fingerprint(program, build);

  // Miss path: microarchitecture generation + row-program compilation,
  // recorded as one "design-compile" span and a latency observation.
  obs::Tracer& tracer = obs::Tracer::global();
  obs::TraceArgs span_args;
  if (tracer.enabled()) span_args.program = tracer.intern(program.name());
  obs::Span span(tracer, t_compile_, span_args);
  const auto t0 = std::chrono::steady_clock::now();
  entry->design = arch::build_design(program, build);
  entry->plan = sim::compile_fast_plan(program, entry->design);
  const auto t1 = std::chrono::steady_clock::now();
  span.end();
  m_compile_us_->observe(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());

  ++stats_.inserts;
  m_inserts_->inc();
  lru_.push_front(Entry{key, std::move(entry), 0});
  index_.emplace(std::move(key), lru_.begin());
  evict_locked();
  stats_.entries = lru_.size();
  m_entries_->set(static_cast<std::int64_t>(lru_.size()));
  return lru_.begin();
}

void DesignCache::evict_locked() {
  while (lru_.size() > capacity_) {
    // LRU sweep from the tail; pinned entries are stepped over (and the
    // skip counted) rather than dropped. All-pinned means the cache is
    // allowed to exceed capacity -- that is the pin contract.
    auto victim = lru_.end();
    for (auto it = std::prev(lru_.end()); it != lru_.begin(); --it) {
      if (it->pins == 0) {
        victim = it;
        break;
      }
      ++stats_.eviction_skips;
      m_eviction_skips_->inc();
    }
    if (victim == lru_.end()) break;  // every entry pinned
    index_.erase(victim->key);
    lru_.erase(victim);
    ++stats_.evictions;
    m_evictions_->inc();
  }
}

std::shared_ptr<const CachedDesign> DesignCache::get_or_compile(
    const stencil::StencilProgram& program,
    const arch::BuildOptions& build) {
  std::lock_guard<std::mutex> lock(mu_);
  return lookup_or_compile_locked(program, build)->value;
}

std::shared_ptr<const CachedDesign> DesignCache::pin(
    const stencil::StencilProgram& program,
    const arch::BuildOptions& build) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = lookup_or_compile_locked(program, build);
  ++stats_.pins;
  m_pins_->inc();
  if (it->pins++ == 0) {
    ++stats_.pinned;
    m_pinned_->set(static_cast<std::int64_t>(stats_.pinned));
  }
  return it->value;
}

void DesignCache::unpin(const stencil::StencilProgram& program,
                        const arch::BuildOptions& build) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto found = index_.find(canonical_key(program, build));
  if (found == index_.end() || found->second->pins == 0) return;
  ++stats_.unpins;
  m_unpins_->inc();
  if (--found->second->pins == 0) {
    --stats_.pinned;
    m_pinned_->set(static_cast<std::int64_t>(stats_.pinned));
    evict_locked();  // pressure deferred by the pin applies now
    stats_.entries = lru_.size();
    m_entries_->set(static_cast<std::int64_t>(lru_.size()));
  }
}

DesignCacheStats DesignCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DesignCacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

void DesignCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
  stats_.pinned = 0;
  m_pinned_->set(0);
  m_entries_->set(0);
}

}  // namespace nup::runtime
