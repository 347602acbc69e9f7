#include "obs/trace.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace nup::obs {

namespace {

using detail::append_json_string;

/// Chrome phase of a trace kind (the kTrace* kinds in declaration order),
/// 0 for the flight recorder's own kinds.
char phase(JournalKind kind) {
  constexpr char kPhases[] = "XiCbestf";
  const int k = static_cast<int>(kind) -
                static_cast<int>(JournalKind::kTraceSpan);
  return k >= 0 && k < 8 ? kPhases[k] : 0;
}

/// Async and flow events pair up by an id, carried in the frame word.
bool has_id(char ph) {
  return ph == 'b' || ph == 'e' || ph == 's' || ph == 't' || ph == 'f';
}

/// Chrome trace timestamps are microseconds; keep ns resolution as a
/// fraction.
void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

const std::string& name_of(const std::vector<std::string>& names,
                           std::uint64_t id) {
  return id < names.size() ? names[id] : names[0];
}

}  // namespace

Tracer::Tracer() : journal_(kRingCapacity), epoch_ns_(Journal::now_ns()) {}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // immortal
  return *tracer;
}

TraceName Tracer::intern(std::string_view name, std::string_view cat) {
  return TraceName{journal_.intern(name), journal_.intern(cat)};
}

std::uint32_t Tracer::intern(std::string_view program) {
  return journal_.intern(program);
}

void Tracer::record(JournalKind kind, std::int64_t ts_ns, TraceName name,
                    std::uint64_t id, std::int64_t value,
                    const TraceArgs& args) noexcept {
  const auto b = static_cast<std::int64_t>(
      name.cat | static_cast<std::uint64_t>(args.program) << 32);
  journal_.record(kind, id, args.stage, args.tile, value, b, name.name,
                  ts_ns);
}

void Tracer::complete(TraceName name, std::int64_t start_ns,
                      std::int64_t end_ns, const TraceArgs& args) {
  if (!enabled()) return;
  record(JournalKind::kTraceSpan, epoch_ns_ + start_ns, name, 0,
         end_ns > start_ns ? end_ns - start_ns : 0, args);
}

void Tracer::set_thread_name(std::string_view name) {
  journal_.set_thread_name(name);
}

std::string Tracer::to_chrome_json() const {
  // recorded() is read first, so a concurrent writer can only make the
  // overwritten count low, never report a loss that did not happen.
  const std::uint64_t recorded = journal_.recorded();
  const std::vector<JournalRecord> events = journal_.snapshot();
  const std::vector<std::string> names = journal_.names();
  const std::vector<std::string> threads = journal_.thread_names();
  const std::int64_t cut = cut_ns_.load(std::memory_order_relaxed);

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto open = [&](char ph) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"";
    out += ph;
    out += "\",\"name\":";
  };
  for (std::size_t t = 0; t < threads.size(); ++t) {
    if (threads[t].empty()) continue;
    open('M');
    out += "\"thread_name\",\"pid\":1,\"tid\":" + std::to_string(t + 1) +
           ",\"args\":{\"name\":";
    append_json_string(out, threads[t]);
    out += "}}";
  }
  for (const JournalRecord& r : events) {
    const char ph = phase(r.kind);
    if (ph == 0 || r.ts_ns <= cut) continue;
    const std::uint64_t cat = static_cast<std::uint64_t>(r.b) & 0xffffffff;
    const std::uint64_t program = static_cast<std::uint64_t>(r.b) >> 32;
    open(ph);
    append_json_string(out, r.name);
    if (cat != 0) {
      out += ",\"cat\":";
      append_json_string(out, name_of(names, cat));
    }
    out += ",\"pid\":1,\"tid\":" + std::to_string(r.thread + 1) + ",\"ts\":";
    append_us(out, r.ts_ns - epoch_ns_);
    if (ph == 'X') {
      out += ",\"dur\":";
      append_us(out, r.a);
    }
    if (has_id(ph)) {
      // The flow end binds to its enclosing slice ("bp":"e") so the arrow
      // lands on the span that was open when it was recorded.
      out += ",\"id\":\"" + std::to_string(r.frame) + '"';
      if (ph == 'f') out += ",\"bp\":\"e\"";
    }
    std::string args;
    if (ph == 'C') {
      args = ",\"value\":" + std::to_string(r.a);
    } else {
      if (ph == 'b') {
        args += ",\"seed\":" + std::to_string(static_cast<std::uint64_t>(r.a));
      }
      if (r.stage >= 0) args += ",\"stage\":" + std::to_string(r.stage);
      if (r.tile >= 0) args += ",\"tile\":" + std::to_string(r.tile);
      if (program != 0) {
        args += ",\"program\":";
        append_json_string(args, name_of(names, program));
      }
    }
    if (!args.empty()) {
      args[0] = '{';
      out += ",\"args\":" + args + '}';
    } else if (ph == 'i') {
      out += ",\"s\":\"t\"";
    }
    out += '}';
  }
  const std::uint64_t retained = events.size();
  out += "],\"otherData\":{\"recorded\":" + std::to_string(recorded) +
         ",\"overwritten\":" +
         std::to_string(recorded > retained ? recorded - retained : 0) +
         "}}";
  return out;
}

void Tracer::clear() {
  cut_ns_.store(Journal::now_ns(), std::memory_order_relaxed);
}

std::size_t Tracer::event_count() const {
  const std::int64_t cut = cut_ns_.load(std::memory_order_relaxed);
  std::size_t n = 0;
  for (const JournalRecord& r : journal_.snapshot()) {
    if (r.ts_ns > cut) ++n;
  }
  return n;
}

std::uint64_t Tracer::overwritten() const {
  const std::uint64_t recorded = journal_.recorded();
  const std::uint64_t retained = journal_.snapshot().size();
  return recorded > retained ? recorded - retained : 0;
}

// ---- Span --------------------------------------------------------------

Span::Span(Tracer& tracer, TraceName name, const TraceArgs& args)
    : tracer_(tracer), name_(name), args_(args), active_(tracer.enabled()) {
  if (active_) start_ns_ = Journal::now_ns();
}

void Span::end() {
  if (!active_) return;
  active_ = false;
  // Record directly, not via complete(): a span live at construction must
  // close even when the tracer was disabled mid-flight, or the trace
  // would end with a dangling open region.
  const std::int64_t dur = Journal::now_ns() - start_ns_;
  tracer_.record(JournalKind::kTraceSpan, start_ns_, name_, 0,
                 dur > 0 ? dur : 0, args_);
}

Span::~Span() { end(); }

}  // namespace nup::obs
