// Span tracer: disabled-by-default inertness, multi-threaded recording into
// journal rings, and the Chrome trace_event JSON export consumed by
// chrome://tracing.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <regex>
#include <thread>
#include <vector>

namespace nup::obs {
namespace {

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  tracer.complete(tracer.intern("a", "t"), 0, 100);
  tracer.instant(tracer.intern("b", "t"));
  tracer.counter(tracer.intern("c", "counter"), 1);
  { Span span(tracer, tracer.intern("d", "task")); }
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_NE(tracer.to_chrome_json().find("\"traceEvents\""),
            std::string::npos);
}

TEST(Tracer, SpansFromManyThreadsAllExport) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 50;
  const TraceName tile = tracer.intern("tile", "engine");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, tile, t] {
      tracer.set_thread_name("worker-" + std::to_string(t));
      for (int i = 0; i < kSpansEach; ++i) {
        Span span(tracer, tile);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracer.event_count(),
            static_cast<std::size_t>(kThreads * kSpansEach));

  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"tile\""), std::string::npos);
  EXPECT_NE(json.find("worker-0"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Count complete events: one per span.
  std::size_t spans = 0;
  for (std::size_t at = json.find("\"ph\":\"X\"");
       at != std::string::npos; at = json.find("\"ph\":\"X\"", at + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads * kSpansEach));
}

TEST(Tracer, InstantCounterAndArgs) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant(tracer.intern("frame.completed", "engine"));
  tracer.counter(tracer.intern("engine.queue_depth", "counter"), 17);
  TraceArgs args;
  args.tile = 3;
  tracer.complete(tracer.intern("tile", "engine"), 1000, 5000, args);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("17"), std::string::npos);
  EXPECT_NE(json.find("\"tile\":3"), std::string::npos);
}

TEST(Tracer, SpanEndIsIdempotent) {
  Tracer tracer;
  tracer.set_enabled(true);
  Span span(tracer, tracer.intern("once", "task"));
  span.end();
  span.end();  // second end and the destructor add nothing
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, SpanCapturesEnabledAtConstruction) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span span(tracer, tracer.intern("a", "task"));
    tracer.set_enabled(false);  // span was live at construction: records
  }
  EXPECT_EQ(tracer.event_count(), 1u);
  {
    Span span(tracer, tracer.intern("b", "task"));  // disabled: inert
    tracer.set_enabled(true);
  }
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, ClearDropsEventsKeepsThreads) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_thread_name("main-thread");
  tracer.instant(tracer.intern("x", "t"));
  ASSERT_EQ(tracer.event_count(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_NE(tracer.to_chrome_json().find("main-thread"),
            std::string::npos);
}

TEST(Tracer, TimestampsAreMicrosecondsFromEpoch) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.complete(tracer.intern("t", "c"), 1500, 4500);  // 1.5 us, dur 3
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":3.000"), std::string::npos) << json;
}

TEST(Tracer, AsyncEventsCarryTheirId) {
  Tracer tracer;
  tracer.set_enabled(true);
  const TraceName frame = tracer.intern("frame", "engine");
  tracer.async_begin(frame, 42, 7);
  tracer.async_end(frame, 42);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"42\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":7"), std::string::npos);
}

TEST(Tracer, FlowEventsBindBackwards) {
  // One frame's causal lane: start, a step per tile, and an end whose
  // binding point is "enclosing slice end" so Perfetto attaches the last
  // arrow to the slice it was emitted from.
  Tracer tracer;
  tracer.set_enabled(true);
  const TraceName frame = tracer.intern("frame", "pipeline");
  tracer.flow_start(frame, 9);
  tracer.flow_step(frame, 9);
  tracer.flow_end(frame, 9);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"9\""), std::string::npos);
  // Only the flow end carries the binding point.
  const std::size_t at = json.find("\"ph\":\"f\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\"", at), std::string::npos);
  std::size_t bp_count = 0;
  for (std::size_t p = json.find("\"bp\":\"e\""); p != std::string::npos;
       p = json.find("\"bp\":\"e\"", p + 1)) {
    ++bp_count;
  }
  EXPECT_EQ(bp_count, 1u);
}

TEST(Tracer, FlowAndAsyncDisabledAreInert) {
  Tracer tracer;
  const TraceName a = tracer.intern("a", "c");
  const TraceName f = tracer.intern("f", "c");
  tracer.async_begin(a, 1, 0);
  tracer.async_end(a, 1);
  tracer.flow_start(f, 2);
  tracer.flow_step(f, 2);
  tracer.flow_end(f, 2);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, ConcurrentRecordExportAndClear) {
  // Workers emit spans and flow events while another thread exports and
  // clears: the TSan job fails this test on any locking mistake.
  Tracer tracer;
  tracer.set_enabled(true);
  std::atomic<bool> stop{false};
  const TraceName tile = tracer.intern("tile", "engine");
  const TraceName frame = tracer.intern("frame", "engine");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, tile, frame, t] {
      for (int i = 0; i < 2000; ++i) {
        Span span(tracer, tile);
        tracer.flow_step(frame, static_cast<std::uint64_t>(t * 2000 + i));
      }
    });
  }
  std::thread exporter([&tracer, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = tracer.to_chrome_json();
      ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
      tracer.clear();
    }
  });
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  exporter.join();
}

TEST(Tracer, DisabledTracerAllocatesNoRing) {
  Tracer tracer;
  std::thread worker([&tracer] {
    tracer.set_thread_name("idle-worker");
    tracer.instant(tracer.intern("x", "t"));
    { Span span(tracer, tracer.intern("y", "t")); }
  });
  worker.join();
  tracer.set_thread_name("main-thread");
  EXPECT_EQ(tracer.capacity_bytes(), 0u);

  // The first record while enabled allocates the calling thread's ring,
  // which carries the name registered before it existed.
  tracer.set_enabled(true);
  tracer.instant(tracer.intern("x", "t"));
  EXPECT_EQ(tracer.capacity_bytes(), Tracer::kRingCapacity * 64);
  EXPECT_NE(tracer.to_chrome_json().find("main-thread"), std::string::npos);
}

TEST(Tracer, RingWrapReportsOverwrittenEvents) {
  Tracer tracer;
  tracer.set_enabled(true);
  const TraceName tick = tracer.intern("tick", "t");
  for (std::size_t i = 0; i < Tracer::kRingCapacity + 10; ++i) {
    tracer.instant(tick);
  }
  EXPECT_EQ(tracer.overwritten(), 10u);
  EXPECT_EQ(tracer.event_count(), Tracer::kRingCapacity);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"otherData\":{\"recorded\":65546,"
                      "\"overwritten\":10}"),
            std::string::npos)
      << json.substr(json.size() - 200);
}

TEST(Tracer, ExportedArgsGolden) {
  // One event of every kind with the args the runtime passes; timestamps
  // (clock reads) are masked, everything else is compared verbatim.
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_thread_name("golden");
  TraceArgs tile;
  tile.tile = 3;
  tile.program = tracer.intern("blur_t3");
  tracer.complete(tracer.intern("tile", "engine"), 1000, 3500, tile);
  TraceArgs compile;
  compile.program = tracer.intern("blur");
  tracer.complete(tracer.intern("design-compile", "cache"), 4000, 5000,
                  compile);
  TraceArgs release;
  release.stage = 1;
  release.tile = 4;
  tracer.instant(tracer.intern("pipeline.release", "pipeline"), release);
  tracer.instant(tracer.intern("frame.completed", "engine"));
  tracer.counter(tracer.intern("engine.queue_depth", "counter"), 5);
  const TraceName frame = tracer.intern("frame", "frame");
  tracer.async_begin(frame, 42, 7);
  tracer.flow_start(frame, 42);
  tracer.flow_step(frame, 42);
  tracer.flow_end(frame, 42);
  tracer.async_end(frame, 42);

  const std::string json = std::regex_replace(
      tracer.to_chrome_json(), std::regex("\"ts\":[0-9]+\\.[0-9]{3}"),
      "\"ts\":T");
  const char* const expected[] = {
      R"({"ph":"M","name":"thread_name","pid":1,"tid":1,)"
      R"("args":{"name":"golden"}})",
      R"({"ph":"X","name":"tile","cat":"engine","pid":1,"tid":1,"ts":T,)"
      R"("dur":2.500,"args":{"tile":3,"program":"blur_t3"}})",
      R"({"ph":"X","name":"design-compile","cat":"cache","pid":1,"tid":1,)"
      R"("ts":T,"dur":1.000,"args":{"program":"blur"}})",
      R"({"ph":"i","name":"pipeline.release","cat":"pipeline","pid":1,)"
      R"("tid":1,"ts":T,"args":{"stage":1,"tile":4}})",
      R"({"ph":"i","name":"frame.completed","cat":"engine","pid":1,"tid":1,)"
      R"("ts":T,"s":"t"})",
      R"({"ph":"C","name":"engine.queue_depth","cat":"counter","pid":1,)"
      R"("tid":1,"ts":T,"args":{"value":5}})",
      R"({"ph":"b","name":"frame","cat":"frame","pid":1,"tid":1,"ts":T,)"
      R"("id":"42","args":{"seed":7}})",
      R"({"ph":"s","name":"frame","cat":"frame","pid":1,"tid":1,"ts":T,)"
      R"("id":"42"})",
      R"({"ph":"t","name":"frame","cat":"frame","pid":1,"tid":1,"ts":T,)"
      R"("id":"42"})",
      R"({"ph":"f","name":"frame","cat":"frame","pid":1,"tid":1,"ts":T,)"
      R"("id":"42","bp":"e"})",
      R"({"ph":"e","name":"frame","cat":"frame","pid":1,"tid":1,"ts":T,)"
      R"("id":"42"})",
      R"("otherData":{"recorded":10,"overwritten":0}})",
  };
  for (const char* event : expected) {
    EXPECT_NE(json.find(event), std::string::npos) << event << "\n" << json;
  }
}

}  // namespace
}  // namespace nup::obs
