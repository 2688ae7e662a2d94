// Telemetry subsystem (src/obs/) contract tests.
//
// The promises under test are the ones sweeps rely on: enabling telemetry
// never changes results (byte-identical sink output), a full event buffer
// drops instead of blocking or growing, counter totals are bit-identical
// at any thread count, heartbeat files always parse whole, and the spans
// the Runner/graph record, exported and read back, keep the span rules of
// obs/trace_check.hpp (the reader's own tests are trace_check_test.cpp).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/heartbeat.hpp"
#include "obs/memory.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_check.hpp"
#include "obs/trace_export.hpp"
#include "routing/greedy.hpp"
#include "support/check.hpp"
#include "support/durable_file.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace gg = geogossip;

namespace {

/// Restores the global telemetry state on scope exit, so a failing
/// EXPECT cannot leak an enabled flag or shrunken ring into later tests.
struct ObsGuard {
  ObsGuard() { gg::obs::reset(); }
  ~ObsGuard() {
    gg::obs::set_enabled(false);
    gg::obs::set_ring_capacity(std::size_t{1} << 16);
    gg::obs::reset();
  }
};

/// Two protocol cells small enough that 3 replicates run in well under a
/// second, yet exercising both the routing path (geographic) and the
/// pure-neighbour path (pairwise).
gg::exp::Scenario tiny_scenario() {
  gg::exp::Scenario scenario;
  scenario.name = "obs-tiny";
  scenario.description = "telemetry contract fixture";
  scenario.replicates = 3;
  scenario.master_seed = 7;
  scenario.add("geographic", gg::core::ProtocolKind::kDimakisGeographic, 64);
  scenario.add("pairwise", gg::core::ProtocolKind::kBoydPairwise, 64);
  return scenario;
}

struct SinkStrings {
  std::string csv;
  std::string json;
};

SinkStrings run_to_strings(unsigned threads) {
  gg::exp::RunnerOptions options;
  options.threads = threads;
  const auto summary = gg::exp::Runner(options).run(tiny_scenario());
  std::ostringstream csv;
  std::ostringstream json;
  gg::exp::CsvSink(csv).write(summary);
  gg::exp::JsonLinesSink(json).write(summary);
  return {csv.str(), json.str()};
}

}  // namespace

#if !defined(GEOGOSSIP_OBS_DISABLE)

TEST(Telemetry, RingOverflowDropsAndCountsInsteadOfBlocking) {
  ObsGuard guard;
  gg::obs::set_ring_capacity(8);
  gg::obs::set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    gg::obs::Span span("overflow_probe", "i", i);
  }
  gg::obs::set_enabled(false);
  const auto snap = gg::obs::snapshot();
  EXPECT_EQ(snap.events.size(), 8u);
  EXPECT_EQ(snap.dropped_events, 12u);
}

TEST(Telemetry, SpansRecordNamesArgsAndOrderedTimestamps) {
  ObsGuard guard;
  gg::obs::set_enabled(true);
  {
    gg::obs::Span outer("outer", "a", 1);
    gg::obs::Span inner("inner", "b", 2, "c", 3);
  }
  gg::obs::set_enabled(false);
  const auto snap = gg::obs::snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(snap.events[0].name, "outer");
  EXPECT_STREQ(snap.events[1].name, "inner");
  EXPECT_STREQ(snap.events[1].key_a, "b");
  EXPECT_EQ(snap.events[1].arg_a, 2);
  EXPECT_EQ(snap.events[1].arg_b, 3);
  // Inner's lifetime is contained in outer's (same thread, RAII order).
  EXPECT_LE(snap.events[0].start_ns, snap.events[1].start_ns);
  EXPECT_GE(snap.events[0].end_ns, snap.events[1].end_ns);
}

TEST(Telemetry, CounterTotalsBitIdenticalAcrossThreadCounts) {
  ObsGuard guard;
  gg::obs::set_enabled(true);
  gg::exp::RunnerOptions serial;
  serial.threads = 1;
  gg::exp::Runner(serial).run(tiny_scenario());
  const auto counters_1 = gg::obs::snapshot().counters;

  gg::obs::reset();
  gg::exp::RunnerOptions parallel;
  parallel.threads = 4;
  gg::exp::Runner(parallel).run(tiny_scenario());
  const auto counters_4 = gg::obs::snapshot().counters;
  gg::obs::set_enabled(false);

  // Exact integer merge: not approximately equal — EQUAL, key for key.
  EXPECT_EQ(counters_1, counters_4);
  EXPECT_GT(counters_1.at("routing.routes"), 0u);
  EXPECT_GT(counters_1.at("routing.hops"), 0u);
  EXPECT_EQ(counters_1.at("trial.count"), 6u);
}

TEST(Telemetry, UnmirroredHopsCountOnlyRoutesBeforeTheMirror) {
  // routing.unmirrored_hops counts the hops routed by the CSR scan, before
  // the graph built its mirror; routing.hops counts every hop.
  ObsGuard guard;
  gg::obs::set_enabled(true);
  gg::Rng graph_rng(31);
  const auto lazy = gg::graph::GeometricGraph::sample(300, 2.0, graph_rng);
  const std::uint64_t switch_hops = gg::routing::mirror_switch_hops(lazy);
  gg::Rng pick(32);
  std::uint64_t hops = 0;
  std::uint64_t csr_hops = 0;
  std::uint64_t mirrored_routes = 0;
  while (mirrored_routes < 50) {
    const auto src = static_cast<gg::graph::NodeId>(pick.below(300));
    const auto dst =
        static_cast<gg::graph::NodeId>(pick.below_excluding(300, src));
    const bool csr_phase = !lazy.routing_mirror_built() &&
                           lazy.unmirrored_hops() < switch_hops;
    const auto result = gg::routing::route_to_node(lazy, src, dst);
    hops += result.hops;
    if (csr_phase) {
      csr_hops += result.hops;
    } else {
      ++mirrored_routes;
    }
  }
  // Routes on a graph whose mirror exists from the start add none.
  gg::Rng eager_rng(31);
  const auto eager = gg::graph::GeometricGraph::sample(300, 2.0, eager_rng);
  eager.ensure_routing_mirror();
  for (int k = 0; k < 50; ++k) {
    hops += gg::routing::route_to_node(eager, 0, 299 - k).hops;
  }
  gg::obs::set_enabled(false);
  const auto counters = gg::obs::snapshot().counters;
  ASSERT_TRUE(counters.count("routing.unmirrored_hops"));
  EXPECT_EQ(counters.at("routing.unmirrored_hops"), csr_hops);
  EXPECT_EQ(counters.at("routing.unmirrored_hops"), lazy.unmirrored_hops());
  EXPECT_EQ(counters.at("routing.hops"), hops);
  EXPECT_GE(csr_hops, switch_hops);
  EXPECT_LT(csr_hops, hops);
}

TEST(Telemetry, OnlyProtocolsThatReadNeighboursBuildTheCsr) {
  // A node of the paper's model knows positions only: the affine round
  // protocols exchange values between square representatives over greedy
  // routes, which scan the bucket grid, so their replicates never build
  // the CSR.  Protocols that gossip with neighbours build it once.
  ObsGuard guard;
  gg::obs::set_enabled(true);
  struct Case {
    gg::core::ProtocolKind kind;
    std::size_t n;
    std::uint64_t builds;
  };
  for (const Case c : {Case{gg::core::ProtocolKind::kAffineOneLevel, 4096, 0},
                       Case{gg::core::ProtocolKind::kAffineMultilevel, 4096, 0},
                       Case{gg::core::ProtocolKind::kBoydPairwise, 256, 1},
                       Case{gg::core::ProtocolKind::kAffineAsync, 256, 1},
                       Case{gg::core::ProtocolKind::kAffineDecentralized, 256,
                            1}}) {
    const std::string name(gg::core::protocol_kind_name(c.kind));
    gg::obs::reset();
    gg::exp::Cell cell;
    cell.kind = c.kind;
    cell.n = c.n;
    (void)gg::exp::run_replicate(cell, 11);
    const auto counters = gg::obs::counter_totals();
    EXPECT_EQ(counters.at("graph.adjacency_builds"), c.builds) << name;
    if (c.builds == 0) {
      EXPECT_GT(counters.at("routing.hops"), 0u) << name;
    }
  }
}

TEST(Telemetry, JoinedPoolThreadsKeepTheirEventsInATrimmedBuffer) {
  ObsGuard guard;
  gg::obs::set_enabled(true);
  constexpr std::size_t kTasks = 16;
  constexpr int kSpansPerTask = 3;
  gg::ThreadPool(4).run(kTasks, [](std::size_t task) {
    for (int i = 0; i < kSpansPerTask; ++i) {
      gg::obs::Span span("pool_probe", "task",
                         static_cast<std::int64_t>(task));
    }
  });
  gg::obs::set_enabled(false);

  // The three joined threads gave back their rings: what stays allocated
  // is the calling thread's live ring plus the joined threads' events.
  const std::size_t ring = gg::obs::ring_capacity() * sizeof(gg::obs::Event);
  EXPECT_LE(gg::obs::event_buffer_bytes(),
            ring + kTasks * kSpansPerTask * sizeof(gg::obs::Event));

  // ...and every event survives into the snapshot and the Chrome export.
  const auto snap = gg::obs::snapshot();
  std::size_t probes = 0;
  for (const auto& event : snap.events) {
    if (std::string(event.name) == "pool_probe") ++probes;
  }
  EXPECT_EQ(probes, kTasks * kSpansPerTask);
  std::ostringstream trace;
  gg::obs::write_chrome_trace(trace, snap, "trim");
  const std::string text = trace.str();
  std::size_t exported = 0;
  for (auto at = text.find("\"pool_probe\""); at != std::string::npos;
       at = text.find("\"pool_probe\"", at + 1)) {
    ++exported;
  }
  EXPECT_EQ(exported, kTasks * kSpansPerTask);

  // reset() frees the joined threads' state outright.
  gg::obs::reset();
  EXPECT_LE(gg::obs::event_buffer_bytes(), ring);
}

TEST(Telemetry, CounterTotalsReadableWhileThreadsRecord) {
  ObsGuard guard;
  gg::obs::set_enabled(true);
  static const auto c_probe = gg::obs::counter("obs_test.live_counter");
  std::atomic<bool> stop{false};
  std::thread recorder([&stop] {
    while (!stop.load()) gg::obs::add(c_probe, 1);
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t now = gg::obs::counter_totals().at(
        "obs_test.live_counter");
    EXPECT_GE(now, last);  // a moment's view, never torn backwards
    last = now;
  }
  stop = true;
  recorder.join();
  gg::obs::set_enabled(false);
  EXPECT_EQ(gg::obs::counter_totals().at("obs_test.live_counter"),
            gg::obs::snapshot().counters.at("obs_test.live_counter"));
}

TEST(Telemetry, RunnerSpansNestForTheTraceExporter) {
  ObsGuard guard;
  gg::obs::set_enabled(true);
  gg::exp::RunnerOptions options;
  options.threads = 1;
  gg::exp::Runner(options).run(tiny_scenario());
  gg::obs::set_enabled(false);
  const auto snap = gg::obs::snapshot();

  // Cell envelopes live on the synthetic lane.
  for (const auto& event : snap.events) {
    if (std::string_view(event.name) == "cell") {
      EXPECT_EQ(event.tid, gg::obs::kSyntheticTid);
    }
  }

  // Exported and read back, the trace keeps every span rule: replicate
  // spans carry their args and sit in their cell envelope, and
  // graph_build / routing_mirror nest in a replicate on the same lane.
  std::ostringstream trace;
  gg::obs::write_chrome_trace(trace, snap, "obs_test");
  const gg::obs::Trace read = gg::obs::parse_trace(trace.str());
  EXPECT_FALSE(read.spans.empty());
  for (const std::string& problem : gg::obs::trace_violations(read)) {
    ADD_FAILURE() << problem;
  }
}

TEST(Telemetry, DisabledRecordsNothing) {
  ObsGuard guard;
  ASSERT_FALSE(gg::obs::enabled());
  {
    gg::obs::Span span("dark", "x", 1);
    static const auto c = gg::obs::counter("obs_test.dark_counter");
    gg::obs::add(c, 41);
  }
  const auto snap = gg::obs::snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped_events, 0u);
  // Registered names still appear — with zero totals.
  EXPECT_EQ(snap.counters.at("obs_test.dark_counter"), 0u);
}

#endif  // !GEOGOSSIP_OBS_DISABLE

TEST(Telemetry, OnVsOffSweepOutputByteIdentical) {
  ObsGuard guard;
  for (const unsigned threads : {1u, 4u}) {
    gg::obs::set_enabled(false);
    const auto dark = run_to_strings(threads);
    gg::obs::set_enabled(true);
    const auto lit = run_to_strings(threads);
    gg::obs::set_enabled(false);
    ASSERT_FALSE(dark.csv.empty());
    EXPECT_EQ(dark.csv, lit.csv) << "threads=" << threads;
    EXPECT_EQ(dark.json, lit.json) << "threads=" << threads;
  }
}

TEST(Telemetry, MaxRssReportsAndRunnerSurfacesIt) {
  EXPECT_GT(gg::obs::max_rss_kb(), 0u);
  gg::exp::RunnerOptions options;
  options.threads = 1;
  const auto summary = gg::exp::Runner(options).run(tiny_scenario());
  EXPECT_GT(summary.peak_rss_kb, 0u);
  std::ostringstream out;
  gg::exp::print_summary(out, summary);
  EXPECT_NE(out.str().find("peak_rss_kb="), std::string::npos);
}

TEST(Heartbeat, EveryLineParsesAndNoTempFileRemains) {
  const auto dir = std::filesystem::path(::testing::TempDir());
  const auto path = (dir / "obs_heartbeat_test.jsonl").string();
  std::filesystem::remove(path);
  gg::sweep_durable_temps(dir.string(), 0.0, "obs_heartbeat_test.jsonl");

  {
    gg::obs::Heartbeat::Options options;
    options.path = path;
    options.interval_seconds = 0.02;
    options.scenario = "obs-tiny";
    options.total_replicates = 5;
    gg::obs::Heartbeat heartbeat(options);
    heartbeat.add_completed(2);
    heartbeat.note_start(1, 0);
    heartbeat.note_done();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    heartbeat.stop();
    EXPECT_GE(heartbeat.beats(), 2u);  // initial + final at minimum
  }

  // Committed via rename: no temp image of the target remains.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(gg::durable_temp_target(entry.path().filename().string()),
              "obs_heartbeat_test.jsonl")
        << entry.path();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  std::size_t last_completed = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    // Torn-write safety reduces to: every line is one complete object.
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"record\":\"heartbeat\""), std::string::npos);
    EXPECT_NE(line.find("\"scenario\":\"obs-tiny\""), std::string::npos);
    EXPECT_NE(line.find("\"seq\":" + std::to_string(lines)),
              std::string::npos);
    const auto completed_at = line.find("\"completed\":");
    ASSERT_NE(completed_at, std::string::npos);
    last_completed = static_cast<std::size_t>(
        std::stoul(line.substr(completed_at + 12)));
    ++lines;
  }
  EXPECT_GE(lines, 2u);
  EXPECT_EQ(last_completed, 3u);  // 2 re-ingested + 1 noted done
  std::filesystem::remove(path);
}

TEST(Heartbeat, ReportsEveryHeldLeaseInClaimOrder) {
  const auto path = (std::filesystem::path(::testing::TempDir()) /
                     "obs_heartbeat_leases.jsonl")
                        .string();
  const auto last_line = [&path] {
    std::ifstream in(path);
    std::string line;
    std::string last;
    while (std::getline(in, line)) last = line;
    return last;
  };
  gg::obs::Heartbeat::Options options;
  options.path = path;
  options.interval_seconds = 60.0;  // only the initial and final beats
  options.worker = "w1";
  {
    gg::obs::Heartbeat heartbeat(options);
    heartbeat.add_lease("batch-3.g0");
    heartbeat.add_lease("batch-4.g1");
    heartbeat.stop();
  }
  EXPECT_NE(last_line().find("\"leases\":[\"batch-3.g0\",\"batch-4.g1\"]"),
            std::string::npos)
      << last_line();
  {
    gg::obs::Heartbeat heartbeat(options);
    heartbeat.add_lease("batch-3.g0");
    heartbeat.add_lease("batch-4.g1");
    heartbeat.remove_lease("batch-3.g0");
    heartbeat.stop();
  }
  EXPECT_NE(last_line().find("\"leases\":[\"batch-4.g1\"]"),
            std::string::npos)
      << last_line();
  {
    gg::obs::Heartbeat heartbeat(options);
    heartbeat.add_lease("batch-4.g1");
    heartbeat.remove_lease("batch-4.g1");
    heartbeat.stop();
  }
  EXPECT_EQ(last_line().find("\"leases\""), std::string::npos) << last_line();
  std::filesystem::remove(path);
}

TEST(Heartbeat, RejectsEmptyPathAndNonPositiveInterval) {
  gg::obs::Heartbeat::Options no_path;
  no_path.interval_seconds = 1.0;
  EXPECT_THROW(gg::obs::Heartbeat{no_path}, gg::ArgumentError);

  gg::obs::Heartbeat::Options bad_interval;
  bad_interval.path =
      (std::filesystem::path(::testing::TempDir()) / "hb.jsonl").string();
  bad_interval.interval_seconds = 0.0;
  EXPECT_THROW(gg::obs::Heartbeat{bad_interval}, gg::ArgumentError);
}

TEST(TraceExport, EscapesNamesAndCarriesCountersAndDrops) {
  gg::obs::Snapshot snap;
  gg::obs::Event event;
  event.name = "needs\"escape";
  event.key_a = "n";
  event.arg_a = 9;
  event.start_ns = 1000;
  event.end_ns = 3500;
  event.tid = 2;
  snap.events.push_back(event);
  snap.dropped_events = 4;
  snap.counters.emplace("routing.hops", 123);

  std::ostringstream out;
  gg::obs::write_chrome_trace(out, snap, "unit");
  const std::string trace = out.str();
  EXPECT_NE(trace.find("needs\\\"escape"), std::string::npos);
  EXPECT_NE(trace.find("\"droppedEvents\":4"), std::string::npos);
  EXPECT_NE(trace.find("\"routing.hops\":123"), std::string::npos);
  // 2500 ns => 2.500 us, normalized to start at ts 0.
  EXPECT_NE(trace.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":2.500"), std::string::npos);
}
