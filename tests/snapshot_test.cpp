// Tests for the Snapshot/Restore protocol API (mid-replicate durability):
// exact RNG stream-position save/restore, the binary writer/reader pair and
// its truncation behaviour, the per-family interrupted-vs-uninterrupted
// bit-identity contract, the torn-write-safe SnapshotStore file format
// (truncation at every byte, checksum corruption, identity and schema
// mismatches), the JSONL schema stamp, and the Runner's end-to-end
// crash/resume path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/convergence.hpp"
#include "core/hierarchy_protocol.hpp"
#include "core/multilevel.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/schema.hpp"
#include "exp/sink.hpp"
#include "exp/snapshot_store.hpp"
#include "geometry/sampling.hpp"
#include "graph/geometric_graph.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"
#include "sim/field.hpp"
#include "support/check.hpp"
#include "support/durable_file.hpp"
#include "support/rng.hpp"
#include "support/snapshot.hpp"

namespace geogossip {
namespace {

// ------------------------------------------------------------------ Rng ----

TEST(RngSnapshot, RestoreContinuesTheStreamBitIdentically) {
  Rng rng(1234);
  for (int i = 0; i < 100; ++i) rng.next_u64();  // advance to mid-stream

  SnapshotWriter w;
  rng.save(w);
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.next_u64());

  Rng other(999);  // deliberately different seed: restore must overwrite
  SnapshotReader r(w.bytes());
  other.restore(r);
  r.finish();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(other.next_u64(), expected[static_cast<std::size_t>(i)]);
  }
}

TEST(RngSnapshot, AllZeroStateIsRejected) {
  // xoshiro's all-zero state is a fixed point: every draw is 0 and
  // below(3) would reject forever.  No saved stream is in it.
  SnapshotWriter w;
  for (int word = 0; word < 4; ++word) w.u64(0);
  w.f64(0.0);
  w.u8(0);
  Rng rng(1);
  SnapshotReader r(w.bytes());
  EXPECT_THROW(rng.restore(r), ArgumentError);
}

TEST(RngSnapshot, SpareNormalIsPartOfTheStreamPosition) {
  // Marsaglia polar generates normals in pairs and caches the spare; a
  // save taken between the two must restore the cached value, or every
  // draw after the next normal() shifts.
  Rng rng(77);
  (void)rng.normal();  // leaves a spare cached (or not — both paths valid)

  SnapshotWriter w;
  rng.save(w);
  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.normal());

  Rng other(1);
  (void)other.normal();  // desync other's spare state before restoring
  SnapshotReader r(w.bytes());
  other.restore(r);
  r.finish();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(other.normal(), expected[static_cast<std::size_t>(i)]);
  }
}

// -------------------------------------------------------- writer/reader ----

SnapshotWriter full_writer() {
  SnapshotWriter w;
  w.u8(200);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-0.1);
  w.str("length-prefixed \0 binary");  // literal: embedded NUL truncates at
                                       // the \0 — still a valid str payload
  w.u8_span(std::vector<std::uint8_t>{1, 2, 3});
  w.u32_span(std::vector<std::uint32_t>{7, 8});
  w.f64_span(std::vector<double>{1.5, -2.5, 3.25});
  return w;
}

void read_all(SnapshotReader& r) {
  (void)r.u8();
  (void)r.u32();
  (void)r.u64();
  (void)r.f64();
  (void)r.str();
  (void)r.u8_span();
  (void)r.u32_span();
  (void)r.f64_span();
  r.finish();
}

TEST(SnapshotFormat, RoundTripsEveryFieldType) {
  const auto w = full_writer();
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -0.1);  // exact: IEEE bit pattern, not text
  EXPECT_EQ(r.str(), "length-prefixed ");
  EXPECT_EQ(r.u8_span(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.u32_span(), (std::vector<std::uint32_t>{7, 8}));
  EXPECT_EQ(r.f64_span(), (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_TRUE(r.at_end());
  r.finish();
}

TEST(SnapshotFormat, EveryTruncationPointThrowsIoError) {
  const std::string bytes = full_writer().bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SnapshotReader r(std::string_view(bytes).substr(0, len));
    EXPECT_THROW(read_all(r), IoError) << "prefix length " << len;
  }
}

TEST(SnapshotFormat, TrailingBytesAreRejectedByFinish) {
  const std::string bytes = full_writer().bytes() + "x";
  SnapshotReader r(bytes);
  EXPECT_THROW(read_all(r), IoError);
}

TEST(SnapshotFormat, NanPayloadRoundTripsExactly) {
  SnapshotWriter w;
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(-std::numeric_limits<double>::infinity());
  SnapshotReader r(w.bytes());
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), -std::numeric_limits<double>::infinity());
  r.finish();
}

// -------------------------------------------- per-family bit-identity ----

using core::ProtocolKind;
using core::TrialOptions;
using core::TrialOutcome;
using graph::GeometricGraph;

bool outcomes_identical(const TrialOutcome& a, const TrialOutcome& b) {
  return a.converged == b.converged && a.final_error == b.final_error &&
         a.sum_drift == b.sum_drift &&
         a.transmissions.by_category == b.transmissions.by_category &&
         a.far_exchanges == b.far_exchanges &&
         a.near_exchanges == b.near_exchanges;
}

class FamilySnapshot : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(FamilySnapshot, InterruptedRunFinishesBitIdentically) {
  const ProtocolKind kind = GetParam();
  Rng graph_rng(4000);
  const auto g = GeometricGraph::sample(256, 2.0, graph_rng);
  Rng field_rng(4001);
  auto x0 = sim::gaussian_field(g.node_count(), field_rng);
  sim::center_and_normalize(x0);

  TrialOptions options;
  options.eps = 1e-2;

  // Round-based kinds count the cadence in top rounds; everything else in
  // engine ticks.  Both must fire several times inside this tiny trial.
  const bool round_based = kind == ProtocolKind::kAffineOneLevel ||
                           kind == ProtocolKind::kAffineMultilevel;
  sim::CheckpointPolicy policy;
  policy.every_ticks = round_based ? 2 : 512;

  // Uninterrupted reference + captured first-snapshot payload.
  std::string mid_payload;
  std::uint64_t mid_ticks = 0;
  policy.persist = [&](std::string_view payload, std::uint64_t ticks) {
    if (mid_payload.empty()) {
      mid_payload.assign(payload.data(), payload.size());
      mid_ticks = ticks;
    }
  };
  Rng rng_a(4002);
  const auto reference =
      core::run_protocol_trial(kind, g, x0, rng_a, options, policy, {});
  ASSERT_FALSE(mid_payload.empty())
      << "checkpoint cadence never fired — the interruption test is vacuous";

  // "Crash" after the first snapshot: a fresh trial of the identical
  // configuration restores the payload and must finish bit-identically.
  // It runs on a freshly sampled copy of the graph, as a restarted process
  // would: `g` may have built its routing mirror during the reference run,
  // while the copy starts on the CSR scan and switches at a different tick
  // — and the switch point must not change a byte.
  Rng graph_rng_b(4000);
  const auto fresh = GeometricGraph::sample(256, 2.0, graph_rng_b);
  ASSERT_FALSE(fresh.routing_mirror_built());
  Rng rng_b(4002);
  const auto resumed = core::run_protocol_trial(
      kind, fresh, x0, rng_b, options, sim::CheckpointPolicy{}, mid_payload);
  if (kind == ProtocolKind::kDimakisGeographic) {
    // Not vacuous: this resumed run crossed the switch mid-run.
    EXPECT_TRUE(fresh.routing_mirror_built());
  }
  EXPECT_TRUE(outcomes_identical(reference, resumed))
      << core::protocol_kind_name(kind) << ": resumed from tick "
      << mid_ticks << " ref_err=" << reference.final_error
      << " resumed_err=" << resumed.final_error;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FamilySnapshot,
    ::testing::Values(ProtocolKind::kBoydPairwise,
                      ProtocolKind::kDimakisGeographic,
                      ProtocolKind::kPathAveraging,
                      ProtocolKind::kAffineOneLevel,
                      ProtocolKind::kAffineMultilevel,
                      ProtocolKind::kAffineAsync,
                      ProtocolKind::kAffineDecentralized),
    [](const auto& info) {
      std::string name(core::protocol_kind_name(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FamilySnapshotContract, ResumePayloadSelfIdentifiesProtocolAndSize) {
  // Restoring a payload into a different kind (or size) must fail loudly,
  // never continue with invented state.
  Rng graph_rng(4100);
  const auto g = GeometricGraph::sample(128, 2.0, graph_rng);
  Rng field_rng(4101);
  auto x0 = sim::gaussian_field(g.node_count(), field_rng);
  sim::center_and_normalize(x0);

  TrialOptions options;
  options.eps = 1e-2;
  sim::CheckpointPolicy policy;
  policy.every_ticks = 256;
  std::string payload;
  policy.persist = [&](std::string_view bytes, std::uint64_t) {
    if (payload.empty()) payload.assign(bytes.data(), bytes.size());
  };
  Rng rng(4102);
  (void)core::run_protocol_trial(ProtocolKind::kBoydPairwise, g, x0, rng,
                                 options, policy, {});
  ASSERT_FALSE(payload.empty());

  Rng other(4102);
  // CheckError or ArgumentError depending on which identity field trips
  // first; both are logic errors, never a silent continue.
  EXPECT_THROW((void)core::run_protocol_trial(ProtocolKind::kDimakisGeographic,
                                              g, x0, other, options,
                                              sim::CheckpointPolicy{}, payload),
               std::logic_error);
}

// -------------------------------------------------------- SnapshotStore ----

std::string test_dir(const std::string& leaf) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("ggsnap_" + leaf);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotStore, SaveLoadRemoveRoundTrip) {
  const exp::SnapshotStore store(test_dir("roundtrip"), "tiny", 7);
  EXPECT_FALSE(store.try_load(3, 1, 42).has_value());  // absent: fresh run

  store.save(3, 1, 42, 9000, "trajectory bytes");
  const auto loaded = store.try_load(3, 1, 42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ticks, 9000u);
  EXPECT_EQ(loaded->payload, "trajectory bytes");

  // Overwrite-by-flip: a newer snapshot replaces the older atomically.
  store.save(3, 1, 42, 18000, "later bytes");
  EXPECT_EQ(store.try_load(3, 1, 42)->payload, "later bytes");

  store.remove(3, 1);
  EXPECT_FALSE(store.try_load(3, 1, 42).has_value());
  store.remove(3, 1);  // idempotent
}

TEST(SnapshotStore, TruncationAtEveryByteRestartsInsteadOfPoisoning) {
  const exp::SnapshotStore store(test_dir("truncate"), "tiny", 7);
  store.save(0, 0, 11, 500, "payload under test");
  const std::string path = store.path_for(0, 0);
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 8u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    spit(path, std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(store.try_load(0, 0, 11).has_value())
        << "prefix length " << len << " restored from a torn file";
  }
  spit(path, bytes);  // the intact file still loads after all that
  EXPECT_TRUE(store.try_load(0, 0, 11).has_value());
}

TEST(SnapshotStore, PayloadCorruptionFailsTheChecksumAndRestarts) {
  const exp::SnapshotStore store(test_dir("corrupt"), "tiny", 7);
  store.save(0, 0, 11, 500, "payload under test");
  const std::string path = store.path_for(0, 0);
  std::string bytes = slurp(path);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit inside the payload bytes
  spit(path, bytes);
  EXPECT_FALSE(store.try_load(0, 0, 11).has_value());
}

TEST(SnapshotStore, IdentityMismatchThrowsInsteadOfRestoring) {
  const std::string dir = test_dir("identity");
  const exp::SnapshotStore store(dir, "tiny", 7);
  store.save(2, 3, 99, 500, "payload");

  // Wrong replicate seed for the same slot: a different seed stream means
  // a different trajectory — restoring would silently poison the sweep.
  EXPECT_THROW((void)store.try_load(2, 3, 100), ArgumentError);

  // Same directory opened for a different scenario or master seed.
  const exp::SnapshotStore other_scenario(dir, "other", 7);
  EXPECT_THROW((void)other_scenario.try_load(2, 3, 99), ArgumentError);
  const exp::SnapshotStore other_master(dir, "tiny", 8);
  EXPECT_THROW((void)other_master.try_load(2, 3, 99), ArgumentError);
}

TEST(SnapshotStore, SchemaMismatchThrowsLoudly) {
  const exp::SnapshotStore store(test_dir("schema"), "tiny", 7);
  store.save(0, 0, 11, 500, "payload");
  const std::string path = store.path_for(0, 0);

  // Forge the same container with a bumped schema word (field order per
  // snapshot_store.cpp: schema, scenario, master_seed, cell, replicate,
  // seed, ticks, checksum, payload).
  SnapshotWriter w;
  w.u32(exp::kSchemaVersion + 1);
  w.str("tiny");
  w.u64(7);
  w.u64(0);
  w.u32(0);
  w.u64(11);
  w.u64(500);
  w.u64(fnv1a64("payload"));
  w.str("payload");
  spit(path, "GGSNAP1\n" + w.bytes());
  EXPECT_THROW((void)store.try_load(0, 0, 11), ArgumentError);
}

TEST(SnapshotStore, ForeignFileWithBadMagicRestarts) {
  const exp::SnapshotStore store(test_dir("magic"), "tiny", 7);
  spit(store.path_for(0, 0), "not a snapshot at all");
  EXPECT_FALSE(store.try_load(0, 0, 11).has_value());
}

TEST(SnapshotStore, ADirectoryAtTheSnapshotPathRestartsInsteadOfAborting) {
  const exp::SnapshotStore store(test_dir("directory"), "tiny", 7);
  std::filesystem::create_directories(store.path_for(0, 0));
  EXPECT_FALSE(store.try_load(0, 0, 11).has_value());
}

TEST(SnapshotStore, TwoStoresSavingOneSlotConcurrentlyNeverFail) {
  // A lease stolen from a slow but live owner: both workers save the same
  // slot into one shared directory.  Writer-unique temps let both succeed
  // every time, and neither leaves a temp behind.
  const std::string dir = test_dir("concurrent");
  const exp::SnapshotStore first(dir, "tiny", 7);
  const exp::SnapshotStore second(dir, "tiny", 7);
  std::atomic<int> failures{0};
  const auto saver = [&failures](const exp::SnapshotStore& store,
                                 const std::string& payload) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      try {
        store.save(4, 2, 77, i, payload);
      } catch (const IoError&) {
        ++failures;
      }
    }
  };
  std::thread a([&] { saver(first, "from the first worker"); });
  std::thread b([&] { saver(second, "from the second worker"); });
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  const auto loaded = first.try_load(4, 2, 77);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ticks, 99u);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "snap-c4-r2.ggsnap");
  }
}

#if !defined(GEOGOSSIP_OBS_DISABLE)
TEST(SnapshotStore, OrphanAndStaleTempsAreCounted) {
  obs::reset();
  obs::set_enabled(true);
  const std::string dir = test_dir("counters");
  const exp::SnapshotStore store(dir, "tiny", 7);

  // A writer died mid-save for slot (0, 0): try_load restarts the
  // replicate and counts the orphan.
  const std::string orphan = durable_temp_path(store.path_for(0, 0));
  spit(orphan, "half a snapshot");
  EXPECT_FALSE(store.try_load(0, 0, 11).has_value());
  EXPECT_FALSE(store.try_load(0, 1, 12).has_value());  // no temp: no count

  // A later store sweeps the old debris and keeps a fresh temp.
  std::filesystem::last_write_time(
      orphan,
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
  const std::string fresh = durable_temp_path(store.path_for(0, 1));
  spit(fresh, "a live save");
  const exp::SnapshotStore later(dir, "tiny", 7, 60.0);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(fresh));

  const auto counters = obs::counter_totals();
  obs::set_enabled(false);
  obs::reset();
  EXPECT_EQ(counters.at("snapshot.orphan_tmp"), 1u);
  EXPECT_EQ(counters.at("snapshot.stale_tmp_swept"), 1u);
}
#endif  // !GEOGOSSIP_OBS_DISABLE

// ------------------------------------------------------- JSONL schema ----

TEST(JsonlSchema, ReplicateRecordsCarryTheSchemaVersion) {
  std::ostringstream out;
  exp::JsonLinesSink sink(out);
  exp::Cell cell;
  cell.n = 8;
  exp::ReplicateResult result;
  result.seed = 3;
  sink.write_replicate("tiny", 7, cell, 0, 0, result);
  EXPECT_NE(out.str().find("\"schema\":" +
                           std::to_string(exp::kSchemaVersion)),
            std::string::npos)
      << out.str();
}

TEST(JsonlSchema, MismatchedStampIsRejectedLoudly) {
  std::ostringstream out;
  exp::JsonLinesSink sink(out);
  exp::Cell cell;
  cell.n = 8;
  exp::ReplicateResult result;
  result.seed = 3;
  sink.write_replicate("tiny", 7, cell, 0, 0, result);

  const std::string stamp =
      "\"schema\":" + std::to_string(exp::kSchemaVersion);
  std::string line = out.str();
  const auto at = line.find(stamp);
  ASSERT_NE(at, std::string::npos);

  // A record from a FUTURE schema must throw, not be skipped as noise —
  // silently dropping it would re-run (and re-append) that replicate.
  std::string future = line;
  future.replace(at, stamp.size(), "\"schema\":999");
  exp::Checkpoint reject("tiny", 7);
  EXPECT_THROW(reject.load(future), ArgumentError);

  // A legacy record with NO stamp predates the field and still loads.
  std::string legacy = line;
  legacy.erase(at - 1, stamp.size() + 1);  // also drop the leading comma
  exp::Checkpoint accept("tiny", 7);
  accept.load(legacy);
  EXPECT_EQ(accept.size(), 1u);
  EXPECT_EQ(accept.stats().malformed, 0u);
}

// ------------------------------------------------- Runner end-to-end ----

exp::Scenario snapshot_scenario() {
  exp::Scenario scenario;
  scenario.name = "snap-e2e";
  scenario.replicates = 2;
  scenario.master_seed = 13;
  for (const std::size_t n : {96, 128}) {
    auto& cell = scenario.add(core::ProtocolKind::kBoydPairwise, n);
    cell.options.eps = 1e-2;
  }
  return scenario;
}

std::size_t snapshot_files(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ggsnap") ++count;
  }
  return count;
}

bool summaries_identical(const exp::SweepSummary& a,
                         const exp::SweepSummary& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& x = a.cells[i];
    const auto& y = b.cells[i];
    if (x.converged != y.converged || x.median_tx != y.median_tx ||
        x.q25_tx != y.q25_tx || x.q75_tx != y.q75_tx ||
        x.mean_control_share != y.mean_control_share) {
      return false;
    }
  }
  return true;
}

TEST(RunnerSnapshots, CleanRunMatchesUncheckpointedAndLeavesNoFiles) {
  const auto scenario = snapshot_scenario();
  exp::RunnerOptions plain;
  plain.threads = 2;
  const auto reference = exp::Runner(plain).run(scenario);

  const std::string dir = test_dir("runner_clean");
  exp::RunnerOptions snapshotting = plain;
  snapshotting.snapshot_dir = dir;
  snapshotting.snapshot_every_ticks = 300;
  const auto checked = exp::Runner(snapshotting).run(scenario);

  // Snapshots are pure reads: enabling them cannot change results — and a
  // completed sweep cleans up every slot file.
  EXPECT_TRUE(summaries_identical(reference, checked));
  EXPECT_EQ(snapshot_files(dir), 0u);
}

/// Per-replicate results of a sweep, keyed on (cell index, replicate).
using ReplicateRecords =
    std::map<std::pair<std::size_t, std::uint32_t>, exp::ReplicateResult>;

decltype(exp::RunnerOptions::progress) record_into(ReplicateRecords& records) {
  return [&records](const exp::Cell&, std::size_t cell_index,
                    std::uint32_t replicate,
                    const exp::ReplicateResult& result) {
    records[{cell_index, replicate}] = result;
  };
}

bool records_identical(const ReplicateRecords& a, const ReplicateRecords& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, x] : a) {
    const auto it = b.find(key);
    if (it == b.end()) return false;
    const auto& y = it->second;
    if (x.seed != y.seed || x.converged != y.converged ||
        x.final_error != y.final_error || x.sum_drift != y.sum_drift ||
        x.transmissions.by_category != y.transmissions.by_category) {
      return false;
    }
  }
  return true;
}

TEST(RunnerSnapshots, CrashAfterPersistResumesBitIdentically) {
  // A tick kind at a tick cadence, and the paper's round protocol at a
  // cadence of a few top rounds.
  exp::Scenario rounds;
  rounds.name = "snap-e2e-rounds";
  rounds.replicates = 2;
  rounds.master_seed = 13;
  rounds.add(core::ProtocolKind::kAffineMultilevel, 256);
  const struct {
    const char* dir;
    exp::Scenario scenario;
    std::uint64_t every_ticks;
  } cases[] = {{"runner_crash", snapshot_scenario(), 300},
               {"runner_crash_rounds", rounds, 4}};

  for (const auto& c : cases) {
    SCOPED_TRACE(c.scenario.name);
    ReplicateRecords reference_records;
    exp::RunnerOptions plain;
    plain.threads = 1;
    plain.progress = record_into(reference_records);
    const auto reference = exp::Runner(plain).run(c.scenario);

    // "Crash" mid-sweep: the progress sink throws on the first completed
    // replicate.  Its snapshot is only removed AFTER progress succeeds, so
    // the slot file survives for the re-run (the documented crash window).
    const std::string dir = test_dir(c.dir);
    exp::RunnerOptions crashing = plain;
    crashing.snapshot_dir = dir;
    crashing.snapshot_every_ticks = c.every_ticks;
    crashing.progress = [](const exp::Cell&, std::size_t, std::uint32_t,
                           const exp::ReplicateResult&) {
      throw IoError("simulated sink failure");
    };
    EXPECT_THROW((void)exp::Runner(crashing).run(c.scenario), IoError);
    const std::size_t slots = snapshot_files(dir);
    ASSERT_GE(slots, 1u)
        << "the interrupted replicate left no snapshot to resume from";

    // Re-run with the same flags: the surviving slot restores
    // mid-replicate and every replicate comes out bit-identical to the
    // uninterrupted run.
    ReplicateRecords resumed_records;
    exp::RunnerOptions resuming = plain;
    resuming.snapshot_dir = dir;
    resuming.snapshot_every_ticks = c.every_ticks;
    resuming.progress = record_into(resumed_records);
#if !defined(GEOGOSSIP_OBS_DISABLE)
    obs::reset();
    obs::set_enabled(true);
#endif
    const auto resumed = exp::Runner(resuming).run(c.scenario);
#if !defined(GEOGOSSIP_OBS_DISABLE)
    const auto counters = obs::counter_totals();
    obs::set_enabled(false);
    obs::reset();
    const auto restored = counters.find("runner.snapshot_restored");
    ASSERT_NE(restored, counters.end()) << "no slot was restored";
    EXPECT_EQ(restored->second, slots);
#endif
    EXPECT_TRUE(summaries_identical(reference, resumed));
    EXPECT_EQ(reference_records.size(),
              c.scenario.cells.size() * c.scenario.replicates);
    EXPECT_TRUE(records_identical(reference_records, resumed_records));
    EXPECT_EQ(snapshot_files(dir), 0u);
  }
}

// ------------------------------------------- corrupted resume payloads ----

/// One run configuration resumed from arbitrary bytes, on a fresh protocol
/// and RNG per attempt, as the runner restores a slot file.
struct ResumeSubject {
  std::string label;
  std::function<std::unique_ptr<sim::GossipProtocol>(Rng&)> make;
  sim::RunConfig config;
  std::string payload;  ///< a genuine mid-run payload
};

constexpr std::uint64_t kSubjectSeed = 4302;

std::string first_payload(const ResumeSubject& subject,
                          std::uint64_t every_ticks) {
  Rng rng(kSubjectSeed);
  auto protocol = subject.make(rng);
  sim::CheckpointPolicy policy;
  policy.every_ticks = every_ticks;
  std::string payload;
  policy.persist = [&](std::string_view bytes, std::uint64_t) {
    if (payload.empty()) payload.assign(bytes.data(), bytes.size());
  };
  (void)sim::run_to_epsilon(*protocol, rng, subject.config, policy, {});
  return payload;
}

/// True when the run finished (within its step cap), false when the
/// payload was rejected with a logic error or an IoError.  Anything else —
/// a crash, a hang, another exception — fails the test.
bool resumes(const ResumeSubject& subject, std::string_view bytes) {
  Rng rng(kSubjectSeed);
  auto protocol = subject.make(rng);
  try {
    const auto run = sim::run_to_epsilon(*protocol, rng, subject.config,
                                         sim::CheckpointPolicy{}, bytes);
    EXPECT_LE(run.ticks, subject.config.max_ticks) << subject.label;
    return true;
  } catch (const std::length_error& e) {
    ADD_FAILURE() << subject.label
                  << ": allocation sized by a corrupted length: " << e.what();
  } catch (const std::logic_error&) {
  } catch (const IoError&) {
  }
  return false;
}

TEST(SnapshotMutation, CorruptedPayloadsFinishOrThrow) {
  Rng graph_rng(4300);
  const auto g = GeometricGraph::sample(128, 2.0, graph_rng);
  Rng field_rng(4301);
  auto x0 = sim::gaussian_field(g.node_count(), field_rng);
  sim::center_and_normalize(x0);

  ResumeSubject ticks{"affine-async", {}, {}, {}};
  ticks.make = [&](Rng& rng) {
    core::HierarchyProtocolConfig config;
    config.eps = 1e-2;
    return std::make_unique<core::HierarchicalAffineProtocol>(g, x0, rng,
                                                              config);
  };
  ticks.config.epsilon = 1e-2;
  ticks.config.max_ticks = 100'000;
  ticks.payload = first_payload(ticks, 512);

  core::MultilevelConfig multi_config;
  multi_config.eps = 1e-2;
  ResumeSubject rounds{"affine-multi", {}, {}, {}};
  rounds.make = [&](Rng& rng) {
    return std::make_unique<core::MultilevelAffineGossip>(g, x0, rng,
                                                          multi_config);
  };
  rounds.config.epsilon = 1e-2;
  {
    Rng rng(kSubjectSeed);
    rounds.config.max_ticks =
        core::MultilevelAffineGossip(g, x0, rng, multi_config).step_cap(0);
  }
  rounds.payload = first_payload(rounds, 2);

  const ResumeSubject* subjects[] = {&ticks, &rounds};
  for (const ResumeSubject* subject : subjects) {
    SCOPED_TRACE(subject->label);
    const std::string& payload = subject->payload;
    ASSERT_FALSE(payload.empty()) << "the cadence never fired";
    EXPECT_TRUE(resumes(*subject, payload));

    // A cut anywhere leaves a section short: always rejected.  (Cut 0 is
    // the empty payload, which means a fresh start.)
    for (std::size_t cut = 1; cut < payload.size(); ++cut) {
      EXPECT_FALSE(resumes(*subject, payload.substr(0, cut))) << "cut " << cut;
    }

    Rng mutation(4303);
    int finished = 0;
    int rejected = 0;
    // Half the flips land in the first 128 bytes: the engine header (tag,
    // protocol name, n, step count, initial deviation), which
    // is a small share of the payload but holds most of its lengths and
    // bounds.
    for (int flip = 0; flip < 192; ++flip) {
      std::string bytes = payload;
      const std::size_t reach = flip % 2 == 0 ? bytes.size() : 128;
      const std::size_t at = mutation.below(std::min(reach, bytes.size()));
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << mutation.below(8)));
      (resumes(*subject, bytes) ? finished : rejected) += 1;
    }
    // Splices: a prefix of this payload joined to a suffix of either one.
    for (int splice = 0; splice < 64; ++splice) {
      const std::string& donor = subjects[mutation.below(2)]->payload;
      const std::size_t head = mutation.below(payload.size() + 1);
      const std::size_t tail = mutation.below(donor.size() + 1);
      (resumes(*subject, payload.substr(0, head) + donor.substr(tail))
           ? finished
           : rejected) += 1;
    }
    // Both outcomes occur, or the mutations are not reaching the reader.
    EXPECT_GT(finished, 0);
    EXPECT_GT(rejected, 0);
  }
}

TEST(SnapshotMutation, TheModelTimeLayoutIsRefusedByItsTag) {
  // Builds that tracked Poisson model time tagged their payloads
  // "geogossip-engine-run" and stored an f64 model time after the step
  // count; builds with a convergence trace tagged them
  // "geogossip-engine-run/2" and stored a trace count after the initial
  // deviation (and the tracker refresh interval in the protocol state).
  // Such payloads, otherwise genuine, are refused by name: they are never
  // read as the current layout out of step.
  Rng graph_rng(4300);
  const auto g = GeometricGraph::sample(128, 2.0, graph_rng);
  Rng field_rng(4301);
  auto x0 = sim::gaussian_field(g.node_count(), field_rng);
  sim::center_and_normalize(x0);
  ResumeSubject ticks{"affine-async", {}, {}, {}};
  ticks.make = [&](Rng& rng) {
    core::HierarchyProtocolConfig config;
    config.eps = 1e-2;
    return std::make_unique<core::HierarchicalAffineProtocol>(g, x0, rng,
                                                              config);
  };
  ticks.config.epsilon = 1e-2;
  ticks.config.max_ticks = 100'000;
  const std::string payload = first_payload(ticks, 512);
  ASSERT_FALSE(payload.empty()) << "the cadence never fired";

  SnapshotReader r(payload);
  const std::string tag = r.str();
  const std::string name = r.str();
  const std::uint64_t n = r.u64();
  const std::uint64_t steps = r.u64();
  const double initial_dev_sq = r.f64();
  SnapshotWriter head;
  head.str(tag);
  head.str(name);
  head.u64(n);
  head.u64(steps);
  const std::size_t steps_end = head.bytes().size();
  head.f64(initial_dev_sq);
  ASSERT_EQ(payload.compare(0, head.bytes().size(), head.bytes()), 0);

  const std::string model_time_tag = "geogossip-engine-run";
  SnapshotWriter model_time_head;
  model_time_head.str(model_time_tag);
  model_time_head.str(name);
  model_time_head.u64(n);
  model_time_head.u64(steps);
  model_time_head.f64(static_cast<double>(steps) / static_cast<double>(n));

  const std::string trace_tag = "geogossip-engine-run/2";
  SnapshotWriter trace_head;
  trace_head.str(trace_tag);
  trace_head.str(name);
  trace_head.u64(n);
  trace_head.u64(steps);
  trace_head.f64(initial_dev_sq);
  trace_head.u64(0);  // no trace samples

  const std::pair<std::string, std::string> older[] = {
      {model_time_tag, model_time_head.bytes() + payload.substr(steps_end)},
      {trace_tag, trace_head.bytes() + payload.substr(head.bytes().size())}};
  for (const auto& [old_tag, old_payload] : older) {
    SCOPED_TRACE(old_tag);
    ASSERT_NE(tag, old_tag);
    Rng rng(kSubjectSeed);
    auto protocol = ticks.make(rng);
    try {
      (void)sim::run_to_epsilon(*protocol, rng, ticks.config,
                                sim::CheckpointPolicy{}, old_payload);
      ADD_FAILURE() << "an older-layout payload was resumed";
    } catch (const ArgumentError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("'" + old_tag + "'"), std::string::npos)
          << message;
      EXPECT_NE(message.find("'" + tag + "'"), std::string::npos) << message;
    }
  }
  EXPECT_TRUE(resumes(ticks, payload));
}

}  // namespace
}  // namespace geogossip
