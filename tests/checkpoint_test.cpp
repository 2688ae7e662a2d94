// Tests for the resumable-sweep checkpoint layer (src/exp/checkpoint.*):
// record round-trips through JsonLinesSink::write_replicate, the documented
// fault-tolerance policy (torn tails, malformed lines, duplicates,
// conflicts, foreign records, empty files), the reader under mutation of
// a real sweep's records, the round-robin shard partition the fleet's
// batches use, and the crash-safety contract of the sink itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/sink.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace geogossip::exp {
namespace {

constexpr std::uint64_t kSeed = 7;

/// A result exercising every persisted field.
ReplicateResult full_result(std::uint64_t seed) {
  ReplicateResult result;
  result.seed = seed;
  result.converged = true;
  result.final_error = 0.12345678912345678;
  result.sum_drift = 1.5e-14;
  result.transmissions.by_category = {10, 20, 3};
  result.far_exchanges = 4;
  result.near_exchanges = 9;
  result.metrics["hops"] = 3.5;
  result.metrics["tv distance"] = 1.25e-6;
  result.metrics["signed"] = -2.75;
  return result;
}

/// Serializes records exactly the way a streaming sweep does.
std::string record_lines(
    const std::vector<std::pair<Checkpoint::Key, ReplicateResult>>& records,
    const std::string& scenario = "tiny") {
  std::ostringstream out;
  JsonLinesSink sink(out);
  Cell cell;
  cell.label = "cell \"quoted\"\\backslash";  // exercises string escaping
  cell.n = 64;
  for (const auto& [key, result] : records) {
    sink.write_replicate(scenario, kSeed, cell, key.first, key.second,
                         result);
  }
  return out.str();
}

Checkpoint load_text(const std::string& text,
                     const std::string& scenario = "tiny") {
  Checkpoint checkpoint(scenario, kSeed);
  checkpoint.load(text);
  return checkpoint;
}

// ------------------------------------------------------------ round trip ----

TEST(Checkpoint, RoundTripsEveryPersistedField) {
  const auto original = full_result(12345);
  const auto checkpoint =
      load_text(record_lines({{{2, 5}, original}}));

  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().accepted, 1u);
  EXPECT_TRUE(checkpoint.contains(2, 5));
  EXPECT_FALSE(checkpoint.contains(2, 4));
  const ReplicateResult* loaded = checkpoint.find(2, 5);
  ASSERT_NE(loaded, nullptr);
  // Bit-identical re-ingestion: every field survives the text round trip
  // (format_double emits 17 significant digits, which round-trip doubles).
  EXPECT_TRUE(results_equal(original, *loaded));
  EXPECT_EQ(loaded->seed, 12345u);
  EXPECT_EQ(loaded->transmissions.total(), 33u);
  EXPECT_EQ(loaded->metrics.at("tv distance"), 1.25e-6);
  EXPECT_EQ(loaded->metrics.at("signed"), -2.75);
}

TEST(Checkpoint, RoundTripsNonFiniteValuesAndTreatsNaNDuplicatesAsEqual) {
  // NaN-propagating trackers and arbitrary probe metrics can persist
  // non-finite doubles; the sink writes NaN/Infinity/-Infinity tokens and
  // the reader must load them — a permanently unloadable record would
  // re-run (and re-append) forever and block a fleet merge.
  ReplicateResult result;
  result.seed = 5;
  result.converged = false;
  result.final_error = std::numeric_limits<double>::quiet_NaN();
  result.metrics["up"] = std::numeric_limits<double>::infinity();
  result.metrics["down"] = -std::numeric_limits<double>::infinity();
  const std::string line = record_lines({{{0, 0}, result}});
  EXPECT_NE(line.find("\"final_error\":NaN"), std::string::npos);

  // Re-reads of the same NaN record are duplicates, never conflicts.
  const auto checkpoint = load_text(line + line);
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().duplicate, 1u);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
  const ReplicateResult* loaded = checkpoint.find(0, 0);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(std::isnan(loaded->final_error));
  EXPECT_EQ(loaded->metrics.at("up"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(loaded->metrics.at("down"),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(results_equal(result, *loaded));
}

TEST(Checkpoint, RoundTripsExtremeSeedAndZeroTransmissions) {
  ReplicateResult result;  // a probe-style record: no tx, no exchanges
  result.seed = 0xFFFFFFFFFFFFFFFFull;
  result.converged = true;
  result.final_error = 0.0;
  result.metrics["value"] = 42.0;
  const auto checkpoint = load_text(record_lines({{{0, 0}, result}}));
  const ReplicateResult* loaded = checkpoint.find(0, 0);
  ASSERT_NE(loaded, nullptr);
  // 2^64-1 does not survive a double round trip — the uint path must.
  EXPECT_EQ(loaded->seed, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_TRUE(results_equal(result, *loaded));
}

// -------------------------------------------------------- fault injection ----

TEST(Checkpoint, EmptyStreamIsAValidEmptyCheckpoint) {
  const auto checkpoint = load_text("");
  EXPECT_EQ(checkpoint.size(), 0u);
  EXPECT_EQ(checkpoint.stats().accepted, 0u);
  EXPECT_FALSE(checkpoint.stats().torn_tail);
}

TEST(Checkpoint, TruncationAtEveryByteOffsetNeverThrowsOrInventsRecords) {
  const std::string full = record_lines(
      {{{0, 0}, full_result(11)}, {{0, 1}, full_result(12)}});
  const std::size_t first_line_end = full.find('\n') + 1;
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const auto checkpoint = load_text(full.substr(0, cut));
    // A record is recovered exactly when all of its bytes are on disk (a
    // tail missing only its newline is still a complete record); torn
    // prefixes never yield a record and never throw.
    const bool first_complete = cut + 1 >= first_line_end;
    const bool second_complete = cut + 1 >= full.size();
    EXPECT_EQ(checkpoint.contains(0, 0), first_complete) << "cut=" << cut;
    EXPECT_EQ(checkpoint.contains(0, 1), second_complete) << "cut=" << cut;
    EXPECT_EQ(checkpoint.size(), (first_complete ? 1u : 0u) +
                                     (second_complete ? 1u : 0u))
        << "cut=" << cut;
    EXPECT_EQ(checkpoint.stats().malformed, 0u) << "cut=" << cut;
  }
}

TEST(Checkpoint, TornFinalLineIsToleratedAndFlagged) {
  const std::string full = record_lines(
      {{{0, 0}, full_result(11)}, {{0, 1}, full_result(12)}});
  const std::size_t mid_second =
      full.find('\n') + 1 + (full.size() - full.find('\n')) / 2;
  const auto checkpoint = load_text(full.substr(0, mid_second));
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_TRUE(checkpoint.stats().torn_tail);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
}

TEST(Checkpoint, MalformedInteriorLineIsSkippedAndCounted) {
  const std::string good = record_lines({{{0, 0}, full_result(11)}});
  const std::string text =
      good + "this is not json\n" +
      record_lines({{{0, 1}, full_result(12)}});
  const auto checkpoint = load_text(text);
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(checkpoint.stats().malformed, 1u);
  EXPECT_FALSE(checkpoint.stats().torn_tail);
}

TEST(Checkpoint, IncompleteRecordFieldsAreMalformedNotFatal) {
  // Valid JSON, but not a trustworthy record: missing seed, transmissions
  // total without its category breakdown, out-of-range replicate.
  const std::string text =
      "{\"record\":\"replicate\",\"scenario\":\"tiny\",\"master_seed\":7,"
      "\"cell_index\":0,\"replicate\":0,\"converged\":true,"
      "\"final_error\":0.5,\"transmissions\":0}\n"
      "{\"record\":\"replicate\",\"scenario\":\"tiny\",\"master_seed\":7,"
      "\"cell_index\":0,\"replicate\":1,\"seed\":3,\"converged\":true,"
      "\"final_error\":0.5,\"transmissions\":30}\n"
      "{\"record\":\"replicate\",\"scenario\":\"tiny\",\"master_seed\":7,"
      "\"cell_index\":0,\"replicate\":4294967296,\"seed\":3,"
      "\"converged\":true,\"final_error\":0.5,\"transmissions\":0}\n";
  const auto checkpoint = load_text(text);
  EXPECT_EQ(checkpoint.size(), 0u);
  EXPECT_EQ(checkpoint.stats().malformed, 3u);
}

TEST(Checkpoint, DuplicateIdenticalRecordsCollapseWithACount) {
  const std::string line = record_lines({{{1, 2}, full_result(11)}});
  const auto checkpoint = load_text(line + line + line);
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().accepted, 1u);
  EXPECT_EQ(checkpoint.stats().duplicate, 2u);
}

TEST(Checkpoint, ConflictingRecordsForOneKeyThrow) {
  auto conflicting = full_result(11);
  conflicting.final_error = 0.999;
  const std::string text =
      record_lines({{{1, 2}, full_result(11)}}) +
      record_lines({{{1, 2}, conflicting}});
  Checkpoint checkpoint("tiny", kSeed);
  EXPECT_THROW(checkpoint.load(text), ArgumentError);
}

TEST(Checkpoint, WrongScenarioOrMasterSeedRecordsAreForeign) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  Cell cell;
  cell.n = 64;
  sink.write_replicate("tiny", kSeed, cell, 0, 0, full_result(11));
  sink.write_replicate("other", kSeed, cell, 0, 1, full_result(12));
  sink.write_replicate("tiny", kSeed + 1, cell, 0, 2, full_result(13));
  const auto checkpoint = load_text(out.str());
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_TRUE(checkpoint.contains(0, 0));
  EXPECT_EQ(checkpoint.stats().foreign, 2u);
}

TEST(Checkpoint, CellSummaryLinesInterleaveAsOtherLines) {
  // A replicate file may also hold per-cell summary lines (no "record"
  // discriminator) — they are passed over, not mistaken for replicates.
  const std::string text =
      "{\"scenario\":\"tiny\",\"cell\":\"boyd\",\"n\":64}\n" +
      record_lines({{{0, 0}, full_result(11)}}) +
      "{\"record\":\"future-kind\",\"scenario\":\"tiny\"}\n";
  const auto checkpoint = load_text(text);
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().other_lines, 2u);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
}

TEST(Checkpoint, BlankLinesAreIgnored) {
  const auto checkpoint =
      load_text("\n  \n" + record_lines({{{0, 0}, full_result(11)}}) + "\n");
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
}

TEST(Checkpoint, LoadFileThrowsOnMissingPath) {
  Checkpoint checkpoint("tiny", kSeed);
  EXPECT_THROW(checkpoint.load_file("/no/such/dir/ckpt.jsonl"),
               ArgumentError);
}

TEST(Checkpoint, LoadFileOnADirectoryIsAnArgumentError) {
  Checkpoint checkpoint("tiny", kSeed);
  try {
    checkpoint.load_file(testing::TempDir());
    ADD_FAILURE() << "a directory loaded as a checkpoint";
  } catch (const ArgumentError& error) {
    EXPECT_NE(std::string(error.what()).find("cannot read"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(checkpoint.size(), 0u);
}

TEST(Checkpoint, LoadAccumulatesAcrossShardFiles) {
  Checkpoint checkpoint("tiny", kSeed);
  checkpoint.load(record_lines({{{0, 0}, full_result(11)}}));
  checkpoint.load(record_lines({{{0, 1}, full_result(12)}}));
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(checkpoint.records().begin()->first,
            (Checkpoint::Key{0, 0}));
}

// -------------------------------------------------------- shard partition ----

TEST(Sharding, RoundRobinPartitionIsDisjointAndCovering) {
  constexpr std::size_t kTasks = 60;
  for (const std::uint32_t k : {1u, 2u, 3u, 7u}) {
    std::size_t covered = 0;
    for (std::size_t task = 0; task < kTasks; ++task) {
      std::uint32_t owners = 0;
      for (std::uint32_t shard = 0; shard < k; ++shard) {
        owners += shard_owns(shard, k, task) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1u) << "task " << task << " k " << k;
      covered += owners;
    }
    EXPECT_EQ(covered, kTasks);
  }
}

TEST(Sharding, RoundRobinTouchesEveryCellWhenShardsFitReplicates) {
  // task = cell_index * replicates + replicate; with k <= replicates every
  // shard must own at least one replicate of every cell.
  constexpr std::uint32_t kReplicates = 5;
  constexpr std::size_t kCells = 4;
  for (const std::uint32_t k : {2u, 3u, 5u}) {
    for (std::uint32_t shard = 0; shard < k; ++shard) {
      std::set<std::size_t> cells;
      for (std::size_t task = 0; task < kCells * kReplicates; ++task) {
        if (shard_owns(shard, k, task)) cells.insert(task / kReplicates);
      }
      EXPECT_EQ(cells.size(), kCells) << "shard " << shard << "/" << k;
    }
  }
}

// ------------------------------------------------------------- mutation ----
// The reader on the records a real sweep streamed (the pinned e5-quick
// records), cut at every byte, with seeded bit flips and with seeded
// splices.  A mutant either loads or is refused with ArgumentError (a
// conflicting record or a foreign schema stamp); any other exception, or
// a crash, fails.  The sanitizer build runs these too.

constexpr std::uint64_t kE5MasterSeed = 1;

const std::string& e5_records() {
  static const std::string text = [] {
    std::ifstream in(std::string(GEOGOSSIP_TEST_EXAMPLES_DIR) +
                         "/e5-quick.records.jsonl",
                     std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }();
  return text;
}

/// Loads `text` as e5-quick's checkpoint; false when the reader refused it
/// with ArgumentError.  Any other exception escapes and fails the test.
bool loads(const std::string& text) {
  Checkpoint checkpoint("e5-quick", kE5MasterSeed);
  try {
    checkpoint.load(text);
    return true;
  } catch (const ArgumentError&) {
    return false;
  }
}

TEST(CheckpointMutation, ACutAtEveryByteLoadsExactlyTheWholeRecords) {
  const std::string& text = e5_records();
  Checkpoint full("e5-quick", kE5MasterSeed);
  full.load(text);
  ASSERT_EQ(full.size(), 60u);
  ASSERT_EQ(full.stats().accepted, 60u);
  // The file is in (cell_index, replicate) order, one record a line, so
  // line i holds the i-th record of the map; ends[i] is its newline.
  std::vector<const std::pair<const Checkpoint::Key, ReplicateResult>*>
      records;
  for (const auto& entry : full.records()) records.push_back(&entry);
  std::vector<std::size_t> ends;
  for (std::size_t at = text.find('\n'); at != std::string::npos;
       at = text.find('\n', at + 1)) {
    ends.push_back(at);
  }
  ASSERT_EQ(ends.size(), records.size());

  std::size_t whole = 0;  // records whose bytes all precede the cut
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    Checkpoint checkpoint("e5-quick", kE5MasterSeed);
    ASSERT_NO_THROW(checkpoint.load(std::string_view(text).substr(0, cut)))
        << "cut " << cut;
    ASSERT_EQ(checkpoint.size(), whole) << "cut " << cut;
    for (std::size_t i = 0; i < whole; ++i) {
      const ReplicateResult* got =
          checkpoint.find(records[i]->first.first, records[i]->first.second);
      ASSERT_NE(got, nullptr) << "cut " << cut << " record " << i;
      ASSERT_TRUE(results_equal(*got, records[i]->second))
          << "cut " << cut << " record " << i;
    }
    EXPECT_EQ(checkpoint.stats().malformed, 0u) << "cut " << cut;
    // Only a cut inside a line, short of its last byte, tears it.
    const bool torn = cut > 0 && text[cut - 1] != '\n' &&
                      cut < text.size() && text[cut] != '\n';
    EXPECT_EQ(checkpoint.stats().torn_tail, torn) << "cut " << cut;
  }
}

TEST(CheckpointMutation, BitFlipsLoadOrAreRefusedWithAnArgumentError) {
  const std::string& text = e5_records();
  ASSERT_TRUE(loads(text));
  Rng rng(2101);
  int loaded = 0;
  int refused = 0;
  for (int flip = 0; flip < 2000; ++flip) {
    std::string mutant = text;
    const std::size_t at = rng.below(mutant.size());
    mutant[at] = static_cast<char>(mutant[at] ^ (1 << rng.below(8)));
    (loads(mutant) ? loaded : refused) += 1;
  }
  // Both outcomes occur, or the flips are not reaching the reader.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
}

TEST(CheckpointMutation, SplicesLoadOrAreRefusedWithAnArgumentError) {
  const std::string& text = e5_records();
  Rng rng(2102);
  int loaded = 0;
  int refused = 0;
  for (int splice = 0; splice < 2000; ++splice) {
    // A prefix of the file joined to a suffix of it: records repeated,
    // dropped, or glued mid-line to another record's tail.
    const std::size_t head = rng.below(text.size() + 1);
    const std::size_t tail = rng.below(text.size() + 1);
    (loads(text.substr(0, head) + text.substr(tail)) ? loaded : refused) += 1;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
}

// -------------------------------------------------------- sink crash-safety ----

TEST(SinkCrashSafety, WriteReplicateThrowsWhenTheStreamHasFailed) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  Cell cell;
  cell.n = 64;
  sink.write_replicate("tiny", kSeed, cell, 0, 0, full_result(11));
  out.setstate(std::ios::badbit);  // the disk just filled up
  EXPECT_THROW(
      sink.write_replicate("tiny", kSeed, cell, 0, 1, full_result(12)),
      IoError);
}

TEST(SinkCrashSafety, AppendModeSealsATornTail) {
  const std::string path =
      testing::TempDir() + "checkpoint_test_append.jsonl";
  const std::string full = record_lines(
      {{{0, 0}, full_result(11)}, {{0, 1}, full_result(12)}});
  {
    // Simulate a killed writer: first record intact, second torn mid-line.
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << full.substr(0, full.find('\n') + 1 + 25);
  }
  {
    JsonLinesSink sink(path, JsonLinesSink::Mode::kAppend);
    Cell cell;
    cell.label = "cell \"quoted\"\\backslash";
    cell.n = 64;
    sink.write_replicate("tiny", kSeed, cell, 0, 1, full_result(12));
  }
  Checkpoint checkpoint("tiny", kSeed);
  checkpoint.load_file(path);
  // The sealed debris is one malformed interior line; both real records
  // survive and nothing is torn any more.
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(checkpoint.stats().malformed, 1u);
  EXPECT_FALSE(checkpoint.stats().torn_tail);
  std::remove(path.c_str());
}

TEST(SinkCrashSafety, AppendModeOnCleanOrMissingFileAddsNothing) {
  const std::string path =
      testing::TempDir() + "checkpoint_test_append_clean.jsonl";
  std::remove(path.c_str());
  {
    JsonLinesSink sink(path, JsonLinesSink::Mode::kAppend);
    Cell cell;
    cell.n = 64;
    sink.write_replicate("tiny", kSeed, cell, 0, 0, full_result(11));
  }
  {
    JsonLinesSink sink(path, JsonLinesSink::Mode::kAppend);
    Cell cell;
    cell.n = 64;
    sink.write_replicate("tiny", kSeed, cell, 0, 1, full_result(12));
  }
  Checkpoint checkpoint("tiny", kSeed);
  checkpoint.load_file(path);
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(checkpoint.stats().malformed, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geogossip::exp
