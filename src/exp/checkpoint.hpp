// Checkpoint model for resumable sweeps and fleet merges.
//
// A running sweep streams one JSON-lines record per finished replicate
// (JsonLinesSink::write_replicate, flushed after every line), keyed by
// (scenario, master_seed, cell_index, replicate).  Checkpoint reads such a
// file — possibly truncated mid-record by a killed process — back into a
// completed-set carrying the full ReplicateResult, so the Runner can skip
// finished work and re-ingest its results: resumed aggregates are
// bit-identical to an uninterrupted run at any thread count.
//
// Tolerance policy (each case is tested in tests/checkpoint_test.cpp):
//   - empty file: a valid, empty checkpoint
//   - torn final line (no trailing newline): expected crash debris —
//     skipped, stats().torn_tail set.  Exception: a tail that parses as a
//     complete record lost only its newline and is accepted as-is
//   - unparsable or incomplete interior line: skipped and counted in
//     stats().malformed; the worst case is deterministically re-running one
//     replicate
//   - record from another (scenario, master_seed): skipped and counted in
//     stats().foreign — concatenated outputs of different sweeps stay
//     loadable
//   - duplicate key with an IDENTICAL payload: kept once, counted in
//     stats().duplicate
//   - duplicate key with a CONFLICTING payload: throws ArgumentError — two
//     different results for one deterministic replicate mean corrupted or
//     mismatched inputs, and silently picking one would poison the merge
#ifndef GEOGOSSIP_EXP_CHECKPOINT_HPP
#define GEOGOSSIP_EXP_CHECKPOINT_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "exp/scenario.hpp"

namespace geogossip::exp {

/// What Checkpoint::load saw, accumulated across load() calls so a fleet
/// merge reports totals.  Drivers surface non-zero counters as warnings.
struct CheckpointStats {
  std::size_t accepted = 0;    ///< replicate records added to the set
  std::size_t duplicate = 0;   ///< identical payload for an existing key
  std::size_t foreign = 0;     ///< other (scenario, master_seed) records
  std::size_t malformed = 0;   ///< unparsable/incomplete interior lines
  std::size_t other_lines = 0; ///< non-replicate records (cell summaries)
  bool torn_tail = false;      ///< final line was crash debris
};

/// Logs each non-zero anomaly of `stats` as a warning led by `context`
/// ("resume" for --resume, "fleet: batch 3" for a fleet batch's fold):
/// malformed lines, foreign and duplicate records, and a torn tail.  The
/// leveled logger, not bare stderr: unattended sweeps read these from
/// piped logs, where the timestamp and severity prefix is what makes them
/// correlatable with heartbeat files.
void log_checkpoint_anomalies(const CheckpointStats& stats,
                              std::string_view context);

/// Completed-set of replicate records for ONE (scenario, master_seed).
class Checkpoint {
 public:
  /// (cell_index, replicate) — the durable slot identity within a sweep.
  using Key = std::pair<std::size_t, std::uint32_t>;

  Checkpoint(std::string scenario, std::uint64_t master_seed);

  /// Parses one JSON-lines text into the set (see the tolerance policy
  /// above).  May be called repeatedly to fold record files together;
  /// throws ArgumentError on conflicting payloads for the same key.
  void load(std::string_view text);
  /// Reads and loads `path`; throws ArgumentError if it cannot be read (a
  /// directory included).
  void load_file(const std::string& path);

  const std::string& scenario() const noexcept { return scenario_; }
  std::uint64_t master_seed() const noexcept { return master_seed_; }
  const CheckpointStats& stats() const noexcept { return stats_; }

  std::size_t size() const noexcept { return records_.size(); }
  bool contains(std::size_t cell_index, std::uint32_t replicate) const;
  /// The persisted result for a completed pair, or nullptr.
  const ReplicateResult* find(std::size_t cell_index,
                              std::uint32_t replicate) const;
  /// Ordered map of every completed pair (merge validation walks this).
  const std::map<Key, ReplicateResult>& records() const noexcept {
    return records_;
  }

 private:
  std::string scenario_;
  std::uint64_t master_seed_ = 0;
  std::map<Key, ReplicateResult> records_;
  CheckpointStats stats_;
};

/// Field-for-field equality over everything write_replicate persists (seed,
/// convergence, errors, per-category transmissions, exchange counts,
/// metrics).  NaN compares equal to NaN — two loads of one record are a
/// duplicate, never a conflict.  Used to tell benign duplicates from
/// conflicting records.
bool results_equal(const ReplicateResult& a,
                   const ReplicateResult& b) noexcept;

/// Round-robin shard partition over the flattened (cell_index, replicate)
/// task stream (task = cell_index * replicates + replicate): shard i of k
/// owns the tasks with task % k == i.  Every shard touches every cell
/// whenever k <= replicates, so long-running XL cells spread across
/// fleet batches instead of serializing onto one.  shard_count <= 1 owns
/// everything.
inline bool shard_owns(std::uint32_t shard_index, std::uint32_t shard_count,
                       std::size_t task) noexcept {
  return shard_count <= 1 || task % shard_count == shard_index;
}

}  // namespace geogossip::exp

#endif  // GEOGOSSIP_EXP_CHECKPOINT_HPP
