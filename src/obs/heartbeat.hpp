// Periodic heartbeat files: the liveness signal for unattended sweeps.
//
// A Heartbeat owns a background thread that, every `interval_seconds`,
// appends one JSON line — completed/total replicate counts, the most
// recently started (cell, replicate), the process RSS high-water and the
// flush wall-clock timestamp — and commits the WHOLE file through
// write_durable_file (support/durable_file.hpp), so a reader (the fleet
// coordinator deciding whether a lease owner is alive, or a human
// tailing a remote run) never observes a torn line: every line of the
// file parses, always.
//
// Heartbeats are observability, not results: a beat failure (full disk,
// revoked mount) is retried with bounded backoff, then logged and
// swallowed — it must never kill an hours-long sweep that is otherwise
// making progress.  The commit runs OUTSIDE the state mutex, so a slow
// or retrying filesystem never blocks note_start/note_done callers on
// the simulation's hot path.
//
// Schema: one object per line carrying the keys of kHeartbeatKeys, in
// that order (README "Observability" shows a line).  "shard_index" and
// "shard_count" are always 0 and 1: they stay so that readers of older
// files and of newer ones see one key set.  Fleet workers add
// two optional keys before "seq": "worker" (the stable worker id) and
// "leases" (every lease currently held, in claim order, e.g.
// ["batch-3.g2","batch-4.g0"] while one batch drains and the next has
// started; absent while none is held).  `cell`/`replicate` are -1 until
// the first replicate starts; `seq` increases by 1 per line, so a stuck
// `seq` means a dead writer.  parse_heartbeat_line is the one reader of
// a line (the fleet board and obs/trace_check).
#ifndef GEOGOSSIP_OBS_HEARTBEAT_HPP
#define GEOGOSSIP_OBS_HEARTBEAT_HPP

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace geogossip::obs {

/// The keys every heartbeat line carries, in the order they are written.
inline constexpr std::array<std::string_view, 11> kHeartbeatKeys = {
    "record", "scenario", "shard_index",   "shard_count", "completed",
    "total",  "cell",     "replicate",     "rss_kb",      "flush_unix_ms",
    "seq"};

/// One heartbeat line as read back.  Counts a line does not carry as a
/// non-negative integer read as 0.
struct HeartbeatLine {
  /// Empty for a line that keeps the schema; otherwise the first breach:
  /// "record != heartbeat", "missing keys: a, b" or "<key> is not a count".
  std::string schema_problem;
  std::uint64_t completed = 0;
  std::uint64_t total = 0;
  std::uint64_t seq = 0;
  /// "leases", or the single "lease" older workers wrote.
  std::vector<std::string> leases;
};

/// Reads one line of a heartbeat file; nullopt when it is not one JSON
/// object.
std::optional<HeartbeatLine> parse_heartbeat_line(std::string_view line);

class Heartbeat {
 public:
  struct Options {
    std::string path;
    double interval_seconds = 5.0;
    std::string scenario;
    /// Replicates this process is expected to account for (owned tasks).
    /// Fleet workers start at 0 and add_total() per leased batch.
    std::uint64_t total_replicates = 0;
    /// Stable worker identity (fleet mode); empty omits the JSON key.
    std::string worker;
  };

  /// Sweeps the temps of `path` a crashed predecessor left, writes
  /// the first beat immediately (a scheduler learns the writer is alive
  /// without waiting a full interval), then starts the timer thread.
  /// Throws ArgumentError on an empty path or a non-positive interval.
  explicit Heartbeat(Options options);
  /// stop()s if the caller has not.
  ~Heartbeat();

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// A replicate began: remembered as the "current" (cell, replicate).
  void note_start(std::int64_t cell_index, std::int64_t replicate);
  /// A replicate finished (and, for streamed sweeps, was persisted).
  void note_done();
  /// Bulk-credit replicates completed without running (checkpoint
  /// re-ingestion on resume).
  void add_completed(std::uint64_t count);
  /// More work became owned (a fleet worker claimed another batch).
  void add_total(std::uint64_t count);
  /// A lease was claimed / given up (shown in the optional "leases" key).
  void add_lease(std::string lease);
  void remove_lease(const std::string& lease);

  /// Writes a final beat and joins the timer thread.  Idempotent.
  void stop();

  /// Lines written so far (tests; includes the initial and final beats).
  std::uint64_t beats() const;

 private:
  void loop();
  /// Appends the next line to the in-memory image and returns a copy of
  /// the image to commit.  Caller holds mu_.
  std::string compose_locked();
  /// Commits a composed image with write_durable_file, retrying
  /// transient failures.  Never called concurrently: the constructor
  /// commits before the thread exists, the thread while it runs, and
  /// stop() after the join.  Caller must NOT hold mu_.
  void commit(const std::string& image);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t total_ = 0;
  std::int64_t current_cell_ = -1;
  std::int64_t current_replicate_ = -1;
  std::vector<std::string> leases_;  ///< held, in claim order
  std::uint64_t seq_ = 0;
  std::string lines_;  ///< full file image, rewritten atomically per beat
  std::thread thread_;
};

}  // namespace geogossip::obs

#endif  // GEOGOSSIP_OBS_HEARTBEAT_HPP
