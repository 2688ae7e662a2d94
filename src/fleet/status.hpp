// Reading a fleet directory from the outside: the board a human watches
// and the invariants a finished fleet must satisfy.
//
// inspect() takes one pass over the directory with the fleet's own
// readers (the plan, the lease store, the done-marker and record
// filenames, the durable-file temp recogniser) plus the last line of each
// worker's heartbeat.  print_status() renders it; violations() lists what
// is wrong with it.  `--fleet-merge` prints the board and merges only a
// complete fleet with no violation.
#ifndef GEOGOSSIP_FLEET_STATUS_HPP
#define GEOGOSSIP_FLEET_STATUS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "fleet/lease.hpp"
#include "fleet/plan.hpp"

namespace geogossip::fleet {

struct BatchStatus {
  bool queued = false;        ///< an unclaimed ticket exists
  std::vector<Lease> leases;  ///< every lease file, by generation
  bool done = false;          ///< a done marker exists
  std::string done_by;        ///< the marker's owner; "?" when unreadable
  std::size_t record_files = 0;
};

struct WorkerStatus {
  std::string worker;
  bool readable = false;  ///< the last heartbeat line parsed
  std::uint64_t completed = 0;
  std::uint64_t total = 0;
  std::vector<std::string> leases;  ///< lease labels, in claim order
};

struct TempFile {
  std::string path;  ///< fleet-dir-relative
  std::int64_t mtime_unix_ms = 0;
};

struct FleetStatus {
  FleetPlan plan;
  /// Wall-clock time of the pass; the board's lease freshness is
  /// relative to it.
  std::int64_t inspected_unix_ms = 0;
  /// Every planned batch, plus any other batch id found on disk.
  std::map<std::uint32_t, BatchStatus> batches;
  std::vector<WorkerStatus> workers;   ///< by worker id
  std::vector<std::string> snapshots;  ///< parked snaps/ file names
  std::vector<TempFile> temps;         ///< write_durable_file temps, by path

  /// Every batch has a done marker.
  bool complete() const;
};

/// One pass over `fleet_dir`.  Throws ArgumentError when it holds no
/// plan, or a plan this build cannot interpret (see try_load_plan).
FleetStatus inspect(const std::string& fleet_dir);

/// The board: the plan, each batch's state (queued, leased with owner,
/// generation and expiry, done, stranded), each worker's last heartbeat,
/// and counts of parked snapshots and temps.
void print_status(std::ostream& out, const FleetStatus& status);

/// The fleet invariants `status` breaks, one message each:
///   - the plan declares at least one batch, and no batch id lies
///     outside it;
///   - every batch has a ticket, a lease or a done marker (otherwise no
///     worker will ever run it);
///   - a complete fleet holds no ticket, lease, parked snapshot or temp;
///   - a fleet in flight holds no temp older than kStaleTempAgeSeconds
///     at `now_unix_ms`.
/// Expired leases are not violations: reclaiming them is the protocol.
std::vector<std::string> violations(const FleetStatus& status,
                                    std::int64_t now_unix_ms);

}  // namespace geogossip::fleet

#endif  // GEOGOSSIP_FLEET_STATUS_HPP
