// The one way this codebase commits a file: write a writer-unique sibling
// temp, fsync it, rename(2) it over the target, fsync the parent
// directory.  A reader sees the previous complete file or the new one,
// never a prefix; after the call returns the new content survives a
// power cut.
//
// Temp names are "<target>.tmp.<pid>-<nonce>-<counter>": the nonce is a
// per-process random number, so two hosts sharing a fleet directory that
// happen to reuse a pid still never write one temp, and the counter
// separates threads and successive commits of one process.  Two writers
// committing the same target concurrently therefore both succeed — the
// last rename wins, whole.
//
// A writer killed between create and rename leaves its temp behind.
// durable_temp_target recognises such debris (and names the file it was
// meant for); sweep_durable_temps is the one age-gated sweeper.
#ifndef GEOGOSSIP_SUPPORT_DURABLE_FILE_HPP
#define GEOGOSSIP_SUPPORT_DURABLE_FILE_HPP

#include <string>
#include <string_view>
#include <vector>

namespace geogossip {

/// What a commit promises across a power cut.  Every writer gets kFsync
/// except the fleet planner's layout (see fleet::ensure_plan): a plan is
/// re-derived by the next election if a power cut loses it, and founding
/// a fleet must stay cheap.
enum class Sync { kFsync, kNoFsync };

/// Atomically replaces `path` with `content` (see the file comment).
/// Returns false on any failure, after removing its own temp; `error`
/// (when non-null) receives the reason.  A false return after the rename
/// means the new content is visible but its directory entry may not be
/// durable yet.  Never throws on I/O failure — callers choose the policy
/// (retry, log or throw).
bool write_durable_file(const std::string& path, std::string_view content,
                        std::string* error = nullptr,
                        Sync sync = Sync::kFsync);

/// A fresh temp path for `target`, unique per call (the names
/// write_durable_file writes to).
std::string durable_temp_path(const std::string& target);

/// For a filename produced as a write_durable_file temp, the filename of
/// the target it was meant to replace; empty for any other name.
std::string_view durable_temp_target(std::string_view name) noexcept;

/// The age from which a temp counts as a dead writer's debris: a live
/// writer, on this host or another sharing the directory, renames its
/// temp within milliseconds.
constexpr double kStaleTempAgeSeconds = 300.0;

/// Removes the write_durable_file temps in `dir` whose last write is at
/// least `min_age_seconds` old (0 removes them all) — of the file named
/// `target` only, when given.  A temp younger than the age may belong to
/// a live writer on another host.  Returns the paths removed; never
/// throws (a missing directory removes nothing).
std::vector<std::string> sweep_durable_temps(const std::string& dir,
                                             double min_age_seconds,
                                             std::string_view target = {});

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_DURABLE_FILE_HPP
