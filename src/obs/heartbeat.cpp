#include "obs/heartbeat.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>

#include "obs/memory.hpp"
#include "support/check.hpp"
#include "support/durable_file.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/retry.hpp"

namespace geogossip::obs {

namespace {

std::int64_t unix_millis_now() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// `text` as a JSON string literal.  (Appended, not concatenated with
/// operator+: gcc 12's -Wrestrict misfires on that, GCC bug 105651.)
std::string json_string(std::string_view text) {
  std::string out(1, '"');
  out += json_escape(text);
  out += '"';
  return out;
}

/// `value` as a count: a digits-only token that fits 64 bits.
std::optional<std::uint64_t> as_count(const JsonValue* value) {
  if (value == nullptr || value->kind != JsonValue::Kind::kNumber ||
      !value->is_uint) {
    return std::nullopt;
  }
  return value->uint_value;
}

}  // namespace

std::optional<HeartbeatLine> parse_heartbeat_line(std::string_view line) {
  JsonValue beat;
  try {
    beat = parse_json(line);
  } catch (const JsonParseError&) {
    return std::nullopt;
  }
  if (beat.kind != JsonValue::Kind::kObject) return std::nullopt;

  HeartbeatLine parsed;
  const std::pair<const char*, std::uint64_t*> counts[] = {
      {"completed", &parsed.completed},
      {"total", &parsed.total},
      {"seq", &parsed.seq}};
  std::string non_count;
  for (const auto& [key, target] : counts) {
    if (const auto count = as_count(beat.get(key))) {
      *target = *count;
    } else if (non_count.empty() && beat.get(key) != nullptr) {
      non_count = key;
    }
  }
  if (const JsonValue* leases = beat.get("leases")) {
    for (const JsonValue& lease : leases->elements) {
      parsed.leases.push_back(lease.text);
    }
  } else if (const JsonValue* lease = beat.get("lease")) {
    parsed.leases.push_back(lease->text);
  }

  const JsonValue* record = beat.get("record");
  std::string missing;
  for (const std::string_view key : kHeartbeatKeys) {
    if (beat.get(key) == nullptr) {
      missing += missing.empty() ? "" : ", ";
      missing += key;
    }
  }
  if (record == nullptr || record->kind != JsonValue::Kind::kString ||
      record->text != "heartbeat") {
    parsed.schema_problem = "record != heartbeat";
  } else if (!missing.empty()) {
    parsed.schema_problem = "missing keys: " + missing;
  } else if (!non_count.empty()) {
    parsed.schema_problem = non_count + " is not a count";
  }
  return parsed;
}

Heartbeat::Heartbeat(Options options)
    : options_(std::move(options)), total_(options_.total_replicates) {
  GG_CHECK_ARG(!options_.path.empty(), "Heartbeat: path must not be empty");
  GG_CHECK_ARG(options_.interval_seconds > 0.0,
               "Heartbeat: interval_seconds must be positive");
  // A crashed predecessor can leave its half-written temp behind; the
  // path is unique per writer, so any temp of it is ours to sweep.
  const std::filesystem::path target(options_.path);
  for (const std::string& swept : sweep_durable_temps(
           target.has_parent_path() ? target.parent_path().string() : ".",
           0.0, target.filename().string())) {
    log_warn("heartbeat: swept stale temp file " + swept);
  }
  std::string image;
  {
    std::lock_guard<std::mutex> lock(mu_);
    image = compose_locked();
  }
  commit(image);
  thread_ = std::thread([this] { loop(); });
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::note_start(std::int64_t cell_index, std::int64_t replicate) {
  std::lock_guard<std::mutex> lock(mu_);
  current_cell_ = cell_index;
  current_replicate_ = replicate;
}

void Heartbeat::note_done() {
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
}

void Heartbeat::add_completed(std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  completed_ += count;
}

void Heartbeat::add_total(std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  total_ += count;
}

void Heartbeat::add_lease(std::string lease) {
  std::lock_guard<std::mutex> lock(mu_);
  leases_.push_back(std::move(lease));
}

void Heartbeat::remove_lease(const std::string& lease) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(leases_.begin(), leases_.end(), lease);
  if (it != leases_.end()) leases_.erase(it);
}

void Heartbeat::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::string image;
  {
    std::lock_guard<std::mutex> lock(mu_);
    image = compose_locked();  // final beat carries the end-state counts
    stopped_ = true;
  }
  commit(image);
}

std::uint64_t Heartbeat::beats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

void Heartbeat::loop() {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.interval_seconds));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    const std::string image = compose_locked();
    // Commit without the lock: a retrying filesystem must not block
    // note_start/note_done callers on the simulation's hot path.
    lock.unlock();
    commit(image);
    lock.lock();
  }
}

std::string Heartbeat::compose_locked() {
  const std::string values[] = {json_string("heartbeat"),
                                json_string(options_.scenario),
                                "0",  // shard_index: one shard
                                "1",  // shard_count
                                std::to_string(completed_),
                                std::to_string(total_),
                                std::to_string(current_cell_),
                                std::to_string(current_replicate_),
                                std::to_string(max_rss_kb()),
                                std::to_string(unix_millis_now()),
                                std::to_string(seq_)};
  static_assert(std::size(values) == kHeartbeatKeys.size());
  std::string line;
  for (std::size_t i = 0; i < kHeartbeatKeys.size(); ++i) {
    if (kHeartbeatKeys[i] == "seq") {
      // The optional keys sit before "seq".
      if (!options_.worker.empty()) {
        line += ",\"worker\":";
        line += json_string(options_.worker);
      }
      if (!leases_.empty()) {
        line += ",\"leases\":[";
        for (std::size_t j = 0; j < leases_.size(); ++j) {
          if (j != 0) line += ",";
          line += json_string(leases_[j]);
        }
        line += "]";
      }
    }
    line += i == 0 ? "{\"" : ",\"";
    line += kHeartbeatKeys[i];
    line += "\":";
    line += values[i];
  }
  line += "}\n";
  lines_ += line;
  ++seq_;
  return lines_;
}

void Heartbeat::commit(const std::string& image) {
  // Readers either see the previous complete file or the new one, never
  // a prefix of a line.  Transient failures (shared-fs blips) are
  // retried; a final failure is logged, never thrown — heartbeats must
  // not kill the host sweep.
  retry_io_or_log(RetryPolicy{}, "heartbeat: committing " + options_.path,
                  [&] { return write_durable_file(options_.path, image); });
}

}  // namespace geogossip::obs
