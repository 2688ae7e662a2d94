#include "obs/heartbeat.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "obs/memory.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"
#include "support/retry.hpp"

namespace geogossip::obs {

namespace {

/// Heartbeat lines carry a few free-form strings (scenario, worker,
/// lease); keep the escaping local rather than dragging in the sink's
/// JSON helpers.
std::string json_escape_min(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::int64_t unix_millis_now() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Heartbeat::Heartbeat(Options options)
    : options_(std::move(options)), total_(options_.total_replicates) {
  GG_CHECK_ARG(!options_.path.empty(), "Heartbeat: path must not be empty");
  GG_CHECK_ARG(options_.interval_seconds > 0.0,
               "Heartbeat: interval_seconds must be positive");
  // A crashed predecessor can leave its half-written temp behind; the
  // temp name is derived from our (unique-per-writer) path, so the
  // debris is ours to sweep.
  std::error_code ec;
  if (std::filesystem::remove(options_.path + ".tmp", ec)) {
    log_warn("heartbeat: swept stale temp file " + options_.path + ".tmp");
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
  std::string line = "{\"record\":\"heartbeat\",\"scenario\":\"";
  line += json_escape_min(options_.scenario);
  line += "\",\"shard_index\":";
  line += std::to_string(options_.shard_index);
  line += ",\"shard_count\":";
  line += std::to_string(options_.shard_count);
  line += ",\"completed\":";
  line += std::to_string(completed_);
  line += ",\"total\":";
  line += std::to_string(total_);
  line += ",\"cell\":";
  line += std::to_string(current_cell_);
  line += ",\"replicate\":";
  line += std::to_string(current_replicate_);
  line += ",\"rss_kb\":";
  line += std::to_string(max_rss_kb());
  line += ",\"flush_unix_ms\":";
  line += std::to_string(unix_millis_now());
  if (!options_.worker.empty()) {
    line += ",\"worker\":\"";
    line += json_escape_min(options_.worker);
    line += "\"";
  }
  if (!leases_.empty()) {
    line += ",\"leases\":[";
    for (std::size_t i = 0; i < leases_.size(); ++i) {
      if (i != 0) line += ",";
      line += "\"";
      line += json_escape_min(leases_[i]);
      line += "\"";
    }
    line += "]";
  }
  line += ",\"seq\":";
  line += std::to_string(seq_);
  line += "}\n";
  lines_ += line;
  ++seq_;
  return lines_;
}

void Heartbeat::commit(const std::string& image) {
  // Write the whole image to a sibling temp file and rename it over the
  // target: readers either see the previous complete file or the new
  // one, never a prefix of a line.  Transient failures (shared-fs blips)
  // are retried; a final failure is logged, never thrown — heartbeats
  // must not kill the host sweep.
  const std::string tmp = options_.path + ".tmp";
  retry_io_or_log(
      RetryPolicy{}, "heartbeat: committing " + options_.path, [&] {
        {
          std::ofstream out(tmp, std::ios::trunc);
          if (!out.is_open()) return false;
          out << image;
          out.flush();
          if (!out.good()) return false;
        }
        std::error_code ec;
        std::filesystem::rename(tmp, options_.path, ec);
        return !ec;
      });
}

}  // namespace geogossip::obs
