#include "fleet/status.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iomanip>
#include <optional>
#include <sstream>
#include <system_error>

#include "obs/heartbeat.hpp"
#include "support/check.hpp"
#include "support/durable_file.hpp"
#include "support/read_file.hpp"
#include "support/json.hpp"

namespace geogossip::fleet {

namespace {

namespace fs = std::filesystem;

/// The owner a done marker names; "?" when it cannot be read or parsed.
std::string done_marker_owner(const fs::path& path) {
  const std::optional<std::string> text = read_file(path.string());
  if (!text) return "?";
  try {
    const JsonValue doc = parse_json(*text);
    if (const JsonValue* owner = doc.get("owner")) return owner->text;
  } catch (const JsonParseError&) {
  }
  return "?";
}

/// A worker as its heartbeat file's last line reports it.
WorkerStatus read_heartbeat(const fs::path& path) {
  WorkerStatus worker;
  worker.worker = path.stem().string();
  std::string text = read_file(path.string()).value_or("");
  while (!text.empty() && text.back() == '\n') text.pop_back();
  if (auto beat = obs::parse_heartbeat_line(
          std::string_view(text).substr(text.rfind('\n') + 1))) {
    worker.readable = true;
    worker.completed = beat->completed;
    worker.total = beat->total;
    worker.leases = std::move(beat->leases);
  }
  return worker;
}

/// Seconds to one decimal, without touching the caller's stream state.
std::string tenths(double seconds) {
  std::ostringstream text;
  text << std::fixed << std::setprecision(1) << seconds;
  return text.str();
}

}  // namespace

bool FleetStatus::complete() const {
  if (batches.empty()) return false;
  for (const auto& [id, batch] : batches) {
    if (!batch.done) return false;
  }
  return true;
}

FleetStatus inspect(const std::string& fleet_dir) {
  FleetStatus status;
  const auto plan = try_load_plan(fleet_dir);
  if (!plan) {
    throw ArgumentError("'" + fleet_dir +
                        "' holds no plan.json — not a fleet directory, or "
                        "its planner has not committed yet");
  }
  status.plan = *plan;
  status.inspected_unix_ms = LeaseStore::now_unix_ms();
  for (std::uint32_t batch = 0; batch < plan->batches; ++batch) {
    status.batches[batch];
  }

  const LeaseStore store(fleet_dir);
  for (const std::uint32_t batch : store.queued()) {
    status.batches[batch].queued = true;
  }
  for (Lease& lease : store.leases()) {
    status.batches[lease.batch].leases.push_back(std::move(lease));
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(done_dir(fleet_dir), ec)) {
    std::uint32_t batch = 0;
    if (parse_done_marker_filename(entry.path().filename().string(),
                                   &batch)) {
      status.batches[batch].done = true;
      status.batches[batch].done_by = done_marker_owner(entry.path());
    }
  }
  for (const std::string& file : all_record_files(fleet_dir)) {
    std::uint32_t batch = 0;
    parse_records_filename(fs::path(file).filename().string(), &batch);
    ++status.batches[batch].record_files;
  }

  for (const auto& entry : fs::directory_iterator(hb_dir(fleet_dir), ec)) {
    if (entry.path().extension() == ".jsonl") {
      status.workers.push_back(read_heartbeat(entry.path()));
    }
  }
  std::sort(status.workers.begin(), status.workers.end(),
            [](const WorkerStatus& a, const WorkerStatus& b) {
              return a.worker < b.worker;
            });
  for (const auto& entry : fs::directory_iterator(snaps_dir(fleet_dir), ec)) {
    if (entry.path().extension() == ".ggsnap") {
      status.snapshots.push_back(entry.path().filename().string());
    }
  }
  std::sort(status.snapshots.begin(), status.snapshots.end());

  // Temp mtimes move to the lease clock (unix ms) through one reading of
  // each clock.
  const auto file_now = fs::file_time_type::clock::now();
  for (const auto& entry :
       fs::recursive_directory_iterator(fleet_dir, ec)) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) ||
        durable_temp_target(entry.path().filename().string()).empty()) {
      continue;
    }
    const auto mtime = entry.last_write_time(entry_ec);
    if (entry_ec) continue;
    status.temps.push_back(
        {fs::relative(entry.path(), fleet_dir, entry_ec).string(),
         status.inspected_unix_ms +
             std::chrono::duration_cast<std::chrono::milliseconds>(
                 mtime - file_now)
                 .count()});
  }
  std::sort(status.temps.begin(), status.temps.end(),
            [](const TempFile& a, const TempFile& b) {
              return a.path < b.path;
            });
  return status;
}

void print_status(std::ostream& out, const FleetStatus& status) {
  const FleetPlan& plan = status.plan;
  out << "fleet: scenario '" << plan.scenario << "' seed "
      << plan.master_seed << " — " << plan.cells << " cell(s) x "
      << plan.replicates << " replicate(s) over " << plan.batches
      << " batch(es)\n";
  std::size_t done = 0;
  for (const auto& [id, batch] : status.batches) done += batch.done ? 1 : 0;
  out << "progress: " << done << "/" << status.batches.size()
      << " batch(es) done" << (status.complete() ? " — COMPLETE" : "")
      << "\n";

  for (const auto& [id, batch] : status.batches) {
    out << "  batch " << id << ": ";
    if (batch.done) {
      out << "done (by " << batch.done_by << ")";
    } else if (!batch.leases.empty()) {
      out << "leased: ";
      for (std::size_t i = 0; i < batch.leases.size(); ++i) {
        const Lease& lease = batch.leases[i];
        const double left =
            static_cast<double>(lease.expires_unix_ms -
                                status.inspected_unix_ms) /
            1000.0;
        out << (i == 0 ? "" : ", ") << "g" << lease.generation << " "
            << lease.owner << " (";
        if (lease.expires_unix_ms == 0) {
          out << "never renewed — reclaimable";
        } else if (left < 0.0) {
          out << "EXPIRED " << tenths(-left) << "s ago";
        } else {
          out << tenths(left) << "s left";
        }
        out << ")";
      }
    } else if (batch.queued) {
      out << "queued";
    } else {
      out << "STRANDED (no ticket, no lease, no done marker)";
    }
    if (batch.record_files > 0) {
      out << ", " << batch.record_files << " record file(s)";
    }
    out << "\n";
  }

  for (const WorkerStatus& worker : status.workers) {
    out << "worker " << worker.worker << ": ";
    if (!worker.readable) {
      out << "heartbeat unreadable\n";
      continue;
    }
    out << worker.completed << "/" << worker.total << " replicates, ";
    if (worker.leases.empty()) {
      out << "no lease";
    } else {
      out << "leases ";
      for (std::size_t i = 0; i < worker.leases.size(); ++i) {
        out << (i == 0 ? "" : ", ") << worker.leases[i];
      }
    }
    out << "\n";
  }
  if (!status.snapshots.empty()) {
    out << "parked snapshots: " << status.snapshots.size() << "\n";
  }
  if (!status.temps.empty()) {
    out << "temp files in flight: " << status.temps.size() << "\n";
  }
}

std::vector<std::string> violations(const FleetStatus& status,
                                    std::int64_t now_unix_ms) {
  std::vector<std::string> problems;
  const std::uint32_t planned = status.plan.batches;
  if (planned < 1) problems.push_back("plan declares no batches");
  for (const auto& [id, batch] : status.batches) {
    const std::string name = "batch " + std::to_string(id);
    if (id >= planned) {
      problems.push_back(name + " is outside the plan's " +
                         std::to_string(planned) + " batch(es)");
    }
    if (!batch.done && !batch.queued && batch.leases.empty()) {
      problems.push_back(name +
                         " is stranded: no ticket, no lease, no done marker "
                         "— no worker will ever pick it up");
    }
  }

  if (status.complete()) {
    for (const auto& [id, batch] : status.batches) {
      if (batch.queued) {
        problems.push_back(
            "complete fleet still has a queue ticket for batch " +
            std::to_string(id));
      }
      for (const Lease& lease : batch.leases) {
        problems.push_back(
            "complete fleet still has lease leases/" +
            lease_filename(lease.batch, lease.generation, lease.owner));
      }
    }
    for (const std::string& name : status.snapshots) {
      problems.push_back("complete fleet still has parked snapshot snaps/" +
                         name);
    }
    for (const TempFile& temp : status.temps) {
      problems.push_back("complete fleet still has temp debris " + temp.path);
    }
    return problems;
  }
  for (const TempFile& temp : status.temps) {
    const double age_seconds =
        static_cast<double>(now_unix_ms - temp.mtime_unix_ms) / 1000.0;
    if (age_seconds > kStaleTempAgeSeconds) {
      problems.push_back("stale temp file " + temp.path + " (" +
                         std::to_string(static_cast<std::int64_t>(
                             age_seconds)) +
                         "s old — crash debris)");
    }
  }
  return problems;
}

}  // namespace geogossip::fleet
