#include "support/durable_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <system_error>

namespace geogossip {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kTempInfix = ".tmp.";

bool fail(std::string* error, const std::string& what, int err) {
  if (error != nullptr) *error = what + ": " + std::strerror(err);
  return false;
}

bool write_all(int fd, std::string_view content) {
  while (!content.empty()) {
    const ssize_t n = ::write(fd, content.data(), content.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    content.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

std::string durable_temp_path(const std::string& target) {
  // Timing-only randomness: never drawn from the experiment streams.
  static const std::uint64_t nonce = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<std::uint64_t> counter{0};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "%ld-%016llx-%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(nonce),
                static_cast<unsigned long long>(counter.fetch_add(1)));
  return target + std::string(kTempInfix) + suffix;
}

bool write_durable_file(const std::string& path, std::string_view content,
                        std::string* error, Sync sync) {
  const std::string tmp = durable_temp_path(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0644);
  if (fd < 0) return fail(error, "cannot create '" + tmp + "'", errno);
  // The file's bytes must be on disk before the rename can publish them,
  // or a power cut could leave the target empty.
  bool ok = write_all(fd, content) &&
            (sync == Sync::kNoFsync || ::fsync(fd) == 0);
  int err = errno;
  if (::close(fd) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    if (ok) err = errno;
    ::unlink(tmp.c_str());
    return fail(error, "committing '" + path + "'", err);
  }
  if (sync == Sync::kNoFsync) return true;
  // The rename lives in the directory; it is durable once that is synced.
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return fail(error, "cannot open '" + dir + "'", errno);
  ok = ::fsync(dir_fd) == 0;
  err = errno;
  ::close(dir_fd);
  return ok || fail(error, "syncing '" + dir + "'", err);
}

std::string_view durable_temp_target(std::string_view name) noexcept {
  const std::size_t at = name.rfind(kTempInfix);
  if (at == std::string_view::npos || at == 0) return {};
  // The writer's id: "<pid>-<nonce>-<counter>".
  const std::string_view id = name.substr(at + kTempInfix.size());
  const bool ok = id.find_first_not_of("0123456789abcdef-") ==
                      std::string_view::npos &&
                  std::count(id.begin(), id.end(), '-') == 2 &&
                  id.front() != '-' && id.back() != '-' &&
                  id.find("--") == std::string_view::npos;
  return ok ? name.substr(0, at) : std::string_view{};
}

std::vector<std::string> sweep_durable_temps(const std::string& dir,
                                             double min_age_seconds,
                                             std::string_view target) {
  std::vector<std::string> removed;
  const auto now = fs::file_time_type::clock::now();
  const auto min_age =
      std::chrono::duration_cast<fs::file_time_type::duration>(
          std::chrono::duration<double>(min_age_seconds));
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const std::string_view of = durable_temp_target(name);
    if (of.empty() || (!target.empty() && of != target)) continue;
    std::error_code entry_ec;
    const auto mtime = entry.last_write_time(entry_ec);
    if (entry_ec || now - mtime < min_age) continue;
    if (fs::remove(entry.path(), entry_ec)) {
      removed.push_back(entry.path().string());
    }
  }
  return removed;
}

}  // namespace geogossip
