// Tests for the one durable-file writer (src/support/durable_file.*): the
// commit itself, writer-unique temp names, the temp recogniser, failure
// cleanup and the age-gated sweep.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/durable_file.hpp"

namespace geogossip {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ggdurable_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> names_in(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

void touch(const std::string& path) { std::ofstream(path) << "debris"; }

TEST(DurableFile, CommitsAndReplacesWithoutLeavingATemp) {
  const std::string dir = fresh_dir("commit");
  const std::string path = dir + "/state.json";
  std::string error;
  ASSERT_TRUE(write_durable_file(path, "first\n", &error)) << error;
  EXPECT_EQ(slurp(path), "first\n");
  ASSERT_TRUE(write_durable_file(path, "second\n", &error)) << error;
  EXPECT_EQ(slurp(path), "second\n");
  ASSERT_TRUE(write_durable_file(path, "third\n", nullptr, Sync::kNoFsync));
  EXPECT_EQ(slurp(path), "third\n");
  EXPECT_EQ(names_in(dir), std::vector<std::string>{"state.json"});
}

TEST(DurableFile, TempNamesAreUniquePerWriterAndRecognised) {
  const std::string target = "/fleet/done/batch-3.json";
  std::set<std::string> names;
  std::vector<std::thread> writers;
  std::mutex mu;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        const std::string temp = durable_temp_path(target);
        std::lock_guard<std::mutex> lock(mu);
        names.insert(temp);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(names.size(), 400u);
  for (const std::string& temp : names) {
    EXPECT_EQ(durable_temp_target(fs::path(temp).filename().string()),
              "batch-3.json")
        << temp;
  }
}

TEST(DurableFile, RecogniserRejectsEverythingElse) {
  for (const std::string name :
       {"plan.json", "x.tmp", "x.tmp.", "x.tmp.123", ".tmp.1-ab-2",
        "x.tmp.1-ab", "x.tmp.1-AB-2", "x.tmp.1-ab-2-3", "x.tmp.1-ab-2x",
        "x.tmp.-ab-2", "x.tmp.1--2", "x.tmp.1-ab-"}) {
    EXPECT_EQ(durable_temp_target(name), "") << name;
  }
  EXPECT_EQ(durable_temp_target("a.tmp.b.tmp.12-0f-3"), "a.tmp.b");
}

TEST(DurableFile, AFailedCommitRemovesItsOwnTemp) {
  const std::string dir = fresh_dir("fail");
  // A non-empty directory where the target should be: the rename fails
  // after the temp is written and synced.
  const std::string target = dir + "/occupied";
  fs::create_directories(target + "/child");
  std::string error;
  EXPECT_FALSE(write_durable_file(target, "payload", &error));
  EXPECT_NE(error.find("occupied"), std::string::npos) << error;
  EXPECT_EQ(names_in(dir), std::vector<std::string>{"occupied"});

  // No directory at all: nothing is created, the reason is reported.
  error.clear();
  EXPECT_FALSE(write_durable_file(dir + "/missing/f.json", "x", &error));
  EXPECT_FALSE(error.empty());
}

TEST(DurableFile, AgeGatedSweepRemovesOldDebrisAndKeepsFreshTemps) {
  const std::string dir = fresh_dir("sweep");
  const std::string old_temp = durable_temp_path(dir + "/a.json");
  const std::string fresh_temp = durable_temp_path(dir + "/a.json");
  const std::string other_temp = durable_temp_path(dir + "/b.json");
  for (const std::string& path :
       {old_temp, fresh_temp, other_temp, dir + "/a.json", dir + "/x.tmp"}) {
    touch(path);
  }
  const auto hour_ago =
      fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(old_temp, hour_ago);
  fs::last_write_time(other_temp, hour_ago);

  // Target filter: only b.json's debris goes.
  EXPECT_EQ(sweep_durable_temps(dir, 60.0, "b.json"),
            std::vector<std::string>{other_temp});
  // Age gate: the fresh temp may be a live writer's; it stays.
  EXPECT_EQ(sweep_durable_temps(dir, 60.0),
            std::vector<std::string>{old_temp});
  EXPECT_TRUE(fs::exists(fresh_temp));
  // Age 0 sweeps every temp; foreign files are never touched.
  EXPECT_EQ(sweep_durable_temps(dir, 0.0),
            std::vector<std::string>{fresh_temp});
  EXPECT_TRUE(fs::exists(dir + "/a.json"));
  EXPECT_TRUE(fs::exists(dir + "/x.tmp"));
  EXPECT_TRUE(sweep_durable_temps(dir + "/missing", 0.0).empty());
}

}  // namespace
}  // namespace geogossip
