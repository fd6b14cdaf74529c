// ServeCore behavior through the transport-independent API: streamed
// run/done documents, byte-identity with the batch runner, admission
// control (all-or-nothing bounded-queue rejection, deterministic with and
// without a saturated worker), cold-restart persistence through the disk
// tier, shutdown semantics, and the stats surface.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>

#include "cli/campaign.hpp"
#include "serve/client.hpp"
#include "util/json.hpp"

namespace nobl::serve {
namespace {

constexpr const char* kTwoCellSpec =
    "name = core-test\nalgorithms = fft:64\nbackends = simulate, analytic\n";

/// Thread-safe response collector standing in for a connection.
struct Collector {
  std::mutex mutex;
  std::vector<std::string> lines;

  ServeCore::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    };
  }

  [[nodiscard]] std::vector<JsonValue> docs() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<JsonValue> out;
    out.reserve(lines.size());
    for (const std::string& line : lines) out.push_back(JsonValue::parse(line));
    return out;
  }

  /// Raw `run` objects keyed by seq (byte-level, not DOM).
  [[nodiscard]] std::map<std::uint64_t, std::string> raw_runs() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::map<std::uint64_t, std::string> out;
    for (const std::string& line : lines) {
      const JsonValue doc = JsonValue::parse(line);
      if (doc.at("type").as_string() != "run") continue;
      out[static_cast<std::uint64_t>(doc.at("seq").as_number())] =
          raw_member(line, "run");
    }
    return out;
  }
};

std::string fresh_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("nobl_core_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(ServeCore, StreamsRunsThenDoneInSeqOrderContract) {
  ServeConfig config;
  config.workers = 2;
  ServeCore core(config);
  Collector out;
  core.submit(1, kTwoCellSpec, out.sink());
  core.wait_idle();
  const std::vector<JsonValue> docs = out.docs();
  ASSERT_EQ(docs.size(), 3u);  // 2 run docs + done
  std::size_t runs = 0;
  for (const JsonValue& doc : docs) {
    EXPECT_EQ(doc.at("serve_schema_version").as_number(), kServeSchemaVersion);
    EXPECT_EQ(doc.at("request").as_number(), 1);
    if (doc.at("type").as_string() == "run") {
      ++runs;
      EXPECT_EQ(doc.at("run").at("algorithm").as_string(), "fft");
      const JsonValue& server = doc.at("server");
      EXPECT_EQ(server.at("cache").as_string(), "executed");
      EXPECT_TRUE(server.at("latency_ms").is_number());
      EXPECT_TRUE(server.at("queue_depth").is_number());
    }
  }
  EXPECT_EQ(runs, 2u);
  // done is always last and tallies every cell by tier.
  const JsonValue& done = docs.back();
  ASSERT_EQ(done.at("type").as_string(), "done");
  EXPECT_EQ(done.at("runs").as_number(), 2);
  EXPECT_EQ(done.at("cache").at("executed").as_number(), 2);
  EXPECT_EQ(done.at("cache").at("memory").as_number(), 0);
}

TEST(ServeCore, ServedRunsAreByteIdenticalToBatchRunner) {
  ServeConfig config;
  config.workers = 2;
  ServeCore core(config);
  Collector out;
  core.submit(1, kTwoCellSpec, out.sink());
  core.wait_idle();
  const std::map<std::uint64_t, std::string> served = out.raw_runs();
  ASSERT_EQ(served.size(), 2u);

  // The batch runner's compact run objects, in expansion order.
  const CampaignSpec spec = parse_campaign_spec(kTwoCellSpec);
  const CampaignResult batch = run_campaign(spec, nullptr);
  ASSERT_EQ(batch.runs.size(), 2u);
  std::uint64_t seq = 0;
  for (const RunResult& run : batch.runs) {
    std::ostringstream os;
    JsonWriter w(os, /*indent=*/0);
    write_run_json(w, run);
    EXPECT_EQ(served.at(seq), os.str()) << "seq " << seq;
    ++seq;
  }
}

TEST(ServeCore, SecondRequestIsServedFromMemoryByteIdentically) {
  ServeCore core(ServeConfig{});
  Collector cold;
  Collector hot;
  core.submit(1, kTwoCellSpec, cold.sink());
  core.wait_idle();
  core.submit(2, kTwoCellSpec, hot.sink());
  core.wait_idle();
  EXPECT_EQ(cold.raw_runs(), hot.raw_runs());
  const std::vector<JsonValue> docs = hot.docs();
  EXPECT_EQ(docs.back().at("cache").at("memory").as_number(), 2);
  EXPECT_EQ(docs.back().at("cache").at("executed").as_number(), 0);
}

// Engines are not part of the cache key, so the seq and par:2 cells of one
// kernel share one cached trace. Both workers are held until both cells have
// started, so they evaluate that trace at the same time: first cold (one
// executes, the other waits on it), then from the memory tier. The cache
// builds a trace's tables before publishing it, so evaluation only reads
// the shared trace (this suite runs under TSan in CI).
TEST(ServeCore, TwoWorkersEvaluateOneSharedTraceAtOnce) {
  constexpr const char* kSharedSpec =
      "name = shared\nalgorithms = fft:256\nengines = seq, par:2\n";
  std::mutex mutex;
  std::condition_variable cv;
  unsigned started = 0;
  ServeConfig config;
  config.workers = 2;
  config.on_cell_start = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return started % 2 == 0; });
  };
  ServeCore core(config);

  const CampaignResult batch =
      run_campaign(parse_campaign_spec(kSharedSpec), nullptr, nullptr);
  ASSERT_EQ(batch.runs.size(), 2u);
  for (std::uint64_t request = 1; request <= 2; ++request) {
    SCOPED_TRACE(request == 1 ? "cold" : "memory tier");
    Collector out;
    core.submit(request, kSharedSpec, out.sink());
    core.wait_idle();
    const std::vector<JsonValue> docs = out.docs();
    const JsonValue& cache = docs.back().at("cache");
    EXPECT_EQ(cache.at("executed").as_number(), request == 1 ? 1 : 0);
    if (request == 2) {
      EXPECT_EQ(cache.at("memory").as_number(), 2);
    }
    const std::map<std::uint64_t, std::string> served = out.raw_runs();
    ASSERT_EQ(served.size(), batch.runs.size());
    for (std::uint64_t seq = 0; seq < batch.runs.size(); ++seq) {
      std::ostringstream os;
      JsonWriter w(os, /*indent=*/0);
      write_run_json(w, batch.runs[seq]);
      EXPECT_EQ(served.at(seq), os.str()) << "seq " << seq;
    }
  }
}

TEST(ServeCore, ColdRestartServesFromDiskWithoutExecuting) {
  const std::string dir = fresh_dir("restart");
  Collector cold;
  {
    ServeConfig config;
    config.cache_dir = dir;
    ServeCore core(config);
    core.submit(1, kTwoCellSpec, cold.sink());
    core.wait_idle();
  }
  ServeConfig config;
  config.cache_dir = dir;
  ServeCore warm_core(config);
  Collector warm;
  warm_core.submit(1, kTwoCellSpec, warm.sink());
  warm_core.wait_idle();
  // Same bytes, zero kernel executions: every cell replayed from .nbt.
  EXPECT_EQ(cold.raw_runs(), warm.raw_runs());
  const JsonValue done = warm.docs().back();
  EXPECT_EQ(done.at("cache").at("disk").as_number(), 2);
  EXPECT_EQ(done.at("cache").at("executed").as_number(), 0);
  const ServeStats stats = warm_core.stats();
  EXPECT_EQ(stats.disk_hits, 2u);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.hit_rate, 1.0);
}

TEST(ServeCore, MalformedSpecAnswersBadRequest) {
  ServeCore core(ServeConfig{});
  Collector out;
  core.submit(9, "algorithms = warp-sort\n", out.sink());
  const std::vector<JsonValue> docs = out.docs();
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].at("type").as_string(), "error");
  EXPECT_EQ(docs[0].at("code").as_string(), "bad_request");
  EXPECT_FALSE(docs[0].at("retryable").as_bool());
  EXPECT_NE(docs[0].at("message").as_string().find("warp-sort"),
            std::string::npos);
  // The parser's footprint gates are the same ones `nobl run` enforces.
  Collector oversized;
  core.submit(10, std::string(kMaxRequestBytes + 1, '#'), oversized.sink());
  EXPECT_EQ(oversized.docs().at(0).at("code").as_string(), "bad_request");
}

TEST(ServeCore, RequestLargerThanQueueIsRejectedAtomically) {
  ServeConfig config;
  config.workers = 1;
  config.max_queue = 1;
  ServeCore core(config);
  Collector out;
  core.submit(3, kTwoCellSpec, out.sink());  // 2 cells > capacity 1
  const std::vector<JsonValue> docs = out.docs();
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].at("type").as_string(), "error");
  EXPECT_EQ(docs[0].at("code").as_string(), "overloaded");
  EXPECT_TRUE(docs[0].at("retryable").as_bool());
  EXPECT_EQ(core.stats().rejected, 1u);
  EXPECT_EQ(core.stats().cells_total, 0u);  // nothing half-admitted
}

TEST(ServeCore, SaturatedQueueRejectsThenRecovers) {
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  ServeConfig config;
  config.workers = 1;
  config.max_queue = 2;
  config.on_cell_start = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  };
  ServeCore core(config);
  Collector first;
  core.submit(1, kTwoCellSpec, first.sink());  // 1 executing + 1 queued
  Collector rejected;
  core.submit(2, kTwoCellSpec, rejected.sink());
  {
    const std::vector<JsonValue> docs = rejected.docs();
    ASSERT_EQ(docs.size(), 1u);
    EXPECT_EQ(docs[0].at("code").as_string(), "overloaded");
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  }
  core.wait_idle();
  EXPECT_EQ(first.docs().back().at("type").as_string(), "done");
  // Capacity is back: the retried request is admitted and served.
  Collector retried;
  core.submit(3, kTwoCellSpec, retried.sink());
  core.wait_idle();
  EXPECT_EQ(retried.docs().back().at("type").as_string(), "done");
  EXPECT_EQ(core.stats().rejected, 1u);
}

TEST(ServeCore, StopAbandonsQueuedCellsWithUnavailable) {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  ServeConfig config;
  config.workers = 1;
  config.max_queue = 16;
  config.on_cell_start = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  ServeCore core(config);
  Collector out;
  core.submit(1, kTwoCellSpec, out.sink());
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return entered; });
  }
  core.request_stop();  // cell 2 is queued, cell 1 is in flight
  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  }
  core.wait_idle();
  const std::vector<JsonValue> docs = out.docs();
  std::size_t runs = 0;
  std::size_t unavailable = 0;
  for (const JsonValue& doc : docs) {
    if (doc.at("type").as_string() == "run") ++runs;
    if (doc.at("type").as_string() == "error") {
      EXPECT_EQ(doc.at("code").as_string(), "unavailable");
      EXPECT_TRUE(doc.at("retryable").as_bool());
      ++unavailable;
    }
  }
  EXPECT_EQ(runs, 1u);         // the in-flight cell finished
  EXPECT_EQ(unavailable, 1u);  // the abandoned remainder answered once
  // New submissions are refused outright.
  Collector refused;
  core.submit(2, kTwoCellSpec, refused.sink());
  EXPECT_EQ(refused.docs().at(0).at("code").as_string(), "unavailable");
}

TEST(ServeCore, StatsReflectServedTraffic) {
  ServeConfig config;
  config.workers = 2;
  config.max_queue = 64;
  config.memory_entries = 16;
  ServeCore core(config);
  Collector out;
  core.submit(1, kTwoCellSpec, out.sink());
  core.wait_idle();
  core.submit(2, kTwoCellSpec, out.sink());
  core.wait_idle();
  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cells_total, 4u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.memory_hits, 2u);
  EXPECT_EQ(stats.hit_rate, 0.5);
  EXPECT_EQ(stats.backend_cells[0], 2u);  // simulate
  EXPECT_EQ(stats.backend_cells[3], 2u);  // analytic
  EXPECT_EQ(stats.queue_capacity, 64u);
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.latency_count, 4u);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
  EXPECT_GE(stats.latency_max_ms, stats.latency_p99_ms);
  // The rendered document is schema-complete.
  EXPECT_TRUE(validate_serve_stats(JsonValue::parse(render_stats_doc(stats)))
                  .empty());
}

}  // namespace
}  // namespace nobl::serve
