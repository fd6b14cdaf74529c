// The `nobl serve` campaign service.
//
// Two layers, split so every protocol behavior is unit-testable without a
// socket:
//
//   ServeCore — transport-independent. Accepts raw request texts (the
//     campaign-spec grammar), runs admission control, expands each request
//     into (kernel, n, backend, engine) cells in run_campaign order,
//     schedules the cells across the existing WorkerPool, answers each one
//     through the two-tier ResultCache, and streams response lines through
//     a caller-supplied sink. Cache-hit cells are evaluated by the same
//     evaluate_run/write_run_json code path `nobl run` uses, so a served
//     cell is byte-identical to a batch-run cell by construction.
//
//   run_serve_socket — the AF_UNIX stream transport: accept loop, one
//     reader thread per connection, per-connection write serialization.
//     Blocks until a client sends the `shutdown` directive.
//
// Admission control (the "answer fast or refuse fast" contract):
//   * framing:   requests over kMaxRequestBytes die with `bad_request`,
//   * parsing:   parse_campaign_spec's gates (unknown kernels, the
//                n ≤ 2²⁶ / per-kernel max_sweep_size footprint caps,
//                admissibility) reject absurd work before any execution,
//   * queueing:  a request whose cells do not fit into the bounded queue
//                is refused atomically (all cells or none) with a
//                retryable `overloaded` error — the server never hangs a
//                client on an unbounded backlog.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli/campaign.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "util/json.hpp"
#include "util/worker_pool.hpp"

namespace nobl::serve {

struct ServeConfig {
  /// Disk tier directory for the result cache; empty = memory-only.
  std::string cache_dir;
  /// Worker threads executing cells (>= 1).
  unsigned workers = 4;
  /// Bounded queue: maximum cells pending across all requests.
  std::size_t max_queue = 256;
  /// In-memory LRU capacity of the result cache, in traces.
  std::size_t memory_entries = 64;
  /// Test hook: invoked at the start of every cell execution (used by the
  /// overload tests to hold workers on a latch). Never set in production.
  std::function<void()> on_cell_start;
};

class ServeCore {
 public:
  /// Response-line consumer. Called from worker threads and from submit();
  /// must be thread-safe (the socket layer serializes per connection, the
  /// tests lock a vector).
  using Sink = std::function<void(const std::string& line)>;

  explicit ServeCore(ServeConfig config);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// Submit one campaign request (the raw spec text, sentinel already
  /// stripped). Every outcome — streamed run docs then a done doc, or a
  /// single structured error doc — arrives through `sink`; submit itself
  /// never throws on bad input.
  void submit(std::uint64_t request_id, const std::string& spec_text,
              Sink sink);

  /// Current statistics snapshot (the `stats` directive's document).
  [[nodiscard]] ServeStats stats() const;

  /// Begin shutdown: new submissions are refused with `unavailable`,
  /// queued-but-unstarted cells are abandoned (their requests receive an
  /// `unavailable` error), in-flight cells finish. Idempotent.
  void request_stop();

  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Block until the queue is empty and no cell is executing (tests).
  void wait_idle();

 private:
  struct RequestState {
    std::uint64_t id = 0;
    std::shared_ptr<CampaignSpec> spec;
    Sink sink;
    std::uint64_t total_cells = 0;
    std::atomic<std::uint64_t> remaining{0};
    std::atomic<std::uint64_t> tier_counts[4] = {};
    std::chrono::steady_clock::time_point start;
  };

  struct Cell : CampaignCell {
    std::shared_ptr<RequestState> request;
    std::uint64_t seq = 0;
  };

  void worker_loop();
  void process(const Cell& cell);
  void finish_cell(const std::shared_ptr<RequestState>& request);
  void record_latency(double ms);

  ServeConfig config_;
  ResultCache cache_;
  WorkerPool pool_;
  std::thread pool_driver_;  ///< blocks in pool_.run(worker_loop)

  std::atomic<bool> stopping_{false};

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<Cell> queue_;
  std::size_t inflight_ = 0;
  std::uint64_t queue_peak_ = 0;

  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t cells_total_ = 0;
  std::uint64_t backend_cells_[5] = {0, 0, 0, 0, 0};
  std::vector<double> latency_ring_;
  std::size_t latency_next_ = 0;
  std::uint64_t latency_seen_ = 0;
  std::chrono::steady_clock::time_point started_;
};

/// AF_UNIX transport around ServeCore.
struct SocketServerOptions {
  ServeConfig config;
  std::string socket_path;
  /// Startup / connection / shutdown log lines (the CLI passes stderr);
  /// null = silent.
  std::ostream* log = nullptr;
};

/// Bind `socket_path`, serve until a client sends `shutdown`, then tear
/// down (the socket file is removed). A stale socket file from a crashed
/// server is detected (connect() refused) and replaced; a *live* server on
/// the same path makes this throw std::invalid_argument.
void run_serve_socket(const SocketServerOptions& options);

/// Validate a `--stats` response document (the envelope and every stats
/// field the schema promises). Returns violations; empty = valid.
[[nodiscard]] std::vector<std::string> validate_serve_stats(
    const JsonValue& doc);

/// Gate a stats document on a serve-thresholds file, e.g.
///   {"schema_version": 1, "min_hit_rate": 0.5, "max_p99_ms": 250,
///    "max_executed": 0, "min_disk_hits": 1}
/// Unknown threshold keys are violations (typos must not silently pass).
[[nodiscard]] std::vector<std::string> check_serve_thresholds(
    const JsonValue& stats_doc, const JsonValue& thresholds);

}  // namespace nobl::serve
