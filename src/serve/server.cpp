#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "util/fd_io.hpp"

namespace nobl::serve {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Invoke a sink without letting a broken transport kill a worker: a
/// response the client will never read is dropped, not thrown.
void safe_send(const ServeCore::Sink& sink, const std::string& line) {
  try {
    sink(line);
  } catch (...) {
  }
}

}  // namespace

ServeCore::ServeCore(ServeConfig config)
    : config_(std::move(config)),
      cache_(ResultCache::Config{config_.cache_dir, config_.memory_entries}),
      pool_(config_.workers == 0 ? 1 : config_.workers),
      latency_ring_(kLatencyWindow, 0.0),
      started_(std::chrono::steady_clock::now()) {
  pool_driver_ = std::thread([this] {
    try {
      pool_.run([this](unsigned) { worker_loop(); });
    } catch (...) {
      // Workers never throw out of worker_loop; this catch only guards the
      // process against a pathological rethrow at shutdown.
    }
  });
}

ServeCore::~ServeCore() {
  request_stop();
  if (pool_driver_.joinable()) pool_driver_.join();
}

void ServeCore::submit(std::uint64_t request_id, const std::string& spec_text,
                       Sink sink) {
  if (stopping()) {
    safe_send(sink, render_error_doc(request_id, ErrorCode::kUnavailable,
                                     "server is shutting down"));
    return;
  }
  if (spec_text.size() > kMaxRequestBytes) {
    safe_send(sink,
              render_error_doc(
                  request_id, ErrorCode::kBadRequest,
                  "request exceeds " + std::to_string(kMaxRequestBytes) +
                      " bytes (admission control size cap)"));
    return;
  }
  std::shared_ptr<CampaignSpec> spec;
  try {
    // The campaign parser is the first admission gate: unknown kernels,
    // inadmissible sizes and the per-kernel footprint caps (n ≤ 2²⁶ and
    // below) all die here with a position-carrying message.
    spec = std::make_shared<CampaignSpec>(parse_campaign_spec(spec_text));
  } catch (const std::exception& e) {
    safe_send(sink,
              render_error_doc(request_id, ErrorCode::kBadRequest, e.what()));
    return;
  }

  auto request = std::make_shared<RequestState>();
  request->id = request_id;
  request->spec = spec;
  request->sink = std::move(sink);
  request->start = std::chrono::steady_clock::now();

  // Expand cells in run_campaign order, so an aggregated response document
  // lists runs exactly like `nobl run --json` would.
  std::vector<Cell> cells;
  for (const CampaignCell& campaign_cell : campaign_cells(*spec)) {
    cells.push_back(Cell{campaign_cell, request, cells.size()});
  }
  request->total_cells = cells.size();
  request->remaining.store(cells.size(), std::memory_order_relaxed);

  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping()) {
      safe_send(request->sink,
                render_error_doc(request_id, ErrorCode::kUnavailable,
                                 "server is shutting down"));
      return;
    }
    // All-or-nothing admission: a request must fit into the bounded queue
    // entirely, so a refused client can retry without half its cells
    // already burning workers.
    if (queue_.size() + cells.size() > config_.max_queue) {
      std::ostringstream what;
      what << "queue full: " << queue_.size() << " cells pending, capacity "
           << config_.max_queue << ", request needs " << cells.size()
           << " cells; retry later";
      {
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++rejected_;
      }
      safe_send(request->sink, render_error_doc(
                                   request_id, ErrorCode::kOverloaded,
                                   what.str()));
      return;
    }
    for (Cell& cell : cells) queue_.push_back(std::move(cell));
    queue_peak_ = std::max<std::uint64_t>(queue_peak_, queue_.size());
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++requests_;
  }
  queue_cv_.notify_all();
}

void ServeCore::worker_loop() {
  while (true) {
    Cell cell;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stopping() || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping()) return;
        continue;
      }
      cell = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
    }
    process(cell);
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      --inflight_;
      if (queue_.empty() && inflight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ServeCore::process(const Cell& cell) {
  const std::shared_ptr<RequestState>& request = cell.request;
  const auto cell_start = std::chrono::steady_clock::now();
  try {
    if (config_.on_cell_start) config_.on_cell_start();
    CacheTier tier = CacheTier::kExecuted;
    const CacheKey key{cell.entry->name, cell.n, cell.backend};
    const std::shared_ptr<const Trace> trace = cache_.get_or_compute(
        key,
        [&cell] {
          // No Measurement sink here: served cells never carry wall-clock
          // timing, so a cache-hit response stays byte-identical to a
          // freshly-executed one (the cold/hot cmp gate in CI).
          RunOptions options{cell.policy, cell.backend};
          options.dist = cell.request->spec->dist;
          return cell.entry->runner(cell.n, options);
        },
        &tier);
    // The exact metric/JSON path of `nobl run`: a cache-hit cell and a
    // freshly-executed cell are byte-identical because they ARE the same
    // code over the same (bit-identical) trace. The cache publishes traces
    // with their tables built, so workers share it read-only.
    const RunResult run = evaluate_run(*request->spec, *cell.entry, cell.n,
                                       cell.backend, cell.policy, *trace);
    const double latency_ms = ms_since(cell_start);
    std::size_t depth = 0;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      depth = queue_.size();
    }
    std::ostringstream os;
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.key("serve_schema_version").value(kServeSchemaVersion);
    w.key("type").value("run");
    w.key("request").value(request->id);
    w.key("seq").value(cell.seq);
    w.key("run");
    write_run_json(w, run);
    w.key("server").begin_object();
    w.key("cache").value(to_string(tier));
    w.key("latency_ms").value(latency_ms);
    w.key("queue_depth").value(static_cast<std::uint64_t>(depth));
    w.end_object();
    w.end_object();
    safe_send(request->sink, os.str());

    request->tier_counts[static_cast<std::size_t>(tier)].fetch_add(
        1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++cells_total_;
      ++backend_cells_[static_cast<std::size_t>(cell.backend)];
    }
    record_latency(latency_ms);
  } catch (const std::exception& e) {
    safe_send(request->sink, render_error_doc(request->id,
                                              ErrorCode::kInternal, e.what()));
  } catch (...) {
    safe_send(request->sink,
              render_error_doc(request->id, ErrorCode::kInternal,
                               "unknown failure executing cell"));
  }
  finish_cell(request);
}

void ServeCore::finish_cell(const std::shared_ptr<RequestState>& request) {
  if (request->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.key("serve_schema_version").value(kServeSchemaVersion);
  w.key("type").value("done");
  w.key("request").value(request->id);
  w.key("runs").value(request->total_cells);
  w.key("elapsed_ms").value(ms_since(request->start));
  w.key("cache").begin_object();
  w.key("memory").value(
      request->tier_counts[0].load(std::memory_order_relaxed));
  w.key("disk").value(request->tier_counts[1].load(std::memory_order_relaxed));
  w.key("executed").value(
      request->tier_counts[2].load(std::memory_order_relaxed));
  w.key("coalesced").value(
      request->tier_counts[3].load(std::memory_order_relaxed));
  w.end_object();
  w.end_object();
  safe_send(request->sink, os.str());
}

void ServeCore::record_latency(double ms) {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  latency_ring_[latency_next_] = ms;
  latency_next_ = (latency_next_ + 1) % latency_ring_.size();
  ++latency_seen_;
}

ServeStats ServeCore::stats() const {
  ServeStats s;
  s.uptime_ms = static_cast<std::uint64_t>(ms_since(started_));
  s.queue_capacity = config_.max_queue;
  s.workers = config_.workers == 0 ? 1 : config_.workers;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queue_depth = queue_.size();
    s.queue_peak = queue_peak_;
    s.inflight = inflight_;
  }
  std::vector<double> window;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    s.requests = requests_;
    s.rejected = rejected_;
    s.cells_total = cells_total_;
    for (std::size_t i = 0; i < 5; ++i) s.backend_cells[i] = backend_cells_[i];
    const std::size_t count =
        std::min<std::uint64_t>(latency_seen_, latency_ring_.size());
    window.assign(latency_ring_.begin(),
                  latency_ring_.begin() + static_cast<std::ptrdiff_t>(count));
  }
  const ResultCache::Counters cache = cache_.counters();
  s.memory_hits = cache.memory_hits;
  s.disk_hits = cache.disk_hits;
  s.executed = cache.executed;
  s.coalesced = cache.coalesced;
  s.memory_entries = cache_.memory_entries();
  s.memory_capacity = cache_.memory_capacity();
  s.disk_entries = cache_.disk_entries();
  const std::uint64_t hits =
      cache.memory_hits + cache.disk_hits + cache.coalesced;
  s.hit_rate = s.cells_total == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(s.cells_total);
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    const auto quantile = [&window](double q) {
      const std::size_t rank = static_cast<std::size_t>(
          q * static_cast<double>(window.size() - 1) + 0.5);
      return window[std::min(rank, window.size() - 1)];
    };
    s.latency_count = window.size();
    s.latency_p50_ms = quantile(0.50);
    s.latency_p99_ms = quantile(0.99);
    s.latency_max_ms = window.back();
  }
  return s;
}

void ServeCore::request_stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    queue_cv_.notify_all();
    return;
  }
  // Abandon queued-but-unstarted cells; each affected request gets one
  // terminal `unavailable` error (its done doc will never come).
  std::set<std::shared_ptr<RequestState>> abandoned;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const Cell& cell : queue_) abandoned.insert(cell.request);
    queue_.clear();
    if (inflight_ == 0) idle_cv_.notify_all();
  }
  for (const std::shared_ptr<RequestState>& request : abandoned) {
    safe_send(request->sink,
              render_error_doc(request->id, ErrorCode::kUnavailable,
                               "server shut down before the request "
                               "completed; resubmit to a new server"));
  }
  queue_cv_.notify_all();
}

void ServeCore::wait_idle() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock,
                [this] { return queue_.empty() && inflight_ == 0; });
}

// ---------------------------------------------------------------------------
// AF_UNIX transport.
// ---------------------------------------------------------------------------

namespace {

/// Per-connection output: serializes response lines onto the fd and owns
/// its lifetime — worker sinks hold shared_ptrs, so the fd stays valid
/// until the last in-flight response is written.
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}
  ~LineWriter() { ::close(fd_); }

  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  void send(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string framed = line;
    framed += '\n';
    // io::send_all retries EINTR and short writes; a false return means the
    // peer is really gone, so the rest of this response is dropped.
    (void)io::send_all(fd_, framed.data(), framed.size());
  }

 private:
  int fd_;
  std::mutex mutex_;
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::invalid_argument(what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument(
        "socket path \"" + path + "\" must be 1.." +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

int bind_unix_socket(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EADDRINUSE) {
      ::close(fd);
      throw_errno("bind(" + path + ")");
    }
    // A socket file exists. Probe it: a live server answers connect(); a
    // stale file from a crashed server refuses, and is safe to replace.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool live =
        probe >= 0 &&
        ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
    if (probe >= 0) ::close(probe);
    if (live) {
      ::close(fd);
      throw std::invalid_argument("a server is already listening on \"" +
                                  path + "\"");
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      throw_errno("bind(" + path + ")");
    }
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    throw_errno("listen(" + path + ")");
  }
  return fd;
}

struct Connection {
  std::thread thread;
  std::shared_ptr<std::atomic<bool>> finished;
};

void handle_connection(int fd, ServeCore* core,
                       std::atomic<bool>* shutdown_flag,
                       const std::shared_ptr<std::atomic<bool>>& finished) {
  const auto out = std::make_shared<LineWriter>(fd);
  RequestFramer framer;
  std::uint64_t next_request = 0;
  char buffer[4096];
  bool open = true;
  while (open && !shutdown_flag->load(std::memory_order_relaxed)) {
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    // io::recv_some retries EINTR internally: only real EOF (0) or a real
    // error (-1, errno != EINTR) tears the connection down. A transient
    // signal mid-recv must not be mistaken for the peer hanging up.
    const ssize_t got = io::recv_some(fd, buffer, sizeof(buffer));
    if (got <= 0) {
      framer.finish();
      open = false;
    } else {
      framer.feed({buffer, static_cast<std::size_t>(got)});
    }
    try {
      while (true) {
        const std::optional<Request> request = framer.next();
        if (!request.has_value()) break;
        switch (request->kind) {
          case Request::Kind::kPing:
            out->send(render_pong_doc());
            break;
          case Request::Kind::kStats:
            out->send(render_stats_doc(core->stats()));
            break;
          case Request::Kind::kShutdown:
            out->send(render_bye_doc());
            shutdown_flag->store(true, std::memory_order_relaxed);
            open = false;
            break;
          case Request::Kind::kSpec: {
            const std::uint64_t id = ++next_request;
            core->submit(id, request->spec_text,
                         [out](const std::string& line) { out->send(line); });
            break;
          }
        }
        if (!open) break;
      }
    } catch (const std::exception& e) {
      // Framing violations (oversize, truncation) poison the stream
      // position: answer once, then drop the connection.
      out->send(render_error_doc(next_request + 1, ErrorCode::kBadRequest,
                                 e.what()));
      open = false;
    }
  }
  finished->store(true, std::memory_order_release);
}

}  // namespace

void run_serve_socket(const SocketServerOptions& options) {
  const int listen_fd = bind_unix_socket(options.socket_path);
  ServeCore core(options.config);
  std::atomic<bool> shutdown_flag{false};
  std::vector<Connection> connections;
  if (options.log != nullptr) {
    *options.log << "nobl serve: listening on " << options.socket_path
                 << " (workers=" << options.config.workers
                 << ", queue=" << options.config.max_queue << ", cache="
                 << (options.config.cache_dir.empty()
                         ? std::string("<memory only>")
                         : options.config.cache_dir)
                 << ")\n";
  }
  while (!shutdown_flag.load(std::memory_order_relaxed)) {
    // Reap connections whose reader thread has exited, so a long-lived
    // server does not accumulate dead stacks under CLI-per-query clients.
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->finished->load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
    pollfd p{listen_fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 200);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    Connection connection;
    connection.finished = std::make_shared<std::atomic<bool>>(false);
    connection.thread = std::thread(handle_connection, fd, &core,
                                    &shutdown_flag, connection.finished);
    connections.push_back(std::move(connection));
  }
  core.request_stop();
  for (Connection& connection : connections) connection.thread.join();
  ::close(listen_fd);
  ::unlink(options.socket_path.c_str());
  if (options.log != nullptr) {
    const ServeStats stats = core.stats();
    *options.log << "nobl serve: shutdown (" << stats.cells_total
                 << " cells served, hit rate "
                 << stats.hit_rate << ")\n";
  }
}

// ---------------------------------------------------------------------------
// Stats validation + thresholds (the `nobl check --serve-stats` side).
// ---------------------------------------------------------------------------

namespace {

void require_number_at(const JsonValue& obj, const char* key,
                       const std::string& where,
                       std::vector<std::string>* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    out->push_back(where + ": missing numeric \"" + key + "\"");
  }
}

/// Numeric field lookup by dot path ("cache.hit_rate"); throws on absence
/// (callers validate first).
double stat_at(const JsonValue& stats, const std::string& path) {
  const JsonValue* node = &stats;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string part =
        path.substr(start, dot == std::string::npos ? path.size() : dot -
                                                                        start);
    node = &node->at(part);
    if (dot == std::string::npos) return node->as_number();
    start = dot + 1;
  }
}

}  // namespace

std::vector<std::string> validate_serve_stats(const JsonValue& doc) {
  std::vector<std::string> out;
  if (!doc.is_object()) {
    out.push_back("stats document: not a JSON object");
    return out;
  }
  const JsonValue* version = doc.find("serve_schema_version");
  if (version == nullptr || !version->is_number() ||
      static_cast<int>(version->as_number()) != kServeSchemaVersion) {
    out.push_back("stats document: serve_schema_version must be " +
                  std::to_string(kServeSchemaVersion));
    return out;
  }
  const JsonValue* type = doc.find("type");
  if (type == nullptr || !type->is_string() ||
      type->as_string() != "stats") {
    out.push_back("stats document: \"type\" must be \"stats\"");
    return out;
  }
  const JsonValue* stats = doc.find("stats");
  if (stats == nullptr || !stats->is_object()) {
    out.push_back("stats document: missing object \"stats\"");
    return out;
  }
  for (const char* key : {"uptime_ms", "requests", "cells_total"}) {
    require_number_at(*stats, key, "stats", &out);
  }
  const JsonValue* cache = stats->find("cache");
  if (cache == nullptr || !cache->is_object()) {
    out.push_back("stats: missing object \"cache\"");
  } else {
    for (const char* key :
         {"memory_hits", "disk_hits", "executed", "coalesced",
          "memory_entries", "memory_capacity", "disk_entries", "hit_rate"}) {
      require_number_at(*cache, key, "stats.cache", &out);
    }
  }
  const JsonValue* queue = stats->find("queue");
  if (queue == nullptr || !queue->is_object()) {
    out.push_back("stats: missing object \"queue\"");
  } else {
    for (const char* key :
         {"depth", "peak", "capacity", "rejected", "workers", "inflight"}) {
      require_number_at(*queue, key, "stats.queue", &out);
    }
  }
  const JsonValue* backends = stats->find("backends");
  if (backends == nullptr || !backends->is_object()) {
    out.push_back("stats: missing object \"backends\"");
  } else {
    for (const char* key :
         {"simulate", "cost", "record", "analytic", "distributed"}) {
      require_number_at(*backends, key, "stats.backends", &out);
    }
  }
  const JsonValue* latency = stats->find("latency_ms");
  if (latency == nullptr || !latency->is_object()) {
    out.push_back("stats: missing object \"latency_ms\"");
  } else {
    for (const char* key : {"window", "p50", "p99", "max"}) {
      require_number_at(*latency, key, "stats.latency_ms", &out);
    }
  }
  return out;
}

std::vector<std::string> check_serve_thresholds(const JsonValue& stats_doc,
                                                const JsonValue& thresholds) {
  std::vector<std::string> out = validate_serve_stats(stats_doc);
  if (!out.empty()) return out;
  if (!thresholds.is_object()) {
    out.push_back("serve thresholds: not a JSON object");
    return out;
  }
  const JsonValue& stats = stats_doc.at("stats");

  // key -> {stat dot-path, direction}; min_* fail when the stat is below
  // the bound, max_* when above.
  struct Bound {
    const char* key;
    const char* path;
    bool is_min;
  };
  static constexpr Bound kBounds[] = {
      {"min_hit_rate", "cache.hit_rate", true},
      {"min_memory_hits", "cache.memory_hits", true},
      {"min_disk_hits", "cache.disk_hits", true},
      {"max_executed", "cache.executed", false},
      {"min_cells_total", "cells_total", true},
      {"max_p99_ms", "latency_ms.p99", false},
      {"max_p50_ms", "latency_ms.p50", false},
      {"max_rejected", "queue.rejected", false},
      {"min_requests", "requests", true},
  };

  for (const auto& [key, value] : thresholds.as_object()) {
    if (key == "comment") continue;  // free-text rationale, like ci-smoke.json
    if (key == "schema_version") {
      if (!value.is_number() ||
          static_cast<int>(value.as_number()) != 1) {
        out.push_back("serve thresholds: schema_version must be 1");
      }
      continue;
    }
    const Bound* bound = nullptr;
    for (const Bound& candidate : kBounds) {
      if (key == candidate.key) {
        bound = &candidate;
        break;
      }
    }
    if (bound == nullptr) {
      out.push_back("serve thresholds: unknown key \"" + key + "\"");
      continue;
    }
    if (!value.is_number()) {
      out.push_back("serve thresholds: \"" + key + "\" must be a number");
      continue;
    }
    const double measured = stat_at(stats, bound->path);
    const double limit = value.as_number();
    if (bound->is_min ? measured < limit : measured > limit) {
      out.push_back(std::string(bound->path) + " = " + json_number(measured) +
                    (bound->is_min ? " below " : " above ") + key + " = " +
                    json_number(limit));
    }
  }
  return out;
}

}  // namespace nobl::serve
