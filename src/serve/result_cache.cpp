#include "serve/result_cache.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "bsp/trace_io.hpp"
#include "bsp/trace_store.hpp"

namespace nobl::serve {
namespace {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace

std::string CacheKey::string_key() const {
  return kernel + "|" + std::to_string(n) + "|" + nobl::to_string(backend);
}

std::string CacheKey::content_hash() const { return hex16(fnv1a64(string_key())); }

std::string CacheKey::file_name() const {
  return kernel + "_n" + std::to_string(n) + "_" + nobl::to_string(backend) +
         "-" + content_hash() + kTraceBinExtension;
}

std::string to_string(CacheTier tier) {
  switch (tier) {
    case CacheTier::kMemory:
      return "memory";
    case CacheTier::kDisk:
      return "disk";
    case CacheTier::kExecuted:
      return "executed";
    case CacheTier::kCoalesced:
      return "coalesced";
  }
  return "executed";
}

ResultCache::ResultCache(Config config)
    : disk_dir_(std::move(config.disk_dir)),
      capacity_(config.memory_entries == 0 ? 1 : config.memory_entries) {
  if (disk_dir_.empty()) return;
  std::filesystem::create_directories(disk_dir_);
  for (const auto& entry : std::filesystem::directory_iterator(disk_dir_)) {
    if (entry.path().extension() == kTraceBinExtension) ++disk_entries_;
  }
}

std::shared_ptr<const Trace> ResultCache::load_from_disk(
    const CacheKey& key) const {
  if (disk_dir_.empty()) return nullptr;
  const std::filesystem::path path =
      std::filesystem::path(disk_dir_) / key.file_name();
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return nullptr;
  try {
    // The decoder re-verifies every block CRC, so a bit-rotted entry can
    // never be served — it falls through to recompute.
    std::ifstream in(path, std::ios::binary);
    return std::make_shared<const Trace>(read_trace_bin(in));
  } catch (const std::exception&) {
    return nullptr;
  }
}

void ResultCache::store_to_disk(const CacheKey& key, const Trace& trace) {
  if (disk_dir_.empty()) return;
  const std::filesystem::path path =
      std::filesystem::path(disk_dir_) / key.file_name();
  // The temp name carries the pid and a process-wide counter: two caches
  // pointed at the same directory (or two threads racing the same key after
  // an eviction) each publish through their own temp file instead of
  // truncating each other's half-written bytes.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(tmp_seq.fetch_add(1, std::memory_order_relaxed));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // disk tier is best-effort; memory tier still serves
    write_trace_bin(out, trace);
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  // fsync before rename: the rename must never publish the final path ahead
  // of the data reaching disk, or a crash leaves a torn .nbt where readers
  // expect a checksummed trace.
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  const bool existed = std::filesystem::exists(path, ec);
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  // Best-effort directory fsync so the rename itself is durable.
  const int dir_fd = ::open(disk_dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  if (!existed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++disk_entries_;
  }
}

void ResultCache::insert_locked(const std::string& key,
                                std::shared_ptr<const Trace> trace) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    order_.erase(it->second.position);
    entries_.erase(it);
  }
  order_.push_front(key);
  entries_[key] = Entry{order_.begin(), std::move(trace)};
  while (entries_.size() > capacity_) {
    entries_.erase(order_.back());
    order_.pop_back();
  }
}

std::shared_ptr<const Trace> ResultCache::get_or_compute(
    const CacheKey& key, const std::function<Trace()>& compute,
    CacheTier* tier) {
  const std::string k = key.string_key();
  bool waited = false;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const auto it = entries_.find(k);
    if (it != entries_.end()) {
      // LRU touch: move to the front.
      order_.splice(order_.begin(), order_, it->second.position);
      it->second.position = order_.begin();
      if (waited) {
        ++counters_.coalesced;
        if (tier != nullptr) *tier = CacheTier::kCoalesced;
      } else {
        ++counters_.memory_hits;
        if (tier != nullptr) *tier = CacheTier::kMemory;
      }
      return it->second.trace;
    }
    const auto flight_it = flights_.find(k);
    if (flight_it == flights_.end()) break;
    // An identical cell is computing right now: wait for it instead of
    // duplicating the work (single-flight).
    const std::shared_ptr<Flight> flight = flight_it->second;
    waited = true;
    flight_cv_.wait(lock, [&flight] { return flight->done; });
    // Loop: on success the trace is in the LRU; on failure the flight is
    // gone and this caller becomes the next computer (retry semantics).
  }

  const std::shared_ptr<Flight> flight = std::make_shared<Flight>();
  flights_[k] = flight;
  lock.unlock();

  std::shared_ptr<const Trace> trace;
  CacheTier resolved = CacheTier::kExecuted;
  try {
    trace = load_from_disk(key);
    if (trace != nullptr) {
      resolved = CacheTier::kDisk;
    } else {
      trace = std::make_shared<const Trace>(compute());
      store_to_disk(key, *trace);
    }
    // Published traces are shared by concurrent evaluate_run calls, so the
    // lazy tables are built here, before any other thread can see the trace.
    trace->build_tables();
  } catch (...) {
    lock.lock();
    flights_.erase(k);
    flight->done = true;
    flight_cv_.notify_all();
    throw;
  }

  lock.lock();
  insert_locked(k, trace);
  if (resolved == CacheTier::kDisk) {
    ++counters_.disk_hits;
  } else {
    ++counters_.executed;
  }
  flights_.erase(k);
  flight->done = true;
  flight_cv_.notify_all();
  if (tier != nullptr) *tier = resolved;
  return trace;
}

ResultCache::Counters ResultCache::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t ResultCache::memory_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ResultCache::disk_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_entries_;
}

}  // namespace nobl::serve
