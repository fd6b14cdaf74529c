#include "dist/backend.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include <signal.h>
#include <sys/wait.h>

namespace nobl::dist {
namespace {

// Wire frames, every integer little-endian (put_le / get_le). A worker's
// frame is one fixed 13-byte header `u8 kind, u32 aux, u64 length` and a
// body:
//   'L' local:  aux = label, length = messages; body = the log(v / W) u64
//               words h(2^j), j = log W + 1 .. log v — a local superstep
//   'B' block:  aux = label, length = nevents; body = the src / dst / count
//               u64 columns — a crossing superstep
//   'D' done:   aux = 0, length = 0, no body — the program returned
//               normally on this worker
//   'E' error:  aux = exception code, length = message bytes; body = the
//               message
// The stream is one way, worker to coordinator. A worker appends frames to
// one buffer and writes it once it holds kStreamBatchBytes, and at 'D' or
// 'E'. The coordinator reads a frame as one recv for the header and one for
// the body, both served by FdChannel's read-ahead.
constexpr std::uint8_t kFrameLocal = 'L';
constexpr std::uint8_t kFrameBlock = 'B';
constexpr std::uint8_t kFrameDone = 'D';
constexpr std::uint8_t kFrameError = 'E';
constexpr std::size_t kHeaderBytes = 13;
constexpr std::uint64_t kMaxEvents = std::uint64_t{1} << 40;
constexpr std::uint64_t kMaxMessageBytes = std::uint64_t{1} << 20;

// Exception codes for 'E' frames; the coordinator rethrows the matching
// type so error behavior is backend-conformant with CostBackend.
constexpr std::uint32_t kErrInvalidArgument = 1;
constexpr std::uint32_t kErrOutOfRange = 2;
constexpr std::uint32_t kErrClusterViolation = 3;
constexpr std::uint32_t kErrLogicError = 4;
constexpr std::uint32_t kErrRuntime = 5;

[[noreturn]] void worker_gone(unsigned index) {
  throw std::runtime_error("dist: worker " + std::to_string(index) +
                           " died mid-protocol (no frame)");
}

/// Append a header plus room for `body_bytes` to `stream`, and return where
/// the body goes.
std::uint8_t* start_frame(std::vector<std::uint8_t>& stream, std::uint8_t kind,
                          std::uint32_t aux, std::uint64_t length,
                          std::size_t body_bytes) {
  const std::size_t at = stream.size();
  stream.resize(at + kHeaderBytes + body_bytes);
  std::uint8_t* frame = stream.data() + at;
  frame[0] = kind;
  put_le(frame + 1, aux);
  put_le(frame + 5, length);
  return frame + kHeaderBytes;
}

/// Append `words` to a frame body as little-endian u64s; returns the end.
std::uint8_t* put_column(std::uint8_t* out,
                         const std::vector<std::uint64_t>& words) {
  for (const std::uint64_t word : words) {
    put_le(out, word);
    out += sizeof(std::uint64_t);
  }
  return out;
}

/// Run the program under a shard backend and report the outcome; never
/// throws out (the child has nowhere to unwind to).
void worker_main(std::uint64_t v, std::uint64_t first, std::uint64_t last,
                 const std::function<void(DistributedBackend&)>& program,
                 Channel& channel) {
  // run_distributed has checked v, so the constructor cannot throw. The
  // backend outlives the catch below: its buffered blocks go out ahead of
  // the error frame.
  DistributedBackend backend(v, first, last, &channel);
  std::uint32_t code = 0;
  std::string what;
  try {
    program(backend);
    backend.finish();
    return;
  } catch (const ClusterViolation& e) {
    code = kErrClusterViolation;
    what = e.what();
  } catch (const std::out_of_range& e) {
    code = kErrOutOfRange;
    what = e.what();
  } catch (const std::invalid_argument& e) {
    code = kErrInvalidArgument;
    what = e.what();
  } catch (const std::logic_error& e) {
    code = kErrLogicError;
    what = e.what();
  } catch (const std::exception& e) {
    code = kErrRuntime;
    what = e.what();
  }
  backend.fail(code, what);
}

[[noreturn]] void rethrow_worker_error(unsigned index, std::uint32_t code,
                                       const std::string& what) {
  const std::string message =
      what.empty()
          ? "dist: worker " + std::to_string(index) + " failed"
          : what;
  switch (code) {
    case kErrInvalidArgument:
      throw std::invalid_argument(message);
    case kErrOutOfRange:
      throw std::out_of_range(message);
    case kErrClusterViolation:
      throw ClusterViolation(message);
    case kErrLogicError:
      throw std::logic_error(message);
    default:
      throw std::runtime_error(message);
  }
}

/// Kills and reaps every tracked worker on scope exit unless disarmed —
/// the coordinator's error paths must never leak children.
class Reaper {
 public:
  explicit Reaper(const std::vector<WorkerLink>& links) {
    for (const WorkerLink& link : links) pids_.push_back(link.pid);
  }
  ~Reaper() {
    if (disarmed_) return;
    for (const ::pid_t pid : pids_) ::kill(pid, SIGKILL);
    reap();
  }
  /// Success path: children already sent 'D'; wait for clean exits.
  void reap() {
    for (const ::pid_t pid : pids_) {
      int status = 0;
      ::pid_t got;
      do {
        got = ::waitpid(pid, &status, 0);
      } while (got < 0 && errno == EINTR);
    }
    disarmed_ = true;
  }
  void disarm() { disarmed_ = true; }

 private:
  std::vector<::pid_t> pids_;
  bool disarmed_ = false;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

[[noreturn]] void workers_disagree() {
  throw std::runtime_error("dist: workers disagree on superstep labels");
}

}  // namespace

DistributedBackend::DistributedBackend(std::uint64_t v, std::uint64_t first,
                                       std::uint64_t last, Channel* channel)
    : SuperstepDriver(v),
      first_(first),
      last_(last),
      log_workers_(log_v() - log2_exact(last - first)),
      channel_(channel),
      acc_(log2_exact(last - first)) {
  step_.degree.assign(log2_exact(last - first) + 1u, 0);
}

void DistributedBackend::close_superstep() {
  if (local_) {
    acc_.finalize_into(step_);
    const std::size_t words = step_.degree.size() - 1;
    std::uint8_t* out = start_frame(frame_, kFrameLocal, label(),
                                    step_.messages,
                                    words * sizeof(std::uint64_t));
    for (std::size_t j = 1; j <= words; ++j) {
      put_le(out, step_.degree[j]);
      out += sizeof(std::uint64_t);
    }
  } else {
    const std::size_t nevents = src_.size();
    std::uint8_t* out = start_frame(frame_, kFrameBlock, label(), nevents,
                                    3 * nevents * sizeof(std::uint64_t));
    out = put_column(out, src_);
    out = put_column(out, dst_);
    put_column(out, count_);
    src_.clear();
    dst_.clear();
    count_.clear();
  }
  if (frame_.size() >= kStreamBatchBytes && !flush()) {
    throw std::runtime_error(
        "DistributedBackend: coordinator went away mid-superstep");
  }
}

void DistributedBackend::finish() {
  start_frame(frame_, kFrameDone, 0, 0, 0);
  if (!flush()) {
    throw std::runtime_error(
        "DistributedBackend: coordinator went away at end of program");
  }
}

void DistributedBackend::fail(std::uint32_t code, const std::string& what) {
  std::uint8_t* body =
      start_frame(frame_, kFrameError, code, what.size(), what.size());
  std::memcpy(body, what.data(), what.size());
  (void)flush();  // nothing left to report to if the coordinator is gone
}

bool DistributedBackend::flush() {
  const bool sent = channel_->send(frame_.data(), frame_.size());
  frame_.clear();
  return sent;
}

Trace merge_streams(std::uint64_t v, const std::vector<Channel*>& workers,
                    std::vector<double>& superstep_ms) {
  const unsigned log_v = log2_exact(v);
  const unsigned log_workers = log2_exact(workers.size());
  const std::uint64_t span = v >> log_workers;

  Trace trace(log_v);
  DegreeAccumulator acc(log_v);
  std::uint8_t header[kHeaderBytes] = {};
  std::vector<std::uint8_t> body;  // reused by every frame

  // No barrier: workers run ahead, blocked only by a full socket, and the
  // coordinator drains them superstep by superstep, worker by worker. That
  // fixed merge order alone makes the trace bit-identical, and since a
  // worker waits on nothing but its own socket, draining cannot deadlock.
  bool done = false;
  while (!done) {
    const auto step_start = std::chrono::steady_clock::now();
    SuperstepRecord record;
    record.degree.assign(log_v + 1u, 0);
    bool local = false;  // whether this superstep is local
    for (unsigned w = 0; w < workers.size(); ++w) {
      Channel& channel = *workers[w];
      if (!channel.recv(header, kHeaderBytes)) worker_gone(w);
      const std::uint8_t kind = header[0];
      const auto aux = get_le<std::uint32_t>(header + 1);
      const auto length = get_le<std::uint64_t>(header + 5);
      if (kind == kFrameError) {
        std::string what;
        if (length <= kMaxMessageBytes) {
          what.resize(length);
          if (length != 0 && !channel.recv(what.data(), length)) what.clear();
        }
        rethrow_worker_error(w, aux, what);
      }
      if (kind == kFrameDone) {
        if (w != 0) {
          throw std::runtime_error(
              "dist: workers disagree on the superstep count");
        }
        done = true;
        // The remaining workers must agree the program is over.
        for (unsigned other = 1; other < workers.size(); ++other) {
          if (!workers[other]->recv(header, kHeaderBytes)) worker_gone(other);
          if (header[0] != kFrameDone) {
            throw std::runtime_error(
                "dist: workers disagree on the superstep count");
          }
        }
        break;
      }
      if (kind != kFrameLocal && kind != kFrameBlock) worker_gone(w);
      // Every worker sends the same label, and 'L' exactly when it is local.
      local = aux < label_bound(log_v) && local_superstep(v, aux, span);
      if ((kind == kFrameLocal) != local || (w != 0 && aux != record.label)) {
        workers_disagree();
      }
      record.label = aux;
      if (kind == kFrameLocal) {
        // Folds 2^j <= W stay 0: no message of a local superstep leaves
        // its worker. Above, each cluster lies inside one worker.
        body.resize((log_v - log_workers) * sizeof(std::uint64_t));
        if (!channel.recv(body.data(), body.size())) worker_gone(w);
        for (unsigned j = log_workers + 1; j <= log_v; ++j) {
          const auto h = get_le<std::uint64_t>(
              body.data() + (j - log_workers - 1) * sizeof(std::uint64_t));
          record.degree[j] = std::max(record.degree[j], h);
        }
        record.messages += length;
        continue;
      }
      if (length > kMaxEvents) worker_gone(w);
      const std::size_t nevents = length;
      const std::size_t column_bytes = nevents * sizeof(std::uint64_t);
      body.resize(3 * column_bytes);
      if (!channel.recv(body.data(), body.size())) worker_gone(w);
      // Contiguous clusters + worker-index order = global ascending-sender
      // order, the order Schedule::replay_trace counts a recorded step in:
      // one accumulator for the whole run, count() per event.
      const std::uint8_t* src = body.data();
      const std::uint8_t* dst = src + column_bytes;
      const std::uint8_t* count = dst + column_bytes;
      for (std::size_t i = 0; i < nevents; ++i) {
        const std::size_t at = i * sizeof(std::uint64_t);
        acc.count(get_le<std::uint64_t>(src + at),
                  get_le<std::uint64_t>(dst + at),
                  get_le<std::uint64_t>(count + at));
      }
    }
    if (done) break;

    if (!local) acc.finalize_into(record);
    trace.append(std::move(record));
    superstep_ms.push_back(ms_since(step_start));
  }
  return trace;
}

Trace run_distributed(std::uint64_t v, const DistConfig& config,
                      Measurement* measure,
                      const std::function<void(DistributedBackend&)>& program) {
  (void)log2_exact(v);  // reject a bad v before any worker forks
  std::uint64_t workers = config.workers == 0 ? 4 : config.workers;
  if (workers > v) workers = v;
  workers = std::bit_floor(workers);  // power of two => equal contiguous
  if (workers == 0) workers = 1;      // clusters that divide v exactly
  const std::uint64_t span = v / workers;

  const auto run_start = std::chrono::steady_clock::now();
  std::vector<WorkerLink> links = spawn_workers(
      config.transport, static_cast<unsigned>(workers),
      [&](unsigned index, Channel& channel) {
        worker_main(v, index * span, (index + 1) * span, program, channel);
      });
  Reaper reaper(links);

  std::vector<Channel*> channels;
  channels.reserve(links.size());
  for (const WorkerLink& link : links) channels.push_back(link.channel.get());
  std::vector<double> superstep_ms;
  Trace trace = merge_streams(v, channels, superstep_ms);

  reaper.reap();
  if (measure != nullptr) {
    measure->superstep_ms = std::move(superstep_ms);
    measure->total_ms = ms_since(run_start);
    measure->workers = static_cast<unsigned>(workers);
    measure->transport = config.transport;
  }
  return trace;
}

}  // namespace nobl::dist
