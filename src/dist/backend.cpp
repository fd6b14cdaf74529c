#include "dist/backend.hpp"

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
//   'B' block:  aux = label, length = nevents; body = the src / dst / count
//               u64 columns, then ceil(nevents/64) dummy-bitmap words
//   'D' done:   aux = 0, length = 0, no body — the program returned
//               normally on this worker
//   'E' error:  aux = exception code, length = message bytes; body = the
//               message
// The stream is one way, worker to coordinator. A worker appends frames to
// one buffer and writes it once it holds kStreamBatchBytes, and at 'D' or
// 'E'. The coordinator reads a frame as one recv for the header and one for
// the body, both served by FdChannel's read-ahead.
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

}  // namespace

void DistributedBackend::close_superstep() {
  const std::size_t nevents = block_.size();
  const std::size_t words = 3 * nevents + block_.dummy_words().size();
  std::uint8_t* out = start_frame(frame_, kFrameBlock, label(), nevents,
                                  words * sizeof(std::uint64_t));
  out = put_column(out, block_.src());
  out = put_column(out, block_.dst());
  out = put_column(out, block_.count());
  put_column(out, block_.dummy_words());
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

Trace run_distributed(std::uint64_t v, const DistConfig& config,
                      Measurement* measure, Schedule* capture,
                      const std::function<void(DistributedBackend&)>& program) {
  const unsigned log_v = log2_exact(v);
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

  Trace trace(log_v);
  DegreeAccumulator acc(log_v);
  std::vector<double> superstep_ms;
  std::uint8_t header[kHeaderBytes] = {};
  std::vector<std::uint8_t> body;  // reused by every block frame
  Schedule captured;
  captured.log_v = log_v;
  ScheduleStep merged;

  // No barrier: workers run ahead, blocked only by a full socket, and the
  // coordinator drains them superstep by superstep, worker by worker. That
  // fixed merge order alone makes the trace bit-identical, and since a
  // worker waits on nothing but its own socket, draining cannot deadlock.
  bool done = false;
  while (!done) {
    const auto step_start = std::chrono::steady_clock::now();
    // Merge exactly like Schedule::replay_trace: one accumulator for the
    // whole run, a fresh record per superstep, count() per event.
    SuperstepRecord record;
    record.degree.assign(log_v + 1u, 0);
    if (capture != nullptr) merged = ScheduleStep{};
    for (unsigned w = 0; w < workers; ++w) {
      Channel& channel = *links[w].channel;
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
        for (unsigned other = 1; other < workers; ++other) {
          if (!links[other].channel->recv(header, kHeaderBytes)) {
            worker_gone(other);
          }
          if (header[0] != kFrameDone) {
            throw std::runtime_error(
                "dist: workers disagree on the superstep count");
          }
        }
        break;
      }
      if (kind != kFrameBlock || length > kMaxEvents) worker_gone(w);
      if (w == 0) {
        record.label = aux;
        merged.label = aux;
      } else if (aux != record.label) {
        throw std::runtime_error("dist: workers disagree on superstep labels");
      }
      const std::size_t nevents = length;
      const std::size_t column_bytes = nevents * sizeof(std::uint64_t);
      body.resize(3 * column_bytes +
                  (nevents + 63) / 64 * sizeof(std::uint64_t));
      if (!channel.recv(body.data(), body.size())) worker_gone(w);
      // Contiguous clusters + worker-index order = global ascending-sender
      // order, i.e. exactly the event order RecordBackend captures.
      const std::uint8_t* src = body.data();
      const std::uint8_t* dst = src + column_bytes;
      const std::uint8_t* count = dst + column_bytes;
      const std::uint8_t* dummy = count + column_bytes;
      for (std::size_t i = 0; i < nevents; ++i) {
        const std::size_t at = i * sizeof(std::uint64_t);
        const auto s = get_le<std::uint64_t>(src + at);
        const auto d = get_le<std::uint64_t>(dst + at);
        const auto c = get_le<std::uint64_t>(count + at);
        acc.count(s, d, c);
        if (capture != nullptr) {
          const auto word =
              get_le<std::uint64_t>(dummy + (i >> 6) * sizeof(std::uint64_t));
          merged.push(s, d, c, ((word >> (i & 63)) & 1) != 0);
        }
      }
    }
    if (done) break;

    acc.finalize_into(record);
    trace.append(std::move(record));
    superstep_ms.push_back(ms_since(step_start));
    if (capture != nullptr) captured.steps.push_back(std::move(merged));
  }

  reaper.reap();
  if (capture != nullptr) *capture = std::move(captured);
  if (measure != nullptr) {
    measure->superstep_ms = std::move(superstep_ms);
    measure->total_ms = ms_since(run_start);
    measure->workers = static_cast<unsigned>(workers);
    measure->transport = config.transport;
  }
  return trace;
}

}  // namespace nobl::dist
