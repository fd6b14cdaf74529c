// Transport abstraction for the distributed D-BSP backend.
//
// The coordinator/worker protocol (dist/backend.cpp) is written against one
// device description: a set of worker processes, each reachable through a
// reliable bidirectional byte stream. Transports are interchangeable behind
// that description —
//
//   kFork — socketpairs opened before fork(): the zero-configuration
//     shared-memory-machine transport, no addressing, no handshake.
//   kTcp  — loopback TCP: the coordinator listens on 127.0.0.1:0, each
//     forked worker connects and identifies itself with a one-word hello.
//     The same frames flow over a real network stack, so this is the
//     stepping stone to genuinely remote workers. Both ends set
//     TCP_NODELAY: workers stream batched frames with no reply, and with
//     Nagle's algorithm on, the short tail segment of a batch would wait
//     for the peer's delayed ACK, a kernel timer.
//
// Both reduce to FdChannel over util/fd_io, so EINTR and partial reads /
// writes are absorbed below the protocol layer. FdChannel reads ahead in
// kStreamBatchBytes chunks, so one kernel read serves many small frames.
// Every integer on the wire is little-endian, whatever the host's byte
// order, and goes through the put_le / get_le pair below.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

namespace nobl::dist {

/// Which wire carries superstep frames between coordinator and workers.
enum class Transport : std::uint8_t { kFork, kTcp };

/// "fork" | "tcp".
[[nodiscard]] std::string to_string(Transport transport);

/// Inverse of to_string; throws std::invalid_argument listing the valid
/// names on a miss.
[[nodiscard]] Transport transport_from_string(const std::string& name);

/// Encode `value` as sizeof(UInt) little-endian bytes at `out`.
template <std::unsigned_integral UInt>
void put_le(std::uint8_t* out, UInt value) {
  for (std::size_t i = 0; i < sizeof(UInt); ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Decode sizeof(UInt) little-endian bytes at `in`.
template <std::unsigned_integral UInt>
[[nodiscard]] UInt get_le(const std::uint8_t* in) {
  UInt value = 0;
  for (std::size_t i = 0; i < sizeof(UInt); ++i) {
    value |= static_cast<UInt>(static_cast<UInt>(in[i]) << (8 * i));
  }
  return value;
}

/// Batch size of the worker -> coordinator stream: a worker writes once its
/// buffered frames reach this many bytes, and FdChannel reads ahead up to
/// this many bytes per kernel read.
inline constexpr std::size_t kStreamBatchBytes = std::size_t{64} * 1024;

/// A reliable bidirectional byte stream to one peer. The coordinator and
/// worker protocols are written against this interface only.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Send exactly `len` bytes; false = peer gone or real error.
  [[nodiscard]] virtual bool send(const void* data, std::size_t len) = 0;
  /// Receive exactly `len` bytes; false = EOF or real error.
  [[nodiscard]] virtual bool recv(void* data, std::size_t len) = 0;
};

/// Channel over one connected stream socket (owns and closes the fd).
/// recv reads ahead: it fills a kStreamBatchBytes buffer with whatever one
/// kernel read returns and serves exact-length reads from it; a read of at
/// least kStreamBatchBytes drains the buffer and reads the rest directly.
class FdChannel final : public Channel {
 public:
  explicit FdChannel(int fd) : fd_(fd) {}
  ~FdChannel() override;

  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;

  [[nodiscard]] bool send(const void* data, std::size_t len) override;
  [[nodiscard]] bool recv(void* data, std::size_t len) override;

 private:
  int fd_;
  std::vector<std::uint8_t> buffer_;  ///< read-ahead, sized on first recv
  std::size_t begin_ = 0;             ///< next unread byte of buffer_
  std::size_t end_ = 0;               ///< one past the last buffered byte
};

/// One worker process as the coordinator sees it.
struct WorkerLink {
  ::pid_t pid = -1;
  std::unique_ptr<Channel> channel;
};

/// Fork `workers` child processes connected to the caller over `transport`
/// and run `child_main(index, channel)` in each; children _exit(0) when it
/// returns and never unwind into the caller's stack. The returned links are
/// in worker-index order. Throws std::runtime_error when the device cannot
/// be brought up (socketpair/bind/fork failure).
[[nodiscard]] std::vector<WorkerLink> spawn_workers(
    Transport transport, unsigned workers,
    const std::function<void(unsigned, Channel&)>& child_main);

}  // namespace nobl::dist
