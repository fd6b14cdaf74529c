#include "dist/channel.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/fd_io.hpp"

namespace nobl::dist {
namespace {

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(errno_message(what));
}

/// Turn Nagle's algorithm off on a tcp link. Left on, the short tail
/// segment of a worker's last partial batch waits out the peer's
/// delayed-ACK timer.
bool set_nodelay(int fd) {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

/// Undo a tcp bring-up that failed after the first fork: close the open
/// sockets (`fd` may be -1), kill and reap every child, throw `message`.
[[noreturn]] void abort_tcp(const std::string& message, int listen_fd, int fd,
                            const std::vector<::pid_t>& pids) {
  if (fd >= 0) ::close(fd);
  ::close(listen_fd);
  for (const ::pid_t pid : pids) ::kill(pid, SIGKILL);
  for (const ::pid_t pid : pids) {
    ::pid_t got;
    do {
      got = ::waitpid(pid, nullptr, 0);
    } while (got < 0 && errno == EINTR);
  }
  throw std::runtime_error(message);
}

void close_all(const std::vector<int>& fds) {
  for (const int fd : fds) ::close(fd);
}

std::vector<WorkerLink> spawn_fork(
    unsigned workers,
    const std::function<void(unsigned, Channel&)>& child_main) {
  std::vector<WorkerLink> links;
  std::vector<int> parent_fds;  // mirrored for the children to close
  links.reserve(workers);
  for (unsigned index = 0; index < workers; ++index) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw_errno("dist: socketpair()");
    }
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw_errno("dist: fork()");
    }
    if (pid == 0) {
      // Child: drop every parent-side endpoint inherited from earlier
      // iterations, keep only this worker's end.
      ::close(sv[0]);
      close_all(parent_fds);
      FdChannel channel(sv[1]);
      child_main(index, channel);
      ::_exit(0);
    }
    ::close(sv[1]);
    parent_fds.push_back(sv[0]);
    links.push_back(WorkerLink{pid, std::make_unique<FdChannel>(sv[0])});
  }
  return links;
}

std::vector<WorkerLink> spawn_tcp(
    unsigned workers,
    const std::function<void(unsigned, Channel&)>& child_main) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) throw_errno("dist: socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: the kernel picks a free loopback port
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, static_cast<int>(workers)) != 0) {
    ::close(listen_fd);
    throw_errno("dist: bind/listen(127.0.0.1)");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ::close(listen_fd);
    throw_errno("dist: getsockname()");
  }

  // Fork every worker first; the kernel completes their connect() against
  // the listen backlog, so the accept loop below cannot deadlock.
  std::vector<::pid_t> pids;
  pids.reserve(workers);
  for (unsigned index = 0; index < workers; ++index) {
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      abort_tcp(errno_message("dist: fork()"), listen_fd, -1, pids);
    }
    if (pid == 0) {
      ::close(listen_fd);
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) ::_exit(3);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&bound),
                    sizeof(bound)) != 0 ||
          !set_nodelay(fd)) {
        ::_exit(3);
      }
      // Hello frame: the worker index, so the coordinator can map the
      // accepted connection back to a VP cluster regardless of accept order.
      std::uint8_t hello[sizeof(std::uint32_t)] = {};
      put_le<std::uint32_t>(hello, index);
      if (!io::send_all(fd, hello, sizeof(hello))) ::_exit(3);
      FdChannel channel(fd);
      child_main(index, channel);
      ::_exit(0);
    }
    pids.push_back(pid);
  }

  std::vector<WorkerLink> links(workers);
  for (unsigned accepted = 0; accepted < workers; ++accepted) {
    int fd;
    do {
      fd = ::accept(listen_fd, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) {
      abort_tcp(errno_message("dist: accept()"), listen_fd, -1, pids);
    }
    if (!set_nodelay(fd)) {
      abort_tcp(errno_message("dist: setsockopt(TCP_NODELAY)"), listen_fd, fd,
                pids);
    }
    std::uint8_t hello[sizeof(std::uint32_t)] = {};
    const std::uint32_t worker = io::recv_exact(fd, hello, sizeof(hello))
                                     ? get_le<std::uint32_t>(hello)
                                     : workers;
    if (worker >= workers || links[worker].channel != nullptr) {
      abort_tcp("dist: bad worker hello on tcp transport", listen_fd, fd, pids);
    }
    links[worker] = WorkerLink{pids[worker], std::make_unique<FdChannel>(fd)};
  }
  ::close(listen_fd);
  return links;
}

}  // namespace

std::string to_string(Transport transport) {
  switch (transport) {
    case Transport::kFork:
      return "fork";
    case Transport::kTcp:
      return "tcp";
  }
  return "unknown";
}

Transport transport_from_string(const std::string& name) {
  if (name == "fork") return Transport::kFork;
  if (name == "tcp") return Transport::kTcp;
  throw std::invalid_argument("unknown transport \"" + name +
                              "\" (expected fork | tcp)");
}

FdChannel::~FdChannel() { ::close(fd_); }

bool FdChannel::send(const void* data, std::size_t len) {
  return io::send_all(fd_, data, len);
}

bool FdChannel::recv(void* data, std::size_t len) {
  auto* out = static_cast<std::uint8_t*>(data);
  const std::size_t buffered = std::min(len, end_ - begin_);
  if (buffered != 0) {
    std::memcpy(out, buffer_.data() + begin_, buffered);
    begin_ += buffered;
    out += buffered;
    len -= buffered;
  }
  if (len == 0) return true;
  // The buffer is empty here.
  if (len >= kStreamBatchBytes) return io::recv_exact(fd_, out, len);
  buffer_.resize(kStreamBatchBytes);
  begin_ = 0;
  end_ = 0;
  while (end_ < len) {
    const ssize_t got =
        io::recv_some(fd_, buffer_.data() + end_, buffer_.size() - end_);
    if (got <= 0) {
      if (got == 0) errno = 0;  // clean EOF, as recv_exact reports it
      return false;
    }
    end_ += static_cast<std::size_t>(got);
  }
  std::memcpy(out, buffer_.data(), len);
  begin_ = len;
  return true;
}

std::vector<WorkerLink> spawn_workers(
    Transport transport, unsigned workers,
    const std::function<void(unsigned, Channel&)>& child_main) {
  if (workers == 0) throw std::runtime_error("dist: zero workers");
  return transport == Transport::kFork ? spawn_fork(workers, child_main)
                                       : spawn_tcp(workers, child_main);
}

}  // namespace nobl::dist
