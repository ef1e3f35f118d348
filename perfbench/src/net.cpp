// The daemon under test and the benchmark's socket clients.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

Daemon::Daemon(const std::string& bin) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe");
  const std::string threads_arg = std::to_string(kServeThreads);
  std::vector<std::string> args = {bin, "--listen", "0", "--threads",
                                   threads_arg};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int null_fd = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  const double t0 = now_s();
  // vfork: the child only makes system calls before exec, and the parent's
  // page tables are not copied, so set-up time is the daemon's own.
  pid_ = ::vfork();
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(null_fd, 0);
    ::dup2(null_fd, 1);
    ::dup2(pipe_fds[1], 2);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(null_fd);
  ::close(pipe_fds[1]);
  err_fd_ = pipe_fds[0];
  if (pid_ < 0) {
    ::close(err_fd_);
    throw std::runtime_error("cannot start " + bin);
  }
  const auto give_up = [this](const char* why) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    ::close(err_fd_);
    pid_ = -1;
    throw std::runtime_error(why);
  };
  // Wait for "acolay_serve: listening on 127.0.0.1:<port>".
  std::string text;
  const std::string marker = "listening on ";
  while (true) {
    pollfd p{err_fd_, POLLIN, 0};
    const double left = t0 + 30.0 - now_s();
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      give_up("daemon did not become ready");
    }
    char buf[512];
    const ssize_t got = ::read(err_fd_, buf, sizeof buf);
    if (got <= 0) give_up("daemon exited before ready");
    text.append(buf, static_cast<std::size_t>(got));
    const auto at = text.find(marker);
    const auto eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      setup_seconds_ = now_s() - t0;
      const std::string endpoint = text.substr(at + marker.size(),
                                               eol - at - marker.size());
      port_ = std::stoi(endpoint.substr(endpoint.rfind(':') + 1));
      break;
    }
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const { return vm_hwm_mb(std::to_string(pid_)); }

int Daemon::stop() {
  if (pid_ < 0) return 0;
  ::kill(pid_, SIGTERM);
  // Drain stderr (so the daemon never blocks writing its stats line) until
  // it closes; a daemon that outlives its drain timeout is killed.
  const double deadline = now_s() + 20.0;
  char buf[4096];
  while (true) {
    pollfd p{err_fd_, POLLIN, 0};
    const double left = deadline - now_s();
    if (left <= 0) {
      ::kill(pid_, SIGKILL);
      break;
    }
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) > 0 &&
        ::read(err_fd_, buf, sizeof buf) <= 0) {
      break;
    }
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  ::close(err_fd_);
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

Connection::Connection(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A daemon that stops reading must fail the send, not hang the run.
  timeval timeout{30, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    throw std::runtime_error("connect");
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::send_line(std::string_view line) {
  std::string data(line);
  data.push_back('\n');
  std::string_view rest = data;
  while (!rest.empty()) {
    const ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    rest.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool Connection::pop_line(std::string& out) {
  const auto eol = buf_.find('\n', start_);
  if (eol == std::string::npos) {
    if (start_ > 0) {
      buf_.erase(0, start_);
      start_ = 0;
    }
    return false;
  }
  out.assign(buf_, start_, eol - start_);
  start_ = eol + 1;
  return true;
}

bool Connection::fill() {
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n <= 0) return false;
  buf_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

bool Connection::read_line(std::string& out, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (!pop_line(out)) {
    pollfd p{fd_, POLLIN, 0};
    const double left = deadline - now_s();
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      return false;
    }
    if (!fill()) return false;
  }
  return true;
}

bool round_trip(Connection& c, const std::string& line, std::string& reply,
                double timeout_s) {
  return c.send_line(line) && c.read_line(reply, timeout_s);
}

}  // namespace perfbench
