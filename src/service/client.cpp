#include "service/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <variant>

#include "core/error.hpp"
#include "core/json.hpp"

namespace hmm::service {

Client::~Client() { close(); }

HelloFrame Client::connect(const Address& address) {
  close();
  fd_ = connect_address(address);
  eof_ = false;
  buffer_.clear();
  const auto line = read_line();
  if (!line) {
    throw PreconditionError("server closed the connection before hello");
  }
  Frame frame = frame_from_json(json::parse(*line));
  if (auto* hello = std::get_if<HelloFrame>(&frame)) return *hello;
  throw PreconditionError("expected a hello frame, got: " + *line);
}

void Client::send(const Request& request) {
  send_line(json::to_string(request_json(request)));
}

void Client::send_line(std::string line) {
  if (fd_ < 0) throw PreconditionError("client is not connected");
  line.push_back('\n');
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw PreconditionError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<std::string> Client::read_line() {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    if (eof_) {
      if (buffer_.empty()) return std::nullopt;
      std::string line = std::move(buffer_);  // unterminated trailing line
      buffer_.clear();
      return line;
    }
    if (fd_ < 0) return std::nullopt;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw PreconditionError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<Frame> Client::read_frame() {
  const auto line = read_line();
  if (!line) return std::nullopt;
  return frame_from_json(json::parse(*line));
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  eof_ = true;
  buffer_.clear();
}

}  // namespace hmm::service
