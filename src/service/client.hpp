// Blocking NDJSON client for hmmsimd — one socket, line-oriented I/O.
//
// This is the transport behind `hmmsim --connect`, bench_service and the
// service smoke test: connect, send request lines, read frame lines
// until the frame you're waiting for arrives.  It is intentionally a
// thin synchronous wrapper (no reader thread, no callback plumbing) —
// the daemon already interleaves frames for us, and every consumer here
// is a sequential loop over `read_frame()`.
#pragma once

#include <optional>
#include <string>

#include "service/address.hpp"
#include "service/protocol.hpp"

namespace hmm::service {

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect and consume the server's hello frame (returned).  Throws
  /// PreconditionError if the endpoint is unreachable or the first line
  /// is not a hello.
  HelloFrame connect(const Address& address);

  /// Write one request as an NDJSON line.  Throws on a closed socket.
  void send(const Request& request);

  /// Write `line` (no newline) verbatim as one NDJSON line — any text,
  /// including input the daemon must reject.  Throws on a closed socket.
  void send_line(std::string line);

  /// Next line from the server, or nullopt on clean EOF.  Lines are
  /// returned verbatim (no newline) so callers can both parse them and
  /// count exact bytes.
  std::optional<std::string> read_line();

  /// read_line + frame_from_json; nullopt on EOF.
  std::optional<Frame> read_frame();

  void close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received but not yet returned as lines
  bool eof_ = false;
};

}  // namespace hmm::service
