#include "src/rpc/socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/obs/trace.h"
#include "src/rpc/wire.h"

namespace aerie {

namespace {

Status WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status(ErrorCode::kUnavailable,
                    std::string("write: ") + std::strerror(errno));
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return OkStatus();
}

Status ReadAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status(ErrorCode::kUnavailable,
                    std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status(ErrorCode::kUnavailable, "peer closed connection");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return OkStatus();
}

constexpr uint32_t kMaxFrame = 64u << 20;  // 64MB: bounds a malicious frame

// Smallest valid request frame body: u32 method + u8 trace_flags.
constexpr uint32_t kMinRequestFrame = 5;

// Length prefixes cross the socket as explicit little-endian too.
Result<uint32_t> ReadU32Le(int fd) {
  char buf[4];
  AERIE_RETURN_IF_ERROR(ReadAll(fd, buf, sizeof(buf)));
  WireReader reader(std::string_view(buf, sizeof(buf)));
  return reader.ReadU32();
}

}  // namespace

Result<std::unique_ptr<UdsServer>> UdsServer::Start(
    const std::string& path, const RpcDispatcher* dispatcher) {
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(ErrorCode::kUnavailable,
                  std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status(ErrorCode::kInvalidArgument, "socket path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable,
                  std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable,
                  std::string("listen: ") + std::strerror(errno));
  }
  auto server =
      std::unique_ptr<UdsServer>(new UdsServer(path, fd, dispatcher));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

UdsServer::~UdsServer() { Shutdown(); }

void UdsServer::Shutdown() {
  if (stopping_.exchange(true)) {
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mu_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) {
      t.join();
    }
  }
  ::unlink(path_.c_str());
}

void UdsServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listen socket closed
    }
    const uint64_t client_id = next_client_id_.fetch_add(1);
    // Handshake: send the session id the server will know this client by.
    WireBuffer handshake;
    handshake.AppendU64(client_id);
    if (!WriteAll(conn, handshake.data().data(), handshake.size()).ok()) {
      ::close(conn);
      continue;
    }
    std::lock_guard lock(mu_);
    conn_threads_.emplace_back(
        [this, conn, client_id] { ServeConnection(conn, client_id); });
  }
}

void UdsServer::ServeConnection(int fd, uint64_t client_id) {
  if (obs::SpansOn()) {
    char name[32];
    std::snprintf(name, sizeof(name), "tfs.conn%llu",
                  static_cast<unsigned long long>(client_id));
    obs::SetThreadTraceName(name);
  }
  std::string buf;
  while (!stopping_.load()) {
    auto frame_len = ReadU32Le(fd);
    if (!frame_len.ok() || *frame_len < kMinRequestFrame ||
        *frame_len > kMaxFrame) {
      break;
    }
    buf.resize(*frame_len);
    if (!ReadAll(fd, buf.data(), *frame_len).ok()) {
      break;
    }
    WireReader header(std::string_view(buf.data(), *frame_len));
    auto method = header.ReadU32();
    auto trace = ReadTraceContext(header);
    if (!method.ok() || !trace.ok()) {
      break;
    }
    std::string_view payload = header.Remaining();

    // Adopt the caller's trace context for the handler: spans opened while
    // dispatching become children of the remote client operation. An empty
    // context still gets installed so no state leaks between requests.
    obs::TraceContext ctx;
    ctx.trace_id = trace->trace_id;
    ctx.span_id = trace->span_id;
    obs::ScopedTraceContext trace_scope(ctx);

    auto result = dispatcher_->Dispatch(client_id, *method, payload);
    const uint8_t ok = result.ok() ? 1 : 0;
    const std::string& body =
        result.ok() ? result.value() : result.status().ToString();
    // Error responses also carry the ErrorCode so the client can rebuild the
    // exact Status.
    WireBuffer frame;
    const uint32_t resp_len = static_cast<uint32_t>(
        sizeof(uint8_t) + (result.ok() ? 0 : 1) + body.size());
    frame.AppendU32(resp_len);
    frame.AppendU8(ok);
    if (!result.ok()) {
      frame.AppendU8(static_cast<uint8_t>(result.status().code()));
    }
    frame.AppendRaw(body);
    if (!WriteAll(fd, frame.data().data(), frame.size()).ok()) {
      break;
    }
  }
  ::close(fd);
}

Result<std::unique_ptr<UdsTransport>> UdsTransport::Connect(
    const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(ErrorCode::kUnavailable,
                  std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status(ErrorCode::kInvalidArgument, "socket path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable,
                  std::string("connect: ") + std::strerror(errno));
  }
  char handshake[8];
  AERIE_RETURN_IF_ERROR(ReadAll(fd, handshake, sizeof(handshake)));
  WireReader reader(std::string_view(handshake, sizeof(handshake)));
  auto client_id = reader.ReadU64();
  AERIE_RETURN_IF_ERROR(client_id.status());
  return std::unique_ptr<UdsTransport>(new UdsTransport(fd, *client_id));
}

UdsTransport::~UdsTransport() { ::close(fd_); }

Result<std::string> UdsTransport::Call(uint32_t method,
                                       std::string_view request) {
  std::lock_guard lock(mu_);
  calls_.fetch_add(1, std::memory_order_relaxed);
  obs::RpcMethodStats* stats = nullptr;
  if (obs::CountersOn()) {
    stats = &obs::RpcMethodStatsFor(method);
    stats->calls.Add(1);
    stats->bytes_out.Add(request.size());
  }
  obs::ScopedSpan span(stats != nullptr ? &stats->span : nullptr);

  // Snapshot the trace context after the rpc.<method> span above opened, so
  // server-side spans hang off the RPC span of this specific call.
  WireTraceContext trace_ctx;
  if (obs::SpansOn()) {
    const obs::TraceContext cur = obs::CurrentTraceContext();
    trace_ctx.trace_id = cur.trace_id;
    trace_ctx.span_id = cur.span_id;
  }
  WireBuffer header;
  header.AppendU32(method);
  AppendTraceContext(header, trace_ctx);

  WireBuffer frame;
  frame.AppendU32(static_cast<uint32_t>(header.size() + request.size()));
  frame.AppendRaw(header.data());
  frame.AppendRaw(request);
  // The round trip — request write through response read — is genuine
  // off-CPU time blocked on the server; charge it to the rpc.<method> span
  // (the RAII scope ends at function exit, after the ns-scale parse below).
  obs::ScopedWait round_trip(obs::WaitKind::kRpc);
  AERIE_RETURN_IF_ERROR(WriteAll(fd_, frame.data().data(), frame.size()));

  auto resp_len_r = ReadU32Le(fd_);
  AERIE_RETURN_IF_ERROR(resp_len_r.status());
  const uint32_t resp_len = *resp_len_r;
  if (resp_len < 1 || resp_len > kMaxFrame) {
    return Status(ErrorCode::kUnavailable, "bad response frame");
  }
  std::string body(resp_len, '\0');
  AERIE_RETURN_IF_ERROR(ReadAll(fd_, body.data(), resp_len));
  if (stats != nullptr) {
    stats->bytes_in.Add(resp_len);
  }
  const uint8_t ok = static_cast<uint8_t>(body[0]);
  if (ok) {
    return body.substr(1);
  }
  if (resp_len < 2) {
    return Status(ErrorCode::kUnavailable, "malformed error response");
  }
  return Status(static_cast<ErrorCode>(body[1]), body.substr(2));
}

}  // namespace aerie
