#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "query/parser.h"
#include "txn/txn_manager.h"

namespace rodin::server {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Status SysError(const std::string& what) {
  return Status::Error(Status::Code::kInternal,
                       StrFormat("%s: %s", what.c_str(), strerror(errno)));
}

}  // namespace

/// Per-connection state. Ownership: the I/O thread holds the map entry; a
/// worker streaming a reply holds a second shared_ptr, so the struct (and
/// the fd) outlive an epoll-side disconnect until the worker lets go. The
/// fd is closed exactly once, by the destructor.
///
/// Thread roles: inbuf / hello_done / statements / active_request /
/// active_cancel are I/O-thread-only (Stop() touches active_cancel after
/// the I/O thread has been joined). `busy` and `open` are cross-thread
/// atomics. Writes to the socket are serialized by write_mu.
struct Server::Connection {
  explicit Connection(int fd, uint64_t id) : fd(fd), id(id) {}
  ~Connection() {
    if (fd >= 0) close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  const uint64_t id;

  std::string inbuf;
  bool hello_done = false;

  std::mutex write_mu;
  std::atomic<bool> open{true};

  /// One request may be in flight per connection. Set true at dispatch (I/O
  /// thread), cleared by the worker after the terminal STATUS.
  std::atomic<bool> busy{false};
  uint64_t active_request = 0;
  CancelToken active_cancel;

  /// GOODBYE arrived while a request was in flight: the worker shuts the
  /// socket down after finishing instead of the I/O thread doing it now.
  std::atomic<bool> close_after_drain{false};

  /// Prepared statements of this connection. Inserted by workers (PREPARE),
  /// read by the I/O thread (EXECUTE dispatch) — hence the mutex. Graphs
  /// are shared_ptr so EXECUTE can hand one to a worker without copying
  /// under the lock.
  std::mutex stmt_mu;
  uint64_t next_statement = 1;
  std::map<uint64_t, std::shared_ptr<const QueryGraph>> statements;

  /// This connection's open transaction (0 = none), opened implicitly by
  /// the first MUTATE. Staged on the I/O thread, committed by a worker,
  /// rolled back by the I/O thread on disconnect — hence the mutex.
  std::mutex txn_mu;
  uint64_t open_txn = 0;
};

Server::Server(EngineHandle* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      governor_(options_.max_in_flight) {}

Server::~Server() { Stop(); }

std::unique_ptr<Server> Server::Start(EngineHandle* engine,
                                      const ServerOptions& options,
                                      Status* status) {
  *status = Status::Ok();
  if (engine == nullptr) {
    *status = Status::Error(Status::Code::kInvalidArgument,
                            "Server::Start: null engine");
    return nullptr;
  }
  if (options.workers == 0 || options.max_in_flight == 0) {
    *status = Status::Error(Status::Code::kInvalidArgument,
                            "Server::Start: workers and max_in_flight must "
                            "be positive");
    return nullptr;
  }
  std::unique_ptr<Server> server(new Server(engine, options));
  *status = server->Listen();
  if (!status->ok()) return nullptr;

  for (size_t i = 0; i < options.max_in_flight; ++i) {
    std::unique_ptr<Session> session = engine->NewSession();
    session->set_shared_db(true);
    server->sessions_.push_back(std::move(session));
  }
  server->workers_ = std::make_unique<ThreadPool>(options.workers);
  server->io_thread_ = std::thread([s = server.get()] { s->EventLoop(); });
  return server;
}

Status Server::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return SysError("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::Error(Status::Code::kInvalidArgument,
                         StrFormat("bad listen host: %s",
                                   options_.host.c_str()));
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return SysError("bind");
  }
  if (listen(listen_fd_, options_.listen_backlog) < 0) {
    return SysError("listen");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return SysError("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) return SysError("fcntl(listen)");

  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) return SysError("epoll_create1");
  wake_fd_ = eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return SysError("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return SysError("epoll_ctl(listen)");
  }
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return SysError("epoll_ctl(wake)");
  }
  return Status::Ok();
}

void Server::Stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
  if (io_thread_.joinable()) io_thread_.join();

  // Cancel every in-flight query and poison every socket so streaming
  // workers bail out within one batch, then drain the worker pool.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& [fd, conn] : connections_) conns.push_back(conn);
    connections_.clear();
  }
  for (auto& conn : conns) {
    if (conn->busy.load()) conn->active_cancel.RequestCancel();
    RollbackConnTxn(conn);
    conn->open.store(false);
    shutdown(conn->fd, SHUT_RDWR);
  }
  workers_.reset();  // drains the queue, joins the workers
  conns.clear();
  connections_active_.store(0);

  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
}

void Server::EventLoop() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stopping_.load()) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n && !stopping_.load(); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain;
        [[maybe_unused]] ssize_t r = read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(connections_mu_);
        auto it = connections_.find(fd);
        if (it == connections_.end()) continue;  // raced with removal
        conn = it->second;
      }
      HandleReadable(conn);
    }
  }
}

void Server::AcceptAll() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: wait for the next event
    }
    if (!SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>(
        fd, next_connection_id_.fetch_add(1, std::memory_order_relaxed));
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) continue;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_[fd] = conn;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  bool eof = false;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // hard error (ECONNRESET, ...): same as a disconnect
    break;
  }
  if (!conn->inbuf.empty() && !ParseFrames(conn)) return;  // already dropped
  if (eof) HandleDisconnect(conn);
}

void Server::RollbackConnTxn(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->txn_mu);
  if (conn->open_txn != 0) {
    // Best-effort: an in-flight worker commit may have already closed it
    // (Rollback then reports unknown id, which is fine).
    TxnManager::For(engine_->db())->Rollback(conn->open_txn);
    conn->open_txn = 0;
  }
}

void Server::HandleDisconnect(const std::shared_ptr<Connection>& conn) {
  RollbackConnTxn(conn);
  if (conn->busy.load()) {
    // Trip the token only; `disconnect_cancels` is accounted by the worker
    // when the orphaned request retires. Counting here would be racy: the
    // worker's own failed write can observe the hangup first, clear `busy`,
    // and this branch would never run.
    conn->active_cancel.RequestCancel();
  }
  conn->open.store(false);
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections_.erase(conn->fd);
  }
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

bool Server::ParseFrames(const std::shared_ptr<Connection>& conn) {
  size_t pos = 0;
  bool ok = true;
  while (conn->inbuf.size() - pos >= kFrameHeaderBytes) {
    FrameHeader header;
    if (!DecodeFrameHeader(conn->inbuf.data() + pos, &header)) {
      ProtocolError(conn, header.request_id, "frame exceeds 16 MiB limit");
      ok = false;
      break;
    }
    if (conn->inbuf.size() - pos <
        kFrameHeaderBytes + header.payload_length) {
      break;  // incomplete frame: wait for more bytes
    }
    const std::string payload = conn->inbuf.substr(
        pos + kFrameHeaderBytes, header.payload_length);
    pos += kFrameHeaderBytes + header.payload_length;
    if (!DispatchFrame(conn, header, payload)) {
      ok = false;
      break;
    }
  }
  if (ok && pos > 0) conn->inbuf.erase(0, pos);
  return ok;
}

bool Server::DispatchFrame(const std::shared_ptr<Connection>& conn,
                           const FrameHeader& header,
                           const std::string& payload) {
  PayloadReader r(payload.data(), payload.size());
  if (!conn->hello_done) {
    if (header.type != FrameType::kHello) {
      ProtocolError(conn, header.request_id, "expected HELLO");
      return false;
    }
    uint32_t version = 0;
    if (!r.U32(&version) || !r.AtEnd()) {
      ProtocolError(conn, header.request_id, "malformed HELLO");
      return false;
    }
    if (version != kProtocolVersion) {
      ProtocolError(conn, header.request_id,
                    StrFormat("unsupported protocol version %u (this server "
                              "speaks only version %u)",
                              version, kProtocolVersion));
      return false;
    }
    conn->hello_done = true;
    PayloadWriter w;
    w.U32(kProtocolVersion);
    w.Str(options_.banner);
    w.U64(conn->id);
    WriteToConnection(
        conn, EncodeFrame(FrameType::kHelloOk, header.request_id, w.Take()));
    return true;
  }

  switch (header.type) {
    case FrameType::kQuery: {
      std::string text;
      WireQueryOptions wire;
      if (!r.Str(&text) || !wire.Decode(&r) || !r.AtEnd()) {
        ProtocolError(conn, header.request_id, "malformed QUERY");
        return false;
      }
      StartQuery(conn, header.request_id, std::move(text), nullptr, wire);
      return true;
    }
    case FrameType::kPrepare: {
      std::string text;
      if (!r.Str(&text) || !r.AtEnd()) {
        ProtocolError(conn, header.request_id, "malformed PREPARE");
        return false;
      }
      workers_->Submit([this, conn, request_id = header.request_id,
                        text = std::move(text)] {
        RunPrepare(conn, request_id, text);
      });
      return true;
    }
    case FrameType::kExecute: {
      uint64_t statement_id = 0;
      WireQueryOptions wire;
      if (!r.U64(&statement_id) || !wire.Decode(&r) || !r.AtEnd()) {
        ProtocolError(conn, header.request_id, "malformed EXECUTE");
        return false;
      }
      std::shared_ptr<const QueryGraph> graph;
      {
        std::lock_guard<std::mutex> lock(conn->stmt_mu);
        auto it = conn->statements.find(statement_id);
        if (it != conn->statements.end()) graph = it->second;
      }
      if (graph == nullptr) {
        SendStatus(conn, header.request_id,
                   Status::Error(Status::Code::kInvalidArgument,
                                 StrFormat("unknown statement id %llu",
                                           static_cast<unsigned long long>(
                                               statement_id))));
        return true;
      }
      StartQuery(conn, header.request_id, std::string(), std::move(graph),
                 wire);
      return true;
    }
    case FrameType::kCancel: {
      uint64_t target = 0;
      if (!r.U64(&target) || !r.AtEnd()) {
        ProtocolError(conn, header.request_id, "malformed CANCEL");
        return false;
      }
      if (conn->busy.load() && conn->active_request == target) {
        conn->active_cancel.RequestCancel();
        cancel_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    case FrameType::kGoodbye: {
      if (conn->busy.load()) {
        conn->close_after_drain.store(true);
        // Re-check: the worker may have finished between the two loads, in
        // which case nobody else will act on the flag.
        if (!conn->busy.load()) shutdown(conn->fd, SHUT_RDWR);
      } else {
        shutdown(conn->fd, SHUT_RDWR);
      }
      return true;
    }
    case FrameType::kMutate: {
      MutationBatch batch;
      if (!DecodeMutationBatch(&r, &batch) || !r.AtEnd()) {
        ProtocolError(conn, header.request_id, "malformed MUTATE");
        return false;
      }
      HandleMutate(conn, header.request_id, batch);
      return true;
    }
    case FrameType::kCommit: {
      if (!r.AtEnd()) {
        ProtocolError(conn, header.request_id, "malformed COMMIT");
        return false;
      }
      StartCommit(conn, header.request_id);
      return true;
    }
    default:
      break;
  }
  ProtocolError(conn, header.request_id,
                StrFormat("unexpected frame type %u",
                          static_cast<unsigned>(header.type)));
  return false;
}

void Server::HandleMutate(const std::shared_ptr<Connection>& conn,
                          uint64_t request_id, MutationBatch batch) {
  // MUTATE obeys the same one-request-in-flight rule as QUERY/COMMIT: a
  // MUTATE pipelined behind a COMMIT would otherwise stage into the very
  // transaction the commit worker is flushing (Commit drops the TxnManager
  // mutex while draining readers), committing ops the client meant for the
  // next transaction.
  if (conn->busy.load()) {
    SendStatus(conn, request_id,
               Status::Error(Status::Code::kInvalidArgument,
                             "one request may be in flight per connection; "
                             "wait for the previous STATUS frame"));
    return;
  }
  // Staging is a handful of vector appends under the TxnManager mutex —
  // cheap enough to answer inline on the I/O thread, like HELLO. Only
  // COMMIT (which validates, applies and drains readers) rates a worker.
  //
  // Slot-only addressing: clients do not know server-side class ids, so a
  // delete/update target sent with class_id == UINT32_MAX means "slot N of
  // this op's extent" and is resolved here. Unknown extents stay invalid and
  // are rejected by commit-time validation like any other bad target.
  for (MutationOp& op : batch.ops) {
    if (op.kind != MutationOpKind::kInsert &&
        op.target.class_id == UINT32_MAX && op.target.slot != UINT32_MAX &&
        engine_->db()->FindExtent(op.extent) != nullptr) {
      op.target = engine_->db()->PayloadToOid(op.extent, op.target.slot);
    }
  }
  TxnManager* tm = TxnManager::For(engine_->db());
  Status st = Status::Ok();
  uint64_t staged_ops = 0;
  {
    std::lock_guard<std::mutex> lock(conn->txn_mu);
    if (conn->open_txn == 0) st = tm->Begin(&conn->open_txn);
    if (st.ok()) {
      MutationResult staged;
      st = tm->Stage(conn->open_txn, batch, &staged);
      if (st.ok()) staged_ops = batch.size();
    }
  }
  if (st.ok()) mutates_staged_.fetch_add(1, std::memory_order_relaxed);
  SendStatus(conn, request_id, st, staged_ops);
}

void Server::StartCommit(const std::shared_ptr<Connection>& conn,
                         uint64_t request_id) {
  if (conn->busy.load()) {
    SendStatus(conn, request_id,
               Status::Error(Status::Code::kInvalidArgument,
                             "one request may be in flight per connection; "
                             "wait for the previous STATUS frame"));
    return;
  }
  conn->active_request = request_id;
  conn->busy.store(true);
  workers_->Submit([this, conn, request_id] { RunCommit(conn, request_id); });
}

void Server::RunCommit(const std::shared_ptr<Connection>& conn,
                       uint64_t request_id) {
  TxnManager* tm = TxnManager::For(engine_->db());
  uint64_t txn_id = 0;
  {
    std::lock_guard<std::mutex> lock(conn->txn_mu);
    txn_id = conn->open_txn;
  }
  CommitResult res;
  if (txn_id == 0) {
    res.status = Status::Error(
        Status::Code::kInvalidArgument,
        "COMMIT without an open transaction (stage a MUTATE first)");
  } else {
    res = tm->Commit(txn_id);
    // kConflict leaves the transaction open for a retry; everything else
    // (success, validation failure, rollback race) closed it.
    if (res.status.code != Status::Code::kConflict) {
      std::lock_guard<std::mutex> lock(conn->txn_mu);
      if (conn->open_txn == txn_id) conn->open_txn = 0;
    }
  }
  if (res.ok()) {
    commits_ok_.fetch_add(1, std::memory_order_relaxed);
  } else if (res.status.code == Status::Code::kConflict) {
    commit_conflicts_.fetch_add(1, std::memory_order_relaxed);
  } else {
    commits_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->busy.store(false);
  Status st = res.status;
  if (st.ok()) st.detail = res.stats_version;  // per the kCommit frame spec
  SendStatus(conn, request_id, st, res.ops_applied);
  if (conn->close_after_drain.load()) shutdown(conn->fd, SHUT_RDWR);
}

void Server::StartQuery(const std::shared_ptr<Connection>& conn,
                        uint64_t request_id, std::string text,
                        std::shared_ptr<const QueryGraph> graph,
                        const WireQueryOptions& wire) {
  if (conn->busy.load()) {
    SendStatus(conn, request_id,
               Status::Error(Status::Code::kInvalidArgument,
                             "one request may be in flight per connection; "
                             "wait for the previous STATUS frame"));
    return;
  }
  Status admit = governor_.Admit();
  if (!admit.ok()) {
    SendStatus(conn, request_id, admit);
    return;
  }
  // Install the cancel token *before* the handoff so a CANCEL frame or a
  // disconnect cancels the request even while it is still queued.
  CancelToken token;
  conn->active_request = request_id;
  conn->active_cancel = token;
  conn->busy.store(true);
  queries_started_.fetch_add(1, std::memory_order_relaxed);
  workers_->Submit([this, conn, request_id, text = std::move(text),
                    graph = std::move(graph), wire, token] {
    RunQuery(conn, request_id, text, graph, wire, token);
  });
}

void Server::RunQuery(const std::shared_ptr<Connection>& conn,
                      uint64_t request_id, const std::string& text,
                      std::shared_ptr<const QueryGraph> graph,
                      const WireQueryOptions& wire, CancelToken token) {
  QueryOptions options = wire.ToQueryOptions();
  options.query.cancel = token;

  std::unique_ptr<Session> session = CheckOutSession();
  Status final_status;
  uint64_t rows_produced = 0;
  double measured_cost = -1;
  bool client_gone = false;
  {
    ResultCursor cursor = graph != nullptr ? session->Query(*graph, options)
                                           : session->Query(text, options);
    if (!cursor.ok()) {
      final_status = cursor.status();
    } else {
      PayloadWriter schema;
      const auto& cols = cursor.schema().cols;
      schema.U32(static_cast<uint32_t>(cols.size()));
      for (const auto& col : cols) schema.Str(col.name);
      bool writable = WriteToConnection(
          conn, EncodeFrame(FrameType::kSchema, request_id, schema.Take()));

      uint64_t streamed = 0;
      RowBatch batch;
      while (writable && conn->open.load() && cursor.Next(&batch)) {
        PayloadWriter rows;
        rows.U32(static_cast<uint32_t>(batch.size()));
        for (const Row& row : batch.rows) {
          for (const Value& value : row) EncodeValue(value, &rows);
        }
        writable = WriteToConnection(
            conn, EncodeFrame(FrameType::kRows, request_id, rows.Take()));
        if (writable) streamed += batch.size();
      }
      // Finalize the cursor's accounting whether we drained it or bailed
      // out on a dead connection; the terminal figures are then valid.
      cursor.Finish();
      rows_streamed_.fetch_add(streamed, std::memory_order_relaxed);
      final_status = cursor.status();
      rows_produced = cursor.counters().rows_produced;
      measured_cost = cursor.measured_cost();
      client_gone = !writable;
    }
  }
  // The disconnect may have been observed by a failed write above or by the
  // I/O thread's hangup handler (which covers the queued-then-disconnected
  // case, where no write ever probed the socket).
  if (!conn->open.load()) client_gone = true;
  if (client_gone && final_status.ok()) {
    // The client vanished mid-request. Even when the cursor raced to a
    // clean finish before the disconnect cancel tripped it, the request
    // did not deliver its answer — account it cancelled, never ok.
    final_status = Status::Error(Status::Code::kCancelled,
                                 "client disconnected mid-stream");
  }
  // Free the slot *before* writing the terminal STATUS: the client is
  // allowed to pitch its next request the instant it reads that frame, and
  // the I/O thread must not see a stale `busy` when the request lands. A
  // client that pipelines *without* waiting for STATUS is out of spec and
  // may see its streams interleaved — its own problem, not a server hazard
  // (frame writes stay atomic under the write mutex).
  ReturnSession(std::move(session));
  conn->busy.store(false);
  governor_.Release();

  // Count before writing the STATUS frame: a client that reads the frame
  // and immediately asks stats() must see this query accounted for.
  // `disconnect_cancels` is counted here — exactly once per retired request
  // whose client vanished — regardless of whether the I/O thread's hangup
  // handler or this worker's failed write observed the disconnect first.
  if (client_gone) {
    disconnect_cancels_.fetch_add(1, std::memory_order_relaxed);
  }
  if (final_status.ok()) {
    queries_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  SendStatus(conn, request_id, final_status, rows_produced, measured_cost);
  if (conn->close_after_drain.load()) shutdown(conn->fd, SHUT_RDWR);
}

void Server::RunPrepare(const std::shared_ptr<Connection>& conn,
                        uint64_t request_id, const std::string& text) {
  ParseResult parsed = ParseQuery(text, engine_->schema());
  if (!parsed.ok()) {
    SendStatus(conn, request_id, parsed.status);
    return;
  }
  uint64_t statement_id;
  {
    std::lock_guard<std::mutex> lock(conn->stmt_mu);
    statement_id = conn->next_statement++;
    conn->statements[statement_id] =
        std::make_shared<const QueryGraph>(std::move(parsed.graph));
  }
  PayloadWriter w;
  w.U64(statement_id);
  WriteToConnection(
      conn, EncodeFrame(FrameType::kPrepareOk, request_id, w.Take()));
}

bool Server::WriteToConnection(const std::shared_ptr<Connection>& conn,
                               const std::string& frame) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load()) return false;
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = send(conn->fd, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{};
      p.fd = conn->fd;
      p.events = POLLOUT;
      const int r = poll(&p, 1, static_cast<int>(options_.send_timeout_ms));
      if (r > 0) continue;
      // Stalled past the budget (or poll error): drop the slow client.
    }
    conn->open.store(false);
    shutdown(conn->fd, SHUT_RDWR);  // the I/O thread observes and cleans up
    return false;
  }
  return true;
}

void Server::SendStatus(const std::shared_ptr<Connection>& conn,
                        uint64_t request_id, const Status& status,
                        uint64_t rows_produced, double measured_cost) {
  WriteToConnection(
      conn, EncodeFrame(FrameType::kStatus, request_id,
                        EncodeStatusPayload(status, rows_produced,
                                            measured_cost)));
}

void Server::ProtocolError(const std::shared_ptr<Connection>& conn,
                           uint64_t request_id, const std::string& message) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  SendStatus(conn, request_id,
             Status::Error(Status::Code::kInvalidArgument, message));
  HandleDisconnect(conn);
}

std::unique_ptr<Session> Server::CheckOutSession() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  // Admission (<= max_in_flight) guarantees a free session.
  std::unique_ptr<Session> session = std::move(sessions_.back());
  sessions_.pop_back();
  return session;
}

void Server::ReturnSession(std::unique_ptr<Session> session) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.push_back(std::move(session));
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_active = connections_active_.load();
  s.protocol_errors = protocol_errors_.load();
  s.queries_started = queries_started_.load();
  s.queries_ok = queries_ok_.load();
  s.queries_failed = queries_failed_.load();
  s.rows_streamed = rows_streamed_.load();
  s.cancel_frames = cancel_frames_.load();
  s.disconnect_cancels = disconnect_cancels_.load();
  s.mutates_staged = mutates_staged_.load();
  s.commits_ok = commits_ok_.load();
  s.commit_conflicts = commit_conflicts_.load();
  s.commits_failed = commits_failed_.load();
  s.admission = governor_.snapshot();
  return s;
}

}  // namespace rodin::server
