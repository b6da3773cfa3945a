#ifndef RODIN_SERVER_CLIENT_H_
#define RODIN_SERVER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "api/query_options.h"
#include "common/status.h"
#include "server/wire.h"
#include "storage/value.h"

namespace rodin::server {

/// What one round-trip produced. `rows_streamed` counts rows received over
/// the wire (fewer than rows_produced when the caller stopped early);
/// `rows_produced` / `measured_cost` are the server-side figures from the
/// terminal STATUS frame.
struct ClientResult {
  Status status;
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  uint64_t rows_streamed = 0;
  uint64_t rows_produced = 0;
  double measured_cost = -1;

  bool ok() const { return status.ok(); }
};

/// A blocking rodin_serve client over one TCP connection: Connect performs
/// the HELLO handshake, Query / Prepare / Execute are synchronous
/// request/response round-trips. This is the reference protocol
/// implementation — server_test, the tutorial and rodin_load all speak
/// through it.
///
/// Thread model: one request at a time from one thread (matching the
/// server's one-in-flight-per-connection rule). The single exception is
/// CancelActive(), which may be called from another thread to cancel the
/// request currently blocking in Query/Execute — frame *writes* are
/// serialized internally so the CANCEL may interleave safely.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and completes the HELLO handshake. A server that refuses
  /// the protocol version answers with a STATUS, which is returned.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  /// Server-assigned connection id (from HELLO_OK).
  uint64_t connection_id() const { return connection_id_; }

  /// Runs a query and streams the reply until the terminal STATUS frame.
  /// `stop_after_rows` > 0 abruptly closes the socket once that many rows
  /// have arrived — the test hook for "client vanishes mid-stream"; the
  /// result then reports kCancelled locally. `collect_rows` false discards
  /// row data after counting (load-driver mode).
  ClientResult Query(const std::string& text,
                     const QueryOptions& options = {},
                     uint64_t stop_after_rows = 0, bool collect_rows = true);

  /// PREPARE round-trip; fills *statement_id on success.
  Status Prepare(const std::string& text, uint64_t* statement_id);

  /// Runs a prepared statement (same streaming semantics as Query).
  ClientResult Execute(uint64_t statement_id,
                       const QueryOptions& options = {},
                       uint64_t stop_after_rows = 0,
                       bool collect_rows = true);

  /// MUTATE round-trip: stages `batch` on this connection's
  /// server-side transaction (opened implicitly by the first Mutate).
  /// Fills *ops_staged with the ops accepted. kConflict (retryable) when
  /// another connection holds the write slot.
  Status Mutate(const MutationBatch& batch, uint64_t* ops_staged = nullptr);

  /// COMMIT round-trip. On success fills *ops_applied and
  /// *stats_version (the post-commit engine stats version). kConflict
  /// (retryable; the transaction stays open server-side) while streaming
  /// cursors are live.
  Status Commit(uint64_t* ops_applied = nullptr,
                uint64_t* stats_version = nullptr);

  /// Sends CANCEL for the request currently in flight (if any). Safe from
  /// another thread while this client blocks in Query/Execute.
  void CancelActive();

  /// Polite shutdown: sends GOODBYE and closes.
  void Goodbye();

  /// Abrupt close, no GOODBYE — from the server's point of view this is a
  /// client crash/disconnect.
  void Close();

 private:
  Status SendFrame(FrameType type, uint64_t request_id,
                   const std::string& payload);
  Status ReadFrame(FrameHeader* header, std::string* payload);
  /// Shared SCHEMA/ROWS/STATUS consumption loop for Query and Execute.
  ClientResult ReadQueryReply(uint64_t request_id, uint64_t stop_after_rows,
                              bool collect_rows);
  /// Shared STATUS-only round-trip for Mutate and Commit.
  Status StatusRoundTrip(FrameType type, const std::string& payload,
                         uint64_t* rows, uint64_t* detail);

  int fd_ = -1;
  uint64_t connection_id_ = 0;
  uint64_t next_request_ = 1;
  std::mutex write_mu_;
  std::atomic<uint64_t> active_request_{0};
};

}  // namespace rodin::server

#endif  // RODIN_SERVER_CLIENT_H_
