#ifndef RODIN_SERVER_WIRE_H_
#define RODIN_SERVER_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "api/query_options.h"
#include "common/status.h"
#include "storage/value.h"
#include "txn/mutation.h"

namespace rodin::server {

/// rodin_serve's wire protocol, v4 (full spec: docs/SERVER.md).
///
/// Every message is one length-prefixed frame:
///
///   u32  payload_length   (little-endian, excludes this 13-byte header)
///   u8   frame_type       (FrameType)
///   u64  request_id       (little-endian; client-assigned, echoed on every
///                          frame the server sends for that request)
///   ...  payload_length bytes of payload
///
/// Integers are little-endian, doubles are 8-byte IEEE-754 little-endian,
/// strings are u32 length + bytes (no terminator). The payload of each
/// frame type is documented on the enumerator. A request is one QUERY or
/// EXECUTE frame; the server answers with SCHEMA, zero or more ROWS, and a
/// terminal STATUS (wire code 0 = ok). Errors at any point short-circuit to
/// the STATUS frame. HELLO/PREPARE get HELLO_OK/PREPARE_OK or STATUS.
///
/// Versioning: the client's HELLO carries kProtocolVersion and the server
/// accepts exactly that version. Any other version is refused with a STATUS
/// frame and the connection is closed; there is no negotiation.
constexpr uint32_t kProtocolVersion = 4;

/// Upper bound on a single frame's payload; a length prefix beyond this is
/// a protocol error and the connection is dropped (a corrupt or hostile
/// length must not drive a multi-gigabyte allocation).
constexpr uint32_t kMaxFramePayloadBytes = 16u << 20;

constexpr size_t kFrameHeaderBytes = 4 + 1 + 8;

enum class FrameType : uint8_t {
  /// c->s, first frame on a connection. Payload: u32 protocol version.
  kHello = 1,
  /// s->c. Payload: u32 protocol version, str banner, u64 connection id.
  kHelloOk = 2,
  /// c->s: parse + optimize + execute, streaming. Payload: str query text,
  /// WireQueryOptions.
  kQuery = 3,
  /// c->s: parse and validate once. Payload: str query text.
  kPrepare = 4,
  /// s->c. Payload: u64 statement id (scope: this connection).
  kPrepareOk = 5,
  /// c->s: run a prepared statement. Payload: u64 statement id,
  /// WireQueryOptions.
  kExecute = 6,
  /// c->s: cancel the in-flight request with this id. Payload: u64 target
  /// request id. No direct reply — the cancelled request's STATUS frame
  /// (wire code `cancelled`) is the acknowledgement; unknown targets are
  /// ignored.
  kCancel = 7,
  /// s->c: result column layout, sent once before the first ROWS frame.
  /// Payload: u32 ncols, then ncols strings (column names).
  kSchema = 8,
  /// s->c: a batch of result rows. Payload: u32 nrows, then nrows * ncols
  /// values (see EncodeValue).
  kRows = 9,
  /// s->c: terminal frame of a request (also the error reply to any
  /// malformed/failed request). Payload: u8 wire status code
  /// (WireCodeForStatus), str message, u64 detail, u64 rows_produced,
  /// f64 measured_cost (-1 when not executed).
  kStatus = 10,
  /// c->s: clean shutdown; the server closes after any in-flight request
  /// finishes. Payload: empty.
  kGoodbye = 11,
  /// c->s: stage a mutation batch on this connection's transaction
  /// (opened implicitly on the first MUTATE). Payload: EncodeMutationBatch.
  /// Reply: STATUS — ok with rows_produced = ops staged, or kConflict
  /// (retryable) when another connection holds the write slot.
  kMutate = 12,
  /// c->s: commit this connection's transaction. Payload: empty.
  /// Reply: STATUS — ok with detail = new stats version and rows_produced =
  /// ops applied, kConflict (retryable; transaction stays open) while
  /// streaming cursors are live, or the validation error that rolled the
  /// transaction back.
  kCommit = 13,
};

struct FrameHeader {
  uint32_t payload_length = 0;
  FrameType type = FrameType::kHello;
  uint64_t request_id = 0;
};

/// Serializes header + payload into one wire-ready buffer.
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload);

/// Parses a header from `data` (must hold >= kFrameHeaderBytes). Returns
/// false when the length prefix exceeds kMaxFramePayloadBytes.
bool DecodeFrameHeader(const char* data, FrameHeader* out);

/// Append-only payload builder.
class PayloadWriter {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);
  void Str(const std::string& s);

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked payload reader: every Read* returns false (and poisons
/// the reader) on truncation, so frame handlers check once at the end.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool F64(double* v);
  bool Str(std::string* s);
  /// Reads the next byte without consuming it (tag dispatch).
  bool Peek(uint8_t* v);

  bool ok() const { return ok_; }
  /// True when the whole payload was consumed (trailing garbage is a
  /// protocol error).
  bool AtEnd() const { return ok_ && pos_ == size_; }

 private:
  bool Take(size_t n, const char** out);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// The per-request knobs that travel in QUERY / EXECUTE frames — the wire
/// mapping of the QueryOptions facade. The wire has no optional type, so 0
/// means "inherit the server-side default" for the numeric knobs (the same
/// inherit rule QueryOptions spells as nullopt; an explicit zero therefore
/// cannot be sent — it would be rejected server-side anyway). Deliberately
/// absent: cold (a single-tenant measurement knob; the server is always
/// warm), collect_trace/explain_only (not meaningful over this protocol),
/// and seed (an operator-side knob, fixed by server config).
struct WireQueryOptions {
  uint64_t deadline_ms = 0;          // 0 = no deadline
  uint64_t memory_budget_pages = 0;  // temp-page ledger; 0 = unlimited
  uint32_t exec_threads = 0;         // 0 = inherit executor default
  uint32_t batch_rows = 0;           // 0 = inherit executor default
  bool bypass_plan_cache = false;
  /// Adaptive feedback for this request (off by default). The tuning knobs
  /// follow the facade's inherit rule: 0 = server default
  /// (kDefaultDriftThreshold / kDefaultFeedbackAlpha). Encoded as flag
  /// bits + an optional two-F64 tail.
  bool feedback = false;
  double feedback_drift = 0;
  double feedback_alpha = 0;

  void Encode(PayloadWriter* w) const;
  /// Fails on truncation and on any flag bit the protocol does not define.
  bool Decode(PayloadReader* r);

  /// Lowers onto the facade. The returned options carry a fresh
  /// QueryContext (deadline/budget from the wire; the caller installs the
  /// cancel token it wants to keep).
  QueryOptions ToQueryOptions() const;
  /// Inverse, for clients that already hold a QueryOptions.
  static WireQueryOptions FromQueryOptions(const QueryOptions& options);
};

/// Value serialization for ROWS frames. Atoms round-trip exactly; refs and
/// collections are rendered to their ToString() form and decode as strings
/// (the protocol is a result transport, not an object transport).
void EncodeValue(const Value& value, PayloadWriter* w);
bool DecodeValue(PayloadReader* r, Value* out);

/// Mutation-batch serialization for MUTATE frames:
///
///   u32 nops, then per op:
///     u8 kind (MutationOpKind)
///     str extent
///     insert: u32 nvalues, then nvalues * (str attr, mutation value)
///     delete: u32 class_id, u32 slot (the target oid)
///     update: u32 class_id, u32 slot, u32 nassigns, then nassigns *
///             (str attr, mutation value)
///
/// Mutation values reuse the ROWS tags for atoms but — unlike result
/// transport — encode refs and sets *structurally* (kTagRef: u32 class_id,
/// u32 slot; kTagSet: u32 count + elements), because a mutation payload
/// must round-trip exactly, not render. Set nesting is capped at depth 32
/// on decode: the payload-size cap bounds element count, not depth, so a
/// hostile all-headers frame could otherwise recurse off the stack.
///
/// Slot-only addressing: a delete/update target sent with class_id ==
/// 0xFFFFFFFF and a real slot means "slot N of this op's extent" — the
/// server resolves it by extent name, so clients never need to learn
/// server-side class ids (see Server::HandleMutate).
void EncodeMutationBatch(const MutationBatch& batch, PayloadWriter* w);
bool DecodeMutationBatch(PayloadReader* r, MutationBatch* out);

/// Builds the terminal STATUS payload for `status` (see FrameType::kStatus).
std::string EncodeStatusPayload(const Status& status, uint64_t rows_produced,
                                double measured_cost);

/// Parses a STATUS payload back into a Status (+ the result figures).
bool DecodeStatusPayload(PayloadReader* r, Status* status,
                         uint64_t* rows_produced, double* measured_cost);

}  // namespace rodin::server

#endif  // RODIN_SERVER_WIRE_H_
