#ifndef RODIN_COMMON_STATUS_H_
#define RODIN_COMMON_STATUS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace rodin {

/// The single source of truth for the status taxonomy. Every per-code
/// constant — the enumerator, its printable name, rodin_cli's process exit
/// code, the server's on-the-wire error code, and whether a retry of the
/// same work can succeed — lives in this one table, so the CLI and the wire
/// protocol can never drift from each other or from the enum.
///
///   X(enumerator, name, exit_code, wire_code, retryable)
///
/// Exit codes: 0 ok; 1 is the generic shell failure and 2 is reserved for
/// usage errors, so real codes start at 3. Wire codes are part of the
/// server protocol (docs/SERVER.md) and must stay stable forever: append
/// new codes, never renumber. kFault (wire code 8) is no longer produced by
/// the library; it keeps its slot so no later code can reuse the number.
#define RODIN_STATUS_CODES(X)                           \
  X(kOk, "ok", 0, 0, false)                             \
  X(kParse, "parse", 3, 1, false)                       \
  X(kSemantic, "semantic", 4, 2, false)                 \
  X(kOptimize, "optimize", 5, 3, false)                 \
  X(kExec, "exec", 6, 4, false)                         \
  X(kCancelled, "cancelled", 7, 5, false)               \
  X(kDeadlineExceeded, "deadline_exceeded", 8, 6, false)\
  X(kResourceExhausted, "resource_exhausted", 9, 7, false) \
  X(kFault, "fault", 10, 8, true)                       \
  X(kInternal, "internal", 11, 9, false)                \
  X(kInvalidArgument, "invalid_argument", 12, 10, false)\
  X(kOverloaded, "overloaded", 13, 11, true)             \
  X(kConflict, "conflict", 14, 12, true)

/// Outcome of one pipeline step (parser, optimizer, executor, session,
/// server). Replaces the loose `bool ok; std::string error;` pairs: callers
/// branch on the code instead of string-matching error text, and parse
/// errors carry the offending source span.
///
/// The taxonomy distinguishes *why* a query stopped, not merely *where*:
/// budget violations (kCancelled, kDeadlineExceeded, kResourceExhausted),
/// admission-control shedding (kOverloaded — the server is healthy but
/// full; retry after backoff) and write-path contention (kConflict —
/// another writer holds the single mutation slot, or a commit raced a live
/// streaming cursor; retry after the other side finishes) are separate from
/// genuine parse/semantic/optimize/exec failures, so callers — including
/// rodin_cli's exit codes and rodin_serve's error frames — can react per
/// class.
struct Status {
  enum class Code {
#define RODIN_STATUS_ENUMERATOR(code, name, exit_code, wire, retry) code,
    RODIN_STATUS_CODES(RODIN_STATUS_ENUMERATOR)
#undef RODIN_STATUS_ENUMERATOR
  };

  Code code = Code::kOk;
  std::string message;
  /// Source span of the offending token (parse errors only; 0 = unknown).
  size_t line = 0;
  size_t col = 0;
  /// Machine-readable payload for statuses whose *cause* has a magnitude:
  /// the in-flight query count on a kOverloaded shed, the holder's txn id or
  /// the live-cursor count on a kConflict, the packed operator and page
  /// counts on a kResourceExhausted (PackResourceDetail), the new stats
  /// version on a COMMIT reply. 0 when the code carries no payload. Travels
  /// in the wire STATUS frame.
  uint64_t detail = 0;

  bool ok() const { return code == Code::kOk; }

  /// Transient outcomes where retrying the same work can succeed: a
  /// (legacy) kFault, an admission-control shed (kOverloaded —
  /// back off first; the server refused the work without starting it), or
  /// a write-path conflict (kConflict — the single-writer slot or a live
  /// cursor blocked the mutation; retry once it drains). Distinct from
  /// kResourceExhausted, which means *this query's* budget cannot be
  /// honoured — retrying without a bigger budget cannot succeed.
  bool retryable() const;

  static Status Ok() { return Status{}; }
  static Status Error(Code code, std::string message, size_t line = 0,
                      size_t col = 0) {
    return Status{code, std::move(message), line, col};
  }

  /// "ok", "parse", "semantic", "optimize", "exec", "cancelled",
  /// "deadline_exceeded", "resource_exhausted", "fault", "internal",
  /// "invalid_argument", "overloaded", "conflict".
  const char* code_name() const;

  /// "[parse] parse error at 3:7: expected ..." — the code name prefixed
  /// to the message (which already carries the span for parse errors).
  std::string ToString() const;
};

/// Maps a status to rodin_cli's process exit code (the exit_code column of
/// RODIN_STATUS_CODES): 0 ok, 3 parse, 4 semantic, 5 optimize, 6 exec,
/// 7 cancelled, 8 deadline_exceeded, 9 resource_exhausted, 10 fault,
/// 11 internal, 12 invalid_argument, 13 overloaded, 14 conflict.
int ExitCodeForStatus(const Status& status);

/// Maps a status code to the stable wire error code carried in the server's
/// STATUS frames (the wire_code column of RODIN_STATUS_CODES). Same table
/// as ExitCodeForStatus by construction, so the two surfaces cannot drift.
uint8_t WireCodeForStatus(const Status& status);

/// Inverse of WireCodeForStatus. Unknown wire codes (a newer server than
/// client) conservatively map to kInternal; *ok is set false in that case.
Status::Code StatusCodeFromWire(uint8_t wire, bool* ok = nullptr);

}  // namespace rodin

#endif  // RODIN_COMMON_STATUS_H_
