#include "server/wire.h"

#include <cstring>

namespace rodin::server {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

// Value wire tags (stable; new tags append only).
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagReal = 3;
constexpr uint8_t kTagStr = 4;
// Refs and collections: rendered server-side, decoded as strings. The tag is
// kept distinct so a client can tell "this string is a rendering".
constexpr uint8_t kTagRendered = 5;
// Mutation payloads only: structural ref / set encodings. Result
// transport (ROWS) keeps rendering — these tags never appear there.
constexpr uint8_t kTagRef = 6;
constexpr uint8_t kTagSet = 7;

// WireQueryOptions flag bits: one bit per boolean. The tuning flag gates a
// two-F64 tail (drift threshold, EWMA alpha) appended after the flags byte.
// Any other bit makes the frame malformed.
constexpr uint8_t kFlagBypassPlanCache = 1u << 0;
constexpr uint8_t kFlagFeedbackOn = 1u << 4;
constexpr uint8_t kFlagFeedbackTuning = 1u << 5;
constexpr uint8_t kDefinedFlags =
    kFlagBypassPlanCache | kFlagFeedbackOn | kFlagFeedbackTuning;

}  // namespace

std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out.push_back(static_cast<char>(type));
  AppendU64(&out, request_id);
  out.append(payload);
  return out;
}

bool DecodeFrameHeader(const char* data, FrameHeader* out) {
  out->payload_length = LoadU32(data);
  out->type = static_cast<FrameType>(static_cast<uint8_t>(data[4]));
  out->request_id = LoadU64(data + 5);
  return out->payload_length <= kMaxFramePayloadBytes;
}

void PayloadWriter::U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
void PayloadWriter::U32(uint32_t v) { AppendU32(&out_, v); }
void PayloadWriter::U64(uint64_t v) { AppendU64(&out_, v); }

void PayloadWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(&out_, bits);
}

void PayloadWriter::Str(const std::string& s) {
  AppendU32(&out_, static_cast<uint32_t>(s.size()));
  out_.append(s);
}

bool PayloadReader::Take(size_t n, const char** out) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_ + pos_;
  pos_ += n;
  return true;
}

bool PayloadReader::U8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool PayloadReader::Peek(uint8_t* v) {
  if (!ok_ || pos_ >= size_) {
    ok_ = false;
    return false;
  }
  *v = static_cast<uint8_t>(data_[pos_]);
  return true;
}

bool PayloadReader::U32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  *v = LoadU32(p);
  return true;
}

bool PayloadReader::U64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  *v = LoadU64(p);
  return true;
}

bool PayloadReader::F64(double* v) {
  uint64_t bits;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool PayloadReader::Str(std::string* s) {
  uint32_t len;
  if (!U32(&len)) return false;
  const char* p;
  if (!Take(len, &p)) return false;
  s->assign(p, len);
  return true;
}

void WireQueryOptions::Encode(PayloadWriter* w) const {
  w->U64(deadline_ms);
  w->U64(memory_budget_pages);
  w->U32(exec_threads);
  w->U32(batch_rows);
  uint8_t flags = 0;
  if (bypass_plan_cache) flags |= kFlagBypassPlanCache;
  if (feedback) flags |= kFlagFeedbackOn;
  const bool tuning = feedback_drift != 0 || feedback_alpha != 0;
  if (tuning) flags |= kFlagFeedbackTuning;
  w->U8(flags);
  if (tuning) {
    w->F64(feedback_drift);
    w->F64(feedback_alpha);
  }
}

bool WireQueryOptions::Decode(PayloadReader* r) {
  uint8_t flags;
  if (!r->U64(&deadline_ms) || !r->U64(&memory_budget_pages) ||
      !r->U32(&exec_threads) || !r->U32(&batch_rows) || !r->U8(&flags)) {
    return false;
  }
  if ((flags & ~kDefinedFlags) != 0) return false;
  bypass_plan_cache = (flags & kFlagBypassPlanCache) != 0;
  feedback = (flags & kFlagFeedbackOn) != 0;
  feedback_drift = 0;
  feedback_alpha = 0;
  if ((flags & kFlagFeedbackTuning) != 0) {
    if (!r->F64(&feedback_drift) || !r->F64(&feedback_alpha)) return false;
  }
  return true;
}

QueryOptions WireQueryOptions::ToQueryOptions() const {
  QueryOptions options;
  options.query.deadline_ms = deadline_ms;
  options.query.memory_budget_pages = memory_budget_pages;
  if (exec_threads != 0) options.exec_threads = exec_threads;
  if (batch_rows != 0) options.batch_rows = batch_rows;
  options.bypass_plan_cache = bypass_plan_cache;
  options.feedback.enabled = feedback;
  options.feedback.drift_threshold = feedback_drift;
  options.feedback.ewma_alpha = feedback_alpha;
  return options;
}

WireQueryOptions WireQueryOptions::FromQueryOptions(
    const QueryOptions& options) {
  WireQueryOptions wire;
  wire.deadline_ms = options.query.deadline_ms;
  wire.memory_budget_pages = options.query.memory_budget_pages;
  wire.exec_threads = options.exec_threads
                          ? static_cast<uint32_t>(*options.exec_threads)
                          : 0;
  wire.batch_rows =
      options.batch_rows ? static_cast<uint32_t>(*options.batch_rows) : 0;
  wire.bypass_plan_cache = options.bypass_plan_cache;
  wire.feedback = options.feedback.enabled;
  wire.feedback_drift = options.feedback.drift_threshold;
  wire.feedback_alpha = options.feedback.ewma_alpha;
  return wire;
}

void EncodeValue(const Value& value, PayloadWriter* w) {
  if (value.is_null()) {
    w->U8(kTagNull);
  } else if (value.is_bool()) {
    w->U8(kTagBool);
    w->U8(value.AsBool() ? 1 : 0);
  } else if (value.is_int()) {
    w->U8(kTagInt);
    w->U64(static_cast<uint64_t>(value.AsInt()));
  } else if (value.is_real()) {
    w->U8(kTagReal);
    w->F64(value.AsReal());
  } else if (value.is_string()) {
    w->U8(kTagStr);
    w->Str(value.AsString());
  } else {
    w->U8(kTagRendered);
    w->Str(value.ToString());
  }
}

bool DecodeValue(PayloadReader* r, Value* out) {
  uint8_t tag;
  if (!r->U8(&tag)) return false;
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return true;
    case kTagBool: {
      uint8_t b;
      if (!r->U8(&b)) return false;
      *out = Value::Bool(b != 0);
      return true;
    }
    case kTagInt: {
      uint64_t v;
      if (!r->U64(&v)) return false;
      *out = Value::Int(static_cast<int64_t>(v));
      return true;
    }
    case kTagReal: {
      double d;
      if (!r->F64(&d)) return false;
      *out = Value::Real(d);
      return true;
    }
    case kTagStr:
    case kTagRendered: {
      std::string s;
      if (!r->Str(&s)) return false;
      *out = Value::Str(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

namespace {

// Mutation values: atoms as in ROWS, refs and sets structural (must
// round-trip exactly). Nested sets are legal but depth-capped on decode:
// payload size bounds the element *count*, not the nesting depth — a frame
// of nothing but set headers (5 bytes/level) could otherwise recurse
// millions of levels deep and overflow the stack.
constexpr int kMaxMutationValueDepth = 32;

void EncodeMutationValue(const Value& value, PayloadWriter* w) {
  if (value.is_ref()) {
    const Oid oid = value.AsRef();
    w->U8(kTagRef);
    w->U32(oid.class_id);
    w->U32(oid.slot);
  } else if (value.is_collection()) {
    const auto& elems = value.AsCollection().elems;
    w->U8(kTagSet);
    w->U32(static_cast<uint32_t>(elems.size()));
    for (const Value& e : elems) EncodeMutationValue(e, w);
  } else {
    EncodeValue(value, w);
  }
}

bool DecodeMutationValue(PayloadReader* r, Value* out, int depth = 0) {
  if (depth > kMaxMutationValueDepth) return false;
  uint8_t tag;
  if (!r->Peek(&tag)) return false;
  if (tag == kTagRef) {
    uint32_t class_id, slot;
    if (!r->U8(&tag) || !r->U32(&class_id) || !r->U32(&slot)) return false;
    Oid oid;
    oid.class_id = class_id;
    oid.slot = slot;
    *out = Value::Ref(oid);
    return true;
  }
  if (tag == kTagSet) {
    uint32_t count;
    if (!r->U8(&tag) || !r->U32(&count)) return false;
    std::vector<Value> elems;
    for (uint32_t i = 0; i < count; ++i) {
      Value e;
      if (!DecodeMutationValue(r, &e, depth + 1)) return false;
      elems.push_back(std::move(e));
    }
    *out = Value::MakeSet(std::move(elems));
    return true;
  }
  return DecodeValue(r, out);
}

bool DecodeAssigns(PayloadReader* r,
                   std::vector<std::pair<std::string, Value>>* out) {
  uint32_t count;
  if (!r->U32(&count)) return false;
  for (uint32_t i = 0; i < count; ++i) {
    std::string attr;
    Value v;
    if (!r->Str(&attr) || !DecodeMutationValue(r, &v)) return false;
    out->emplace_back(std::move(attr), std::move(v));
  }
  return true;
}

}  // namespace

void EncodeMutationBatch(const MutationBatch& batch, PayloadWriter* w) {
  w->U32(static_cast<uint32_t>(batch.ops.size()));
  for (const MutationOp& op : batch.ops) {
    w->U8(static_cast<uint8_t>(op.kind));
    w->Str(op.extent);
    switch (op.kind) {
      case MutationOpKind::kInsert:
        w->U32(static_cast<uint32_t>(op.values.size()));
        for (const auto& [attr, v] : op.values) {
          w->Str(attr);
          EncodeMutationValue(v, w);
        }
        break;
      case MutationOpKind::kDelete:
        w->U32(op.target.class_id);
        w->U32(op.target.slot);
        break;
      case MutationOpKind::kUpdate:
        w->U32(op.target.class_id);
        w->U32(op.target.slot);
        w->U32(static_cast<uint32_t>(op.values.size()));
        for (const auto& [attr, v] : op.values) {
          w->Str(attr);
          EncodeMutationValue(v, w);
        }
        break;
    }
  }
}

bool DecodeMutationBatch(PayloadReader* r, MutationBatch* out) {
  out->ops.clear();
  uint32_t nops;
  if (!r->U32(&nops)) return false;
  for (uint32_t i = 0; i < nops; ++i) {
    uint8_t kind;
    MutationOp op;
    if (!r->U8(&kind) || !r->Str(&op.extent)) return false;
    switch (kind) {
      case static_cast<uint8_t>(MutationOpKind::kInsert):
        op.kind = MutationOpKind::kInsert;
        if (!DecodeAssigns(r, &op.values)) return false;
        break;
      case static_cast<uint8_t>(MutationOpKind::kDelete):
        op.kind = MutationOpKind::kDelete;
        if (!r->U32(&op.target.class_id) || !r->U32(&op.target.slot)) {
          return false;
        }
        break;
      case static_cast<uint8_t>(MutationOpKind::kUpdate):
        op.kind = MutationOpKind::kUpdate;
        if (!r->U32(&op.target.class_id) || !r->U32(&op.target.slot) ||
            !DecodeAssigns(r, &op.values)) {
          return false;
        }
        break;
      default:
        return false;  // unknown op kind is a protocol error
    }
    out->ops.push_back(std::move(op));
  }
  return true;
}

std::string EncodeStatusPayload(const Status& status, uint64_t rows_produced,
                                double measured_cost) {
  PayloadWriter w;
  w.U8(WireCodeForStatus(status));
  w.Str(status.message);
  w.U64(status.detail);
  w.U64(rows_produced);
  w.F64(measured_cost);
  return w.Take();
}

bool DecodeStatusPayload(PayloadReader* r, Status* status,
                         uint64_t* rows_produced, double* measured_cost) {
  uint8_t wire_code;
  std::string message;
  uint64_t detail;
  if (!r->U8(&wire_code) || !r->Str(&message) || !r->U64(&detail) ||
      !r->U64(rows_produced) || !r->F64(measured_cost)) {
    return false;
  }
  bool known = false;
  const Status::Code code = StatusCodeFromWire(wire_code, &known);
  if (!known) return false;
  if (code == Status::Code::kOk) {
    *status = Status::Ok();
  } else {
    *status = Status::Error(code, std::move(message));
  }
  status->detail = detail;
  return true;
}

}  // namespace rodin::server
