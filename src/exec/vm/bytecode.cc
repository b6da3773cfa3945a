#include "exec/vm/bytecode.h"

#include "common/string_util.h"
#include "query/expr.h"

namespace rodin::vm {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadConst:
      return "LoadConst";
    case OpCode::kLoadNull:
      return "LoadNull";
    case OpCode::kLoadColumn:
      return "LoadColumn";
    case OpCode::kNavigate:
      return "Navigate";
    case OpCode::kLoadSlot:
      return "LoadSlot";
    case OpCode::kArith:
      return "Arith";
    case OpCode::kCompare:
      return "Compare";
    case OpCode::kCmpColConst:
      return "CmpColConst";
    case OpCode::kAnyTrue:
      return "AnyTrue";
    case OpCode::kBoolValue:
      return "BoolValue";
    case OpCode::kLoadBool:
      return "LoadBool";
    case OpCode::kNot:
      return "Not";
    case OpCode::kJumpIfFalse:
      return "JumpIfFalse";
    case OpCode::kJumpIfTrue:
      return "JumpIfTrue";
    case OpCode::kRetBool:
      return "RetBool";
    case OpCode::kRetValues:
      return "RetValues";
    case OpCode::kRetProj:
      return "RetProj";
  }
  return "?";
}

uint32_t BytecodeChunk::AddConst(const Value& v) {
  for (size_t i = 0; i < consts.size(); ++i) {
    if (consts[i].Compare(v) == 0) return static_cast<uint32_t>(i);
  }
  consts.push_back(v);
  return static_cast<uint32_t>(consts.size() - 1);
}

uint32_t BytecodeChunk::AddPath(const Database& db,
                                const std::vector<std::string>& path) {
  for (size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].names == path) return static_cast<uint32_t>(i);
  }
  paths.push_back(BindPath(db, path));
  return static_cast<uint32_t>(paths.size() - 1);
}

namespace {

Status Malformed(size_t ip, const char* what) {
  return Status::Error(Status::Code::kInternal,
                       StrFormat("malformed bytecode chunk: instruction %zu: %s",
                                 ip, what));
}

}  // namespace

Status BytecodeChunk::Validate() const {
  if (code.empty()) {
    return Status::Error(Status::Code::kInternal,
                         "malformed bytecode chunk: empty code");
  }
  auto vreg_ok = [&](uint16_t r) { return r < num_value_regs; };
  auto breg_ok = [&](uint16_t r) { return r < num_bool_regs; };
  for (size_t ip = 0; ip < code.size(); ++ip) {
    const Instr& in = code[ip];
    switch (in.op) {
      case OpCode::kLoadConst:
        if (!vreg_ok(in.a)) return Malformed(ip, "value register out of range");
        if (in.d >= consts.size()) return Malformed(ip, "constant out of range");
        break;
      case OpCode::kLoadNull:
        if (!vreg_ok(in.a)) return Malformed(ip, "value register out of range");
        break;
      case OpCode::kLoadColumn:
        if (!vreg_ok(in.a)) return Malformed(ip, "value register out of range");
        if (in.d >= num_cols) return Malformed(ip, "column out of range");
        break;
      case OpCode::kNavigate:
        if (!vreg_ok(in.a)) return Malformed(ip, "value register out of range");
        if (in.d >= num_cols) return Malformed(ip, "column out of range");
        if (in.e >= paths.size()) return Malformed(ip, "path out of range");
        break;
      case OpCode::kLoadSlot:
        if (!vreg_ok(in.a)) return Malformed(ip, "value register out of range");
        if (in.b > 1) return Malformed(ip, "bad join input");
        if (in.d >= num_slots[in.b]) return Malformed(ip, "slot out of range");
        break;
      case OpCode::kArith:
        if (!vreg_ok(in.a) || !vreg_ok(in.b) || !vreg_ok(in.c)) {
          return Malformed(ip, "value register out of range");
        }
        if (in.d > static_cast<uint32_t>(ArithOp::kSub)) {
          return Malformed(ip, "bad arithmetic operator");
        }
        // The result is built while the operands are read (in place, in a
        // pair program), so it needs a register of its own.
        if (in.a == in.b || in.a == in.c) {
          return Malformed(ip, "arithmetic result overwrites an operand");
        }
        break;
      case OpCode::kCompare:
        if (!breg_ok(in.a)) return Malformed(ip, "bool register out of range");
        if (!vreg_ok(in.b) || !vreg_ok(in.c)) {
          return Malformed(ip, "value register out of range");
        }
        if (in.d > static_cast<uint32_t>(CompareOp::kGe)) {
          return Malformed(ip, "bad comparison operator");
        }
        break;
      case OpCode::kCmpColConst:
        if (!breg_ok(in.a)) return Malformed(ip, "bool register out of range");
        if (in.b > static_cast<uint16_t>(CompareOp::kGe)) {
          return Malformed(ip, "bad comparison operator");
        }
        if (in.c >= num_cols) return Malformed(ip, "column out of range");
        if (in.d >= consts.size()) return Malformed(ip, "constant out of range");
        if (in.e != kNoPath && in.e >= paths.size()) {
          return Malformed(ip, "path out of range");
        }
        break;
      case OpCode::kAnyTrue:
        if (!breg_ok(in.a)) return Malformed(ip, "bool register out of range");
        if (!vreg_ok(in.b)) return Malformed(ip, "value register out of range");
        break;
      case OpCode::kBoolValue:
        if (!vreg_ok(in.a)) return Malformed(ip, "value register out of range");
        if (!breg_ok(in.b)) return Malformed(ip, "bool register out of range");
        break;
      case OpCode::kLoadBool:
        if (!breg_ok(in.a)) return Malformed(ip, "bool register out of range");
        break;
      case OpCode::kNot:
        if (!breg_ok(in.a) || !breg_ok(in.b)) {
          return Malformed(ip, "bool register out of range");
        }
        break;
      case OpCode::kJumpIfFalse:
      case OpCode::kJumpIfTrue:
        if (!breg_ok(in.a)) return Malformed(ip, "bool register out of range");
        if (in.d > code.size()) return Malformed(ip, "jump out of range");
        break;
      case OpCode::kRetBool:
        if (!breg_ok(in.a)) return Malformed(ip, "bool register out of range");
        break;
      case OpCode::kRetValues:
        if (!vreg_ok(in.a)) return Malformed(ip, "value register out of range");
        break;
      case OpCode::kRetProj:
        if (in.d > num_value_regs) {
          return Malformed(ip, "projection register range out of range");
        }
        break;
      default:
        return Malformed(ip, "unknown opcode");
    }
  }
  const OpCode last = code.back().op;
  if (last != OpCode::kRetBool && last != OpCode::kRetValues &&
      last != OpCode::kRetProj) {
    return Status::Error(Status::Code::kInternal,
                         "malformed bytecode chunk: missing terminal return");
  }
  return Status::Ok();
}

namespace {

std::string PathText(const std::vector<std::string>& path) {
  std::string out;
  for (const std::string& s : path) {
    if (!out.empty()) out += ".";
    out += s;
  }
  return out;
}

const char* ArithOpText(uint16_t op) {
  return static_cast<ArithOp>(op) == ArithOp::kAdd ? "+" : "-";
}

}  // namespace

std::string BytecodeChunk::Disassemble() const {
  std::string out = StrFormat("chunk: %zu instrs, %zu consts, %zu paths, %u vregs, %u bregs\n",
                              code.size(), consts.size(), paths.size(),
                              static_cast<unsigned>(num_value_regs),
                              static_cast<unsigned>(num_bool_regs));
  for (size_t ip = 0; ip < code.size(); ++ip) {
    const Instr& in = code[ip];
    out += StrFormat("%04zu %-12s", ip, OpCodeName(in.op));
    switch (in.op) {
      case OpCode::kLoadConst:
        out += StrFormat(" v%u, %s", in.a, consts[in.d].ToString().c_str());
        break;
      case OpCode::kLoadNull:
        out += StrFormat(" v%u", in.a);
        break;
      case OpCode::kLoadColumn:
        out += StrFormat(" v%u, col%u", in.a, in.d);
        break;
      case OpCode::kNavigate:
        out += StrFormat(" v%u, col%u.%s", in.a, in.d,
                         PathText(paths[in.e].names).c_str());
        break;
      case OpCode::kLoadSlot:
        out += StrFormat(" v%u, %s[%u]", in.a, in.b == 0 ? "outer" : "inner",
                         in.d);
        break;
      case OpCode::kArith:
        out += StrFormat(" v%u, v%u %s v%u", in.a, in.b, ArithOpText(in.d),
                         in.c);
        break;
      case OpCode::kCompare:
        out += StrFormat(" b%u, v%u %s v%u", in.a, in.b,
                         CompareOpName(static_cast<CompareOp>(in.d)), in.c);
        break;
      case OpCode::kCmpColConst:
        if (in.e == kNoPath) {
          out += StrFormat(" b%u, col%u %s %s", in.a, in.c,
                           CompareOpName(static_cast<CompareOp>(in.b)),
                           consts[in.d].ToString().c_str());
        } else {
          out += StrFormat(" b%u, col%u.%s %s %s", in.a, in.c,
                           PathText(paths[in.e].names).c_str(),
                           CompareOpName(static_cast<CompareOp>(in.b)),
                           consts[in.d].ToString().c_str());
        }
        break;
      case OpCode::kAnyTrue:
        out += StrFormat(" b%u, v%u", in.a, in.b);
        break;
      case OpCode::kBoolValue:
        out += StrFormat(" v%u, b%u", in.a, in.b);
        break;
      case OpCode::kLoadBool:
        out += StrFormat(" b%u, %s", in.a, in.d != 0 ? "true" : "false");
        break;
      case OpCode::kNot:
        out += StrFormat(" b%u, b%u", in.a, in.b);
        break;
      case OpCode::kJumpIfFalse:
      case OpCode::kJumpIfTrue:
        out += StrFormat(" b%u, -> %04u", in.a, in.d);
        break;
      case OpCode::kRetBool:
        out += StrFormat(" b%u", in.a);
        break;
      case OpCode::kRetValues:
        out += StrFormat(" v%u", in.a);
        break;
      case OpCode::kRetProj:
        out += StrFormat(" v0..v%u", in.d > 0 ? in.d - 1 : 0);
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace rodin::vm
