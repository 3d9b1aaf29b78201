#include "isa/opcode.h"

#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"

namespace dsa {

namespace {

const OpInfo kOpTable[kNumOpCodes] = {
    // name      lat  nops  fp     class
    {"add",       1,  2,  false, FuClass::IntAlu},
    {"sub",       1,  2,  false, FuClass::IntAlu},
    {"mul",       2,  2,  false, FuClass::IntMul},
    {"div",       8,  2,  false, FuClass::IntDiv},
    {"mod",       8,  2,  false, FuClass::IntDiv},
    {"min",       1,  2,  false, FuClass::IntAlu},
    {"max",       1,  2,  false, FuClass::IntAlu},
    {"abs",       1,  1,  false, FuClass::IntAlu},
    {"and",       1,  2,  false, FuClass::IntAlu},
    {"or",        1,  2,  false, FuClass::IntAlu},
    {"xor",       1,  2,  false, FuClass::IntAlu},
    {"not",       1,  1,  false, FuClass::IntAlu},
    {"shl",       1,  2,  false, FuClass::IntAlu},
    {"shr",       1,  2,  false, FuClass::IntAlu},
    {"cmpeq",     1,  2,  false, FuClass::IntAlu},
    {"cmpne",     1,  2,  false, FuClass::IntAlu},
    {"cmplt",     1,  2,  false, FuClass::IntAlu},
    {"cmple",     1,  2,  false, FuClass::IntAlu},
    {"cmpgt",     1,  2,  false, FuClass::IntAlu},
    {"cmpge",     1,  2,  false, FuClass::IntAlu},
    {"select",    1,  3,  false, FuClass::IntAlu},
    {"pass",      1,  1,  false, FuClass::IntAlu},
    {"acc",       1,  1,  false, FuClass::IntAlu},
    {"fadd",      2,  2,  true,  FuClass::FpAdd},
    {"fsub",      2,  2,  true,  FuClass::FpAdd},
    {"fmul",      3,  2,  true,  FuClass::FpMul},
    {"fdiv",     12,  2,  true,  FuClass::FpDiv},
    {"fsqrt",    12,  1,  true,  FuClass::FpDiv},
    {"fmin",      2,  2,  true,  FuClass::FpAdd},
    {"fmax",      2,  2,  true,  FuClass::FpAdd},
    {"facc",      2,  1,  true,  FuClass::FpAdd},
    {"fcmplt",    2,  2,  true,  FuClass::FpAdd},
    {"fcmple",    2,  2,  true,  FuClass::FpAdd},
    {"fcmpeq",    2,  2,  true,  FuClass::FpAdd},
    {"sigmoid",   4,  1,  true,  FuClass::Special},
    {"relu",      1,  1,  true,  FuClass::Special},
    {"cmp3",      1,  2,  false, FuClass::IntAlu},
    {"fcmp3",     2,  2,  true,  FuClass::FpAdd},
};

} // namespace

const OpInfo &
opInfo(OpCode op)
{
    int idx = static_cast<int>(op);
    DSA_ASSERT(idx >= 0 && idx < kNumOpCodes, "bad opcode ", idx);
    return kOpTable[idx];
}

OpCode
opFromName(const std::string &name)
{
    for (int i = 0; i < kNumOpCodes; ++i)
        if (name == kOpTable[i].name)
            return static_cast<OpCode>(i);
    std::vector<std::string> valid;
    for (int i = 0; i < kNumOpCodes; ++i)
        valid.push_back(kOpTable[i].name);
    DSA_FATAL("unknown opcode name '", name, "'",
              suggestName(name, valid));
}

std::vector<OpCode>
OpSet::toVector() const
{
    std::vector<OpCode> out;
    for (int i = 0; i < kNumOpCodes; ++i) {
        auto op = static_cast<OpCode>(i);
        if (contains(op))
            out.push_back(op);
    }
    return out;
}

OpSet
OpSet::all()
{
    OpSet s;
    for (int i = 0; i < kNumOpCodes; ++i)
        s.insert(static_cast<OpCode>(i));
    return s;
}

OpSet
OpSet::allInteger()
{
    OpSet s;
    for (int i = 0; i < kNumOpCodes; ++i) {
        auto op = static_cast<OpCode>(i);
        if (!opInfo(op).isFloat)
            s.insert(op);
    }
    return s;
}

OpSet
OpSet::allFloat()
{
    OpSet s;
    for (int i = 0; i < kNumOpCodes; ++i) {
        auto op = static_cast<OpCode>(i);
        if (opInfo(op).isFloat)
            s.insert(op);
    }
    return s;
}

double
valueAsF64(Value v)
{
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

Value
valueFromF64(double d)
{
    Value v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
}

namespace {

/** One instantiation per opcode; the constant folds evalOp's switch. */
template <OpCode K>
Value
evalOpAs(Value a, Value b, Value c, Value *acc)
{
    return evalOp(K, a, b, c, acc);
}

template <size_t... I>
constexpr std::array<OpFn, sizeof...(I)>
makeOpFnTable(std::index_sequence<I...>)
{
    return {&evalOpAs<static_cast<OpCode>(I)>...};
}

const std::array<OpFn, kNumOpCodes> kOpFnTable =
    makeOpFnTable(std::make_index_sequence<kNumOpCodes>{});

} // namespace

OpFn
opFunction(OpCode op)
{
    int idx = static_cast<int>(op);
    DSA_ASSERT(idx >= 0 && idx < kNumOpCodes, "bad opcode ", idx);
    return kOpFnTable[static_cast<size_t>(idx)];
}

Value
evalOp(OpCode op, Value a, Value b, Value c, Value *acc)
{
    auto sa = static_cast<int64_t>(a);
    auto sb = static_cast<int64_t>(b);
    double fa = valueAsF64(a);
    double fb = valueAsF64(b);

    switch (op) {
      case OpCode::Add: return a + b;
      case OpCode::Sub: return a - b;
      case OpCode::Mul: return static_cast<Value>(sa * sb);
      case OpCode::Div: return sb ? static_cast<Value>(sa / sb) : 0;
      case OpCode::Mod: return sb ? static_cast<Value>(sa % sb) : 0;
      case OpCode::Min: return static_cast<Value>(std::min(sa, sb));
      case OpCode::Max: return static_cast<Value>(std::max(sa, sb));
      case OpCode::Abs: return static_cast<Value>(sa < 0 ? -sa : sa);
      case OpCode::And: return a & b;
      case OpCode::Or:  return a | b;
      case OpCode::Xor: return a ^ b;
      case OpCode::Not: return ~a;
      case OpCode::Shl: return a << (b & 63);
      case OpCode::Shr: return a >> (b & 63);
      case OpCode::CmpEQ: return a == b;
      case OpCode::CmpNE: return a != b;
      case OpCode::CmpLT: return sa < sb;
      case OpCode::CmpLE: return sa <= sb;
      case OpCode::CmpGT: return sa > sb;
      case OpCode::CmpGE: return sa >= sb;
      case OpCode::Select: return a ? b : c;
      case OpCode::Pass: return a;
      case OpCode::Acc: {
          DSA_ASSERT(acc, "acc op needs accumulator register");
          *acc += a;
          return *acc;
      }
      case OpCode::FAdd: return valueFromF64(fa + fb);
      case OpCode::FSub: return valueFromF64(fa - fb);
      case OpCode::FMul: return valueFromF64(fa * fb);
      case OpCode::FDiv: return valueFromF64(fb != 0.0 ? fa / fb : 0.0);
      case OpCode::FSqrt: return valueFromF64(std::sqrt(std::max(fa, 0.0)));
      case OpCode::FMin: return valueFromF64(std::min(fa, fb));
      case OpCode::FMax: return valueFromF64(std::max(fa, fb));
      case OpCode::FAcc: {
          DSA_ASSERT(acc, "facc op needs accumulator register");
          *acc = valueFromF64(valueAsF64(*acc) + fa);
          return *acc;
      }
      case OpCode::FCmpLT: return fa < fb;
      case OpCode::FCmpLE: return fa <= fb;
      case OpCode::FCmpEQ: return fa == fb;
      case OpCode::Sigmoid: return valueFromF64(1.0 / (1.0 + std::exp(-fa)));
      case OpCode::ReLU: return valueFromF64(std::max(fa, 0.0));
      case OpCode::Cmp3: return sa == sb ? 0 : (sa < sb ? 1 : 2);
      case OpCode::FCmp3: return fa == fb ? 0 : (fa < fb ? 1 : 2);
      default:
        DSA_PANIC("evalOp: unhandled opcode ", static_cast<int>(op));
    }
}

} // namespace dsa
