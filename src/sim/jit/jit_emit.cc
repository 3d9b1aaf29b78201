#include "sim/jit/jit_emit.h"

namespace dsa::sim::jit {

using detail::OutPortSim;
using detail::OutSink;
using detail::Pipe;
using detail::PlanStep;
using detail::PortSim;
using detail::StreamExec;
using dfg::StreamKind;

namespace {
std::string
num(int64_t v)
{
    return std::to_string(v);
}
} // namespace

KernelBuilder::KernelBuilder() = default;

void
KernelBuilder::line(const std::string &s)
{
    body_ += "    ";
    body_ += s;
    body_ += '\n';
}

int
KernelBuilder::stateSlot(StateRef::Kind k, void *p, bool writeback)
{
    // Mutable slots dedup by host lvalue: every action touching the
    // same ring head must read/write the same local.
    for (size_t i = 0; i < state_.size(); ++i)
        if (state_[i].kind == k && state_[i].p == p && p != nullptr)
            return static_cast<int>(i);
    StateRef r;
    r.kind = k;
    r.p = p;
    r.writeback = writeback;
    state_.push_back(r);
    return static_cast<int>(state_.size()) - 1;
}

int
KernelBuilder::constSlot(int64_t v)
{
    StateRef r;
    r.kind = StateRef::Const;
    r.constV = v;
    state_.push_back(r);
    return static_cast<int>(state_.size()) - 1;
}

KernelBuilder::PipeLoc &
KernelBuilder::pipe(Pipe *p)
{
    auto it = pipes_.find(p);
    if (it != pipes_.end())
        return it->second;
    PipeLoc loc;
    PtrRef pr;
    pr.kind = PtrRef::PipeVals;
    pr.obj = p;
    ptrs_.push_back(pr);
    loc.id = static_cast<int>(ptrs_.size()) - 1;
    loc.head = stateSlot(StateRef::U32, &p->head, true);
    loc.count = stateSlot(StateRef::U32, &p->count, true);
    loc.mask = constSlot(p->mask);
    return pipes_.emplace(p, loc).first->second;
}

KernelBuilder::PortLoc &
KernelBuilder::port(PortSim *ps)
{
    auto it = ports_.find(ps);
    if (it != ports_.end())
        return it->second;
    PortLoc loc;
    PtrRef pr;
    pr.kind = PtrRef::PortBuf;
    pr.obj = ps;
    ptrs_.push_back(pr);
    loc.id = static_cast<int>(ptrs_.size()) - 1;
    loc.head = stateSlot(StateRef::U32, &ps->bufHead, true);
    loc.count = stateSlot(StateRef::U32, &ps->bufCount, true);
    loc.mask = constSlot(ps->bufMask);
    return ports_.emplace(ps, loc).first->second;
}

int
KernelBuilder::portCur(PortSim *ps)
{
    PortLoc &loc = port(ps);
    if (loc.cur < 0)
        loc.cur = stateSlot(StateRef::U64, &ps->current[0], true);
    return loc.cur;
}

KernelBuilder::RingLoc &
KernelBuilder::ring(StreamExec *se)
{
    auto it = rings_.find(se);
    if (it != rings_.end())
        return it->second;
    RingLoc loc;
    PtrRef pr;
    pr.kind = PtrRef::RingData;
    pr.obj = se;
    ptrs_.push_back(pr);
    loc.id = static_cast<int>(ptrs_.size()) - 1;
    loc.head = stateSlot(StateRef::U32, &se->writeBuf.head, true);
    loc.count = stateSlot(StateRef::U32, &se->writeBuf.count, true);
    loc.mask = constSlot(se->writeBuf.mask);
    return rings_.emplace(se, loc).first->second;
}

KernelBuilder::SpaceLoc &
KernelBuilder::space(AddressSpace *sp)
{
    auto it = spaces_.find(sp);
    if (it != spaces_.end())
        return it->second;
    SpaceLoc loc;
    PtrRef pr;
    pr.kind = PtrRef::SpaceBytes;
    pr.obj = sp;
    bytes_.push_back(pr);
    loc.id = static_cast<int>(bytes_.size()) - 1;
    loc.size = constSlot(sp->size());
    return spaces_.emplace(sp, loc).first->second;
}

int
KernelBuilder::lastVec(OutPortSim *op, int lanes)
{
    auto it = lastVecs_.find(op);
    if (it != lastVecs_.end())
        return it->second;
    PtrRef pr;
    pr.kind = PtrRef::LastVec;
    pr.obj = op;
    pr.n = lanes;
    ptrs_.push_back(pr);
    int id = static_cast<int>(ptrs_.size()) - 1;
    lastVecs_.emplace(op, id);
    return id;
}

int
KernelBuilder::addrArr(StreamExec *se, bool idx)
{
    auto key = std::make_pair(se, idx ? 1 : 0);
    auto it = addrArrs_.find(key);
    if (it != addrArrs_.end())
        return it->second;
    PtrRef pr;
    pr.kind = idx ? PtrRef::IdxAddrs : PtrRef::Addrs;
    pr.obj = se;
    addrs_.push_back(pr);
    int id = static_cast<int>(addrs_.size()) - 1;
    addrArrs_.emplace(key, id);
    return id;
}

int
KernelBuilder::acc(detail::InstSim *is)
{
    auto it = accs_.find(is);
    if (it != accs_.end())
        return it->second;
    int slot = stateSlot(StateRef::U64, &is->acc, true);
    accs_.emplace(is, slot);
    return slot;
}

int
KernelBuilder::fn(OpFn f)
{
    auto it = fnIdx_.find(f);
    if (it != fnIdx_.end())
        return it->second;
    fns_.push_back(f);
    int id = static_cast<int>(fns_.size()) - 1;
    fnIdx_.emplace(f, id);
    return id;
}

int
KernelBuilder::trapSite()
{
    return trapSites_++;
}

std::string
KernelBuilder::pipePushStmt(Pipe *p, const std::string &val)
{
    PipeLoc &q = pipe(p);
    return "P" + num(q.id) + "[(s" + num(q.head) + " + s" +
           num(q.count) + ") & (u64)k" + num(q.mask) + "] = " + val +
           "; ++s" + num(q.count) + ";";
}

std::string
KernelBuilder::pipeFrontExpr(Pipe *p)
{
    PipeLoc &q = pipe(p);
    return "P" + num(q.id) + "[s" + num(q.head) + "]";
}

std::string
KernelBuilder::pipePopStmt(Pipe *p)
{
    PipeLoc &q = pipe(p);
    return "s" + num(q.head) + " = (s" + num(q.head) +
           " + 1) & (u64)k" + num(q.mask) + "; --s" + num(q.count) +
           ";";
}

std::string
KernelBuilder::operand(const PlanStep &s, int i)
{
    if (s.in[i])
        return pipeFrontExpr(s.in[i]);
    return "(u64)k" + num(constSlot(static_cast<int64_t>(s.imm[i])));
}

void
KernelBuilder::popOperands(const PlanStep &s)
{
    for (int j = 0; j < s.nIn; ++j)
        if (s.in[j])
            line(pipePopStmt(s.in[j]));
}

void
KernelBuilder::pushOuts(const PlanStep &s, const std::string &val)
{
    for (int j = 0; j < s.nOut; ++j)
        line(pipePushStmt(s.outs[j], val));
}

void
KernelBuilder::latch(PortSim *ps)
{
    ++actions_;
    PortLoc &t = port(ps);
    int cur = portCur(ps);
    line("{ s" + num(cur) + " = P" + num(t.id) + "[s" + num(t.head) +
         "]; s" + num(t.head) + " = (s" + num(t.head) +
         " + 1) & (u64)k" + num(t.mask) + "; --s" + num(t.count) +
         "; }");
}

void
KernelBuilder::fire(const PlanStep &s)
{
    ++actions_;
    int cur = portCur(s.port);
    line("{ const u64 v = s" + num(cur) + ";");
    for (int j = 0; j < s.nOut; ++j)
        line("  " + pipePushStmt(s.outs[j], "v"));
    line("}");
}

void
KernelBuilder::latchFire(const PlanStep &s)
{
    ++actions_;
    PortLoc &t = port(s.port);
    int cur = portCur(s.port);
    line("{ const u64 v = P" + num(t.id) + "[s" + num(t.head) +
         "]; s" + num(cur) + " = v; s" + num(t.head) + " = (s" +
         num(t.head) + " + 1) & (u64)k" + num(t.mask) + "; --s" +
         num(t.count) + ";");
    for (int j = 0; j < s.nOut; ++j)
        line("  " + pipePushStmt(s.outs[j], "v"));
    line("}");
}

void
KernelBuilder::inst(const PlanStep &s, bool withAcc)
{
    ++actions_;
    line("{ const u64 va = " + operand(s, 0) + ";");
    line("  const u64 vb = " +
         (s.nIn > 1 ? operand(s, 1) : std::string("0")) + ";");
    line("  const u64 vc = " +
         (s.nIn > 2 ? operand(s, 2) : std::string("0")) + ";");
    std::string accArg = withAcc ? "&s" + num(acc(s.inst))
                                 : std::string("(u64*)0");
    line("  const u64 r = F[" + num(fn(s.fn)) + "](va, vb, vc, " +
         accArg + ");");
    popOperands(s);
    pushOuts(s, "r");
    line("}");
}

void
KernelBuilder::inst2(const PlanStep &s, OpCode op)
{
    ++actions_;
    if (!s.in[0] || !s.in[1]) {
        ok_ = false;
        return;
    }
    line("{ const u64 va = " + pipeFrontExpr(s.in[0]) + ";");
    line("  const u64 vb = " + pipeFrontExpr(s.in[1]) + ";");
    switch (op) {
      case OpCode::FAdd:
        line("  const u64 r = db(fd(va) + fd(vb));");
        break;
      case OpCode::FMul:
        line("  const u64 r = db(fd(va) * fd(vb));");
        break;
      case OpCode::Add:
        line("  const u64 r = va + vb;");
        break;
      case OpCode::Mul:
        line("  const u64 r = (u64)((i64)va * (i64)vb);");
        break;
      default:
        ok_ = false;
        return;
    }
    line("  " + pipePopStmt(s.in[0]));
    line("  " + pipePopStmt(s.in[1]));
    pushOuts(s, "r");
    line("}");
}

void
KernelBuilder::selfAcc(const PlanStep &s, bool inlineFAdd, bool reset)
{
    ++actions_;
    int a = acc(s.inst);
    line("{ const u64 v = " + operand(s, 0) + ";");
    if (inlineFAdd)
        line("  s" + num(a) + " = db(fd(s" + num(a) + ") + fd(v));");
    else
        line("  s" + num(a) + " = F[" + num(fn(s.fn)) + "](s" +
             num(a) + ", v, 0, (u64*)0);");
    line("  const u64 r = s" + num(a) + ";");
    popOperands(s);
    pushOuts(s, "r");
    if (reset)
        line("  s" + num(a) + " = (u64)k" +
             num(constSlot(static_cast<int64_t>(s.accInit))) + ";");
    line("}");
}

void
KernelBuilder::sinkPushes(OutPortSim *op, const std::string &val)
{
    for (OutSink &sk : op->sinks) {
        if (!sk.wants())
            continue;
        if (sk.kind == OutSink::Kind::Write) {
            RingLoc &w = ring(sk.write);
            line("  P" + num(w.id) + "[(s" + num(w.head) + " + s" +
                 num(w.count) + ") & (u64)k" + num(w.mask) + "] = " +
                 val + "; ++s" + num(w.count) + ";");
        } else if (sk.kind == OutSink::Kind::Recurrence) {
            PortLoc &t = port(sk.target);
            line("  P" + num(t.id) + "[(s" + num(t.head) + " + s" +
                 num(t.count) + ") & (u64)k" + num(t.mask) + "] = " +
                 val + "; ++s" + num(t.count) + ";");
        } else {
            // Forward sinks feed machine-level queues the kernel does
            // not model; eligible regions never have them, but keep
            // the guard honest.
            ok_ = false;
            return;
        }
    }
}

void
KernelBuilder::outDeliver(const PlanStep &s)
{
    ++actions_;
    for (int j = 0; j < s.nOut; ++j) {
        line("{ const u64 v = " + pipeFrontExpr(s.outs[j]) + ";");
        line("  " + pipePopStmt(s.outs[j]));
        sinkPushes(s.outPort, "v");
        if (!ok_)
            return;
        line("}");
    }
}

void
KernelBuilder::outDiscard(const PlanStep &s)
{
    ++actions_;
    for (int j = 0; j < s.nOut; ++j)
        line(pipePopStmt(s.outs[j]));
}

void
KernelBuilder::outLatch(const PlanStep &s)
{
    ++actions_;
    int lv = lastVec(s.outPort, s.nOut);
    for (int j = 0; j < s.nOut; ++j) {
        line("P" + num(lv) + "[" + num(j) + "] = " +
             pipeFrontExpr(s.outs[j]) + ";");
        line(pipePopStmt(s.outs[j]));
    }
}

void
KernelBuilder::deliver(const StreamRef &sr, int32_t n)
{
    ++actions_;
    const std::string N = num(n);
    auto guard = [&](const std::string &addr, int eb, SpaceLoc &sp) {
        line("  if (" + addr + " < 0 || " + addr + " + " + num(eb) +
             " > k" + num(sp.size) + ") trap(" + num(trapSite()) +
             ");");
    };
    switch (sr.kind) {
      case StreamKind::LinearRead: {
        SpaceLoc &sp = space(sr.space);
        PortLoc &t = port(sr.se->target);
        int pos = stateSlot(StateRef::Size, &sr.se->pos, true);
        int a = addrArr(sr.se, false);
        line("{ const i64* a = A" + num(a) + " + (i64)s" + num(pos) +
             ";");
        line("  for (i64 i = 0; i < " + N + "; ++i) {");
        line("    const i64 ad = a[i];");
        line("  if (ad < 0 || ad + " + num(sr.elemB) + " > k" +
             num(sp.size) + ") trap(" + num(trapSite()) + ");");
        line("    u64 v = 0; __builtin_memcpy(&v, B" + num(sp.id) +
             " + ad, " + num(sr.elemB) + ");");
        line("    P" + num(t.id) + "[(s" + num(t.head) + " + s" +
             num(t.count) + " + (u64)i) & (u64)k" + num(t.mask) +
             "] = v;");
        line("  }");
        line("  s" + num(t.count) + " += " + N + "; s" + num(pos) +
             " += " + N + "; }");
        break;
      }
      case StreamKind::IndirectRead: {
        SpaceLoc &sp = space(sr.space);
        SpaceLoc &isp = space(sr.idxSpace);
        PortLoc &t = port(sr.se->target);
        int pos = stateSlot(StateRef::Size, &sr.se->pos, true);
        int ia = addrArr(sr.se, true);
        int base = constSlot(sr.base);
        line("{ for (i64 i = 0; i < " + N + "; ++i) {");
        line("    const i64 xa = A" + num(ia) + "[(i64)s" + num(pos) +
             " + i];");
        guard("xa", sr.idxElemB, isp);
        line("    u64 xv = 0; __builtin_memcpy(&xv, B" + num(isp.id) +
             " + xa, " + num(sr.idxElemB) + ");");
        line("    const i64 ad = k" + num(base) + " + (i64)xv * " +
             num(sr.elemB) + ";");
        guard("ad", sr.elemB, sp);
        line("    u64 v = 0; __builtin_memcpy(&v, B" + num(sp.id) +
             " + ad, " + num(sr.elemB) + ");");
        line("    P" + num(t.id) + "[(s" + num(t.head) + " + s" +
             num(t.count) + ") & (u64)k" + num(t.mask) +
             "] = v; ++s" + num(t.count) + ";");
        line("  }");
        line("  s" + num(pos) + " += " + N + "; }");
        break;
      }
      case StreamKind::LinearWrite: {
        SpaceLoc &sp = space(sr.space);
        RingLoc &w = ring(sr.se);
        int pos = stateSlot(StateRef::Size, &sr.se->pos, true);
        int a = addrArr(sr.se, false);
        line("{ const i64* a = A" + num(a) + " + (i64)s" + num(pos) +
             ";");
        line("  for (i64 i = 0; i < " + N + "; ++i) {");
        line("    const i64 ad = a[i];");
        line("  if (ad < 0 || ad + " + num(sr.elemB) + " > k" +
             num(sp.size) + ") trap(" + num(trapSite()) + ");");
        line("    const u64 v = P" + num(w.id) + "[(s" + num(w.head) +
             " + (u64)i) & (u64)k" + num(w.mask) + "];");
        line("    __builtin_memcpy(B" + num(sp.id) + " + ad, &v, " +
             num(sr.elemB) + ");");
        line("  }");
        line("  s" + num(w.head) + " = (s" + num(w.head) + " + " + N +
             ") & (u64)k" + num(w.mask) + "; s" + num(w.count) +
             " -= " + N + ";");
        line("  s" + num(pos) + " += " + N + "; }");
        break;
      }
      case StreamKind::IndirectWrite:
      case StreamKind::AtomicUpdate: {
        bool atomic = sr.kind == StreamKind::AtomicUpdate;
        SpaceLoc &sp = space(sr.space);
        SpaceLoc &isp = space(sr.idxSpace);
        RingLoc &w = ring(sr.se);
        int pos = stateSlot(StateRef::Size, &sr.se->pos, true);
        int ia = addrArr(sr.se, true);
        int base = constSlot(sr.base);
        line("{ for (i64 i = 0; i < " + N + "; ++i) {");
        line("    const i64 xa = A" + num(ia) + "[(i64)s" + num(pos) +
             " + i];");
        guard("xa", sr.idxElemB, isp);
        line("    u64 xv = 0; __builtin_memcpy(&xv, B" + num(isp.id) +
             " + xa, " + num(sr.idxElemB) + ");");
        line("    const i64 ad = k" + num(base) + " + (i64)xv * " +
             num(sr.elemB) + ";");
        guard("ad", sr.elemB, sp);
        line("    u64 v = P" + num(w.id) + "[s" + num(w.head) +
             "]; s" + num(w.head) + " = (s" + num(w.head) +
             " + 1) & (u64)k" + num(w.mask) + "; --s" + num(w.count) +
             ";");
        if (atomic) {
            line("    u64 o = 0; __builtin_memcpy(&o, B" +
                 num(sp.id) + " + ad, " + num(sr.elemB) + ");");
            line("    v = F[" + num(fn(sr.updateFn)) +
                 "](o, v, 0, (u64*)0);");
        }
        line("    __builtin_memcpy(B" + num(sp.id) + " + ad, &v, " +
             num(sr.elemB) + ");");
        line("  }");
        line("  s" + num(pos) + " += " + N + "; }");
        break;
      }
      case StreamKind::Const: {
        PortLoc &t = port(sr.se->target);
        int pos = stateSlot(StateRef::Size, &sr.se->pos, true);
        int cv = constSlot(static_cast<int64_t>(sr.constValue));
        line("{ const u64 v = (u64)k" + num(cv) + ";");
        line("  for (i64 i = 0; i < " + N + "; ++i)");
        line("    P" + num(t.id) + "[(s" + num(t.head) + " + s" +
             num(t.count) + " + (u64)i) & (u64)k" + num(t.mask) +
             "] = v;");
        line("  s" + num(t.count) + " += " + N + "; s" + num(pos) +
             " += " + N + "; }");
        break;
      }
      case StreamKind::Iota: {
        PortLoc &t = port(sr.se->target);
        int pos = stateSlot(StateRef::Size, &sr.se->pos, true);
        int a = addrArr(sr.se, false);
        line("{ const i64* a = A" + num(a) + " + (i64)s" + num(pos) +
             ";");
        line("  for (i64 i = 0; i < " + N + "; ++i)");
        line("    P" + num(t.id) + "[(s" + num(t.head) + " + s" +
             num(t.count) + " + (u64)i) & (u64)k" + num(t.mask) +
             "] = (u64)a[i];");
        line("  s" + num(t.count) + " += " + N + "; s" + num(pos) +
             " += " + N + "; }");
        break;
      }
      default:
        ok_ = false;
        break;
    }
}

void
KernelBuilder::endCycle()
{
    body_ += '\n';
}

Emitted
KernelBuilder::finish()
{
    Emitted em;
    if (!ok_)
        return em;
    std::string src;
    src.reserve(body_.size() + 4096);
    src += "// generated by the dsagen jit simulation tier\n";
    src += "typedef unsigned long long u64;\n";
    src += "typedef long long i64;\n";
    src += "typedef u64 (*OpFn)(u64, u64, u64, u64*);\n";
    src += "typedef void (*TrapFn)(int);\n";
    src += "static inline double fd(u64 v) { double d; "
           "__builtin_memcpy(&d, &v, 8); return d; }\n";
    src += "static inline u64 db(double d) { u64 v; "
           "__builtin_memcpy(&v, &d, 8); return v; }\n";
    src += "extern \"C\" void ";
    src += kKernelSymbol;
    src += "(i64 m, i64* S, u64* const* PT, const i64* const* AT,\n";
    src += "    unsigned char* const* BT, const OpFn* F, TrapFn "
           "trap_)\n{\n";
    // Trap wrapper: the host callback aborts; tell the optimizer so
    // the guarded loads stay well-formed past a failed guard.
    src += "  auto trap = [&](int site) { trap_(site); "
           "__builtin_trap(); };\n";
    // Prologue: every table entry the body references becomes a
    // local, so ring cursors live in registers across the whole
    // chunk.
    for (size_t i = 0; i < ptrs_.size(); ++i)
        src += "  u64* const P" + num(static_cast<int64_t>(i)) +
               " = PT[" + num(static_cast<int64_t>(i)) + "];\n";
    for (size_t i = 0; i < addrs_.size(); ++i)
        src += "  const i64* const A" + num(static_cast<int64_t>(i)) +
               " = AT[" + num(static_cast<int64_t>(i)) + "];\n";
    for (size_t i = 0; i < bytes_.size(); ++i)
        src += "  unsigned char* const B" +
               num(static_cast<int64_t>(i)) + " = BT[" +
               num(static_cast<int64_t>(i)) + "];\n";
    for (size_t i = 0; i < state_.size(); ++i) {
        const StateRef &r = state_[i];
        if (r.kind == StateRef::Const)
            src += "  const i64 k" + num(static_cast<int64_t>(i)) +
                   " = S[" + num(static_cast<int64_t>(i)) + "];\n";
        else
            src += "  u64 s" + num(static_cast<int64_t>(i)) +
                   " = (u64)S[" + num(static_cast<int64_t>(i)) +
                   "];\n";
    }
    src += "  for (i64 K = 0; K < m; ++K) {\n";
    src += body_;
    src += "  }\n";
    for (size_t i = 0; i < state_.size(); ++i)
        if (state_[i].writeback)
            src += "  S[" + num(static_cast<int64_t>(i)) +
                   "] = (i64)s" + num(static_cast<int64_t>(i)) +
                   ";\n";
    src += "}\n";

    em.source = std::move(src);
    em.state = std::move(state_);
    em.ptrs = std::move(ptrs_);
    em.addrs = std::move(addrs_);
    em.bytes = std::move(bytes_);
    em.fns = std::move(fns_);
    return em;
}

} // namespace dsa::sim::jit
