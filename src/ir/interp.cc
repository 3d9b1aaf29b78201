#include "ir/interp.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "base/logging.h"

namespace dsa::ir {

ArrayStore::ArrayStore(const KernelSource &kernel)
{
    for (const auto &a : kernel.arrays)
        arrays_[a.name].assign(static_cast<size_t>(a.length), 0);
}

bool
ArrayStore::has(const std::string &name) const
{
    return arrays_.count(name) > 0;
}

std::vector<Value> &
ArrayStore::data(const std::string &name)
{
    auto it = arrays_.find(name);
    DSA_ASSERT(it != arrays_.end(), "no array '", name, "'");
    return it->second;
}

const std::vector<Value> &
ArrayStore::data(const std::string &name) const
{
    auto it = arrays_.find(name);
    DSA_ASSERT(it != arrays_.end(), "no array '", name, "'");
    return it->second;
}

Value
ArrayStore::get(const std::string &name, int64_t idx) const
{
    const auto &v = data(name);
    DSA_ASSERT(idx >= 0 && idx < static_cast<int64_t>(v.size()),
               "load out of bounds: ", name, "[", idx, "] size ", v.size());
    return v[static_cast<size_t>(idx)];
}

void
ArrayStore::set(const std::string &name, int64_t idx, Value val)
{
    auto &v = data(name);
    DSA_ASSERT(idx >= 0 && idx < static_cast<int64_t>(v.size()),
               "store out of bounds: ", name, "[", idx, "] size ", v.size());
    v[static_cast<size_t>(idx)] = val;
}

namespace {

/*
 * interpret() first resolves the kernel into flat tables: every name
 * becomes a dense slot (arrays, scalars, loop ids), params fold into
 * constants, opcodes into their OpFn, and each expression tree into
 * a post-order instruction run over a value stack. Execution then
 * walks table indices and never looks a name up. A reference that
 * cannot resolve (a missing array or param, a null node) resolves to
 * an instruction that fails with the tree walk's message when, and
 * only when, the walk would have evaluated it.
 */

/** Expression instructions; operands are popped in push order. */
enum class XOp : uint8_t {
    Const,    ///< push literal or folded param
    Iv,       ///< push loop-id slot
    Scalar,   ///< push scalar slot
    Load,     ///< replace top (index) by array slot's element
    Op1,      ///< fn(a)
    Op2,      ///< fn(a, b)
    Op3,      ///< fn(a, b, c)
    AccOp,    ///< Acc/FAcc: operands evaluated, then fail
    NoParam,  ///< unbound param
    Null      ///< null expression
};

struct Instr
{
    XOp op = XOp::Const;
    int32_t slot = -1;          ///< Iv / Scalar / Load slot
    Value k = 0;                ///< Const
    OpFn fn = nullptr;          ///< Op1..Op3
    const Expr *src = nullptr;  ///< names for failure messages
};

/** One expression: the instruction range [begin, end). */
struct Code
{
    int32_t begin = 0, end = 0;
};

/** Resolved statement kinds. */
enum class SKind : uint8_t {
    Loop, Store, Update, Reduce, Let, If, Merge, Null
};

/**
 * One statement. Child statement lists are contiguous index ranges
 * of the statement table: [body, bodyEnd) for a loop body, the then
 * branch or a merge match, [alt, altEnd) for the else branch.
 */
struct SNode
{
    SKind kind = SKind::Null;
    bool floatKeys = false;
    /// extent | index, value | rvalue | cond | lenA, lenB
    Code x0, x1;
    /// Loop slot | array slot | scalar slot | merge ivA, ivB slots.
    int32_t slot = -1, slot2 = -1;
    int32_t arrA = -1, arrB = -1;  ///< merge: keysA, keysB slots
    int32_t body = 0, bodyEnd = 0;
    int32_t alt = 0, altEnd = 0;
    OpFn fn = nullptr;             ///< update / reduce op
    const Stmt *src = nullptr;
};

/** One array, resolved once. */
struct ArraySlot
{
    Value *base = nullptr;
    int64_t size = 0;
    bool present = false;
    const std::string *name = nullptr;
};

/** An iteration-variable slot's value while no loop binds it. Bound
 *  values are trip counts, never negative. */
constexpr int64_t kUnbound = -1;

class Interp
{
  public:
    Interp(const KernelSource &kernel, ArrayStore &store)
        : kernel_(kernel), store_(store)
    {
        root_ = resolveList(kernel.body);
        ivs_.assign(ivSlots_.size(), kUnbound);
        scalars_.assign(scalarSlots_.size(), 0);
        scalarBound_.assign(scalarSlots_.size(), 0);
        stack_.assign(static_cast<size_t>(maxDepth_), 0);
    }

    InterpStats
    run()
    {
        execRange(root_.first, root_.second);
        return stats_;
    }

  private:
    // ---- resolution -------------------------------------------------

    template <typename Map, typename Key>
    static int32_t
    slotFor(Map &m, const Key &k)
    {
        auto it = m.try_emplace(k, static_cast<int32_t>(m.size())).first;
        return it->second;
    }

    int32_t
    arraySlot(const std::string &name)
    {
        auto [it, fresh] = arraySlots_.try_emplace(
            name, static_cast<int32_t>(arrays_.size()));
        if (fresh) {
            ArraySlot a;
            a.name = &it->first;
            if (store_.has(name)) {
                auto &v = store_.data(name);
                a.base = v.data();
                a.size = static_cast<int64_t>(v.size());
                a.present = true;
            }
            arrays_.push_back(a);
        }
        return it->second;
    }

    Code
    compile(const ExprPtr &e)
    {
        Code c;
        c.begin = static_cast<int32_t>(code_.size());
        depth_ = 0;
        emit(e);
        c.end = static_cast<int32_t>(code_.size());
        return c;
    }

    /** Append @p in, which moves the stack depth by @p delta. */
    void
    push(const Instr &in, int delta)
    {
        code_.push_back(in);
        depth_ += delta;
        maxDepth_ = std::max(maxDepth_, depth_);
    }

    void
    emit(const ExprPtr &e)
    {
        Instr in;
        in.src = e.get();
        if (!e) {
            in.op = XOp::Null;
            push(in, 1);
            return;
        }
        switch (e->kind) {
          case ExprKind::Const:
            in.k = e->constVal;
            push(in, 1);
            return;
          case ExprKind::IterVar:
            in.op = XOp::Iv;
            in.slot = slotFor(ivSlots_, e->loopId);
            push(in, 1);
            return;
          case ExprKind::Param: {
            auto it = kernel_.params.find(e->name);
            if (it == kernel_.params.end())
                in.op = XOp::NoParam;
            else
                in.k = static_cast<Value>(it->second);
            push(in, 1);
            return;
          }
          case ExprKind::Scalar:
            in.op = XOp::Scalar;
            in.slot = slotFor(scalarSlots_, e->name);
            push(in, 1);
            return;
          case ExprKind::Load:
            emit(e->index);
            in.op = XOp::Load;
            in.slot = arraySlot(e->array);
            push(in, 0);
            return;
          case ExprKind::Op: {
            // An absent operand is 0, unevaluated.
            int arity = e->c ? 3 : e->b ? 2 : 1;
            emit(e->a);
            if (arity >= 2) {
                if (e->b)
                    emit(e->b);
                else
                    push(Instr{}, 1);
            }
            if (arity == 3)
                emit(e->c);
            in.op = e->op == OpCode::Acc || e->op == OpCode::FAcc
                ? XOp::AccOp
                : (arity == 1 ? XOp::Op1 : arity == 2 ? XOp::Op2 : XOp::Op3);
            in.fn = opFunction(e->op);
            push(in, 1 - arity);
            return;
          }
        }
        DSA_PANIC("bad expr kind");
    }

    /** Resolve @p list into a contiguous statement range. */
    std::pair<int32_t, int32_t>
    resolveList(const std::vector<StmtPtr> &list)
    {
        auto first = static_cast<int32_t>(ss_.size());
        ss_.resize(ss_.size() + list.size());
        for (size_t i = 0; i < list.size(); ++i) {
            // resolveStmt appends, so build the node before storing it.
            SNode n = resolveStmt(list[i].get());
            ss_[static_cast<size_t>(first) + i] = n;
        }
        return {first, first + static_cast<int32_t>(list.size())};
    }

    SNode
    resolveStmt(const Stmt *s)
    {
        SNode n;
        n.src = s;
        if (!s)
            return n;
        switch (s->kind) {
          case StmtKind::Loop:
            n.kind = SKind::Loop;
            n.x0 = compile(s->extent);
            n.slot = slotFor(ivSlots_, s->loopId);
            std::tie(n.body, n.bodyEnd) = resolveList(s->body);
            break;
          case StmtKind::Store:
            n.kind = s->isUpdate ? SKind::Update : SKind::Store;
            n.x0 = compile(s->index);
            n.x1 = compile(s->value);
            n.slot = arraySlot(s->array);
            n.fn = opFunction(s->updateOp);
            break;
          case StmtKind::Reduce:
            n.kind = SKind::Reduce;
            n.x0 = compile(s->rvalue);
            n.slot = slotFor(scalarSlots_, s->scalar);
            n.fn = opFunction(s->reduceOp);
            break;
          case StmtKind::LetScalar:
            n.kind = SKind::Let;
            n.x0 = compile(s->rvalue);
            n.slot = slotFor(scalarSlots_, s->scalar);
            break;
          case StmtKind::If:
            n.kind = SKind::If;
            n.x0 = compile(s->cond);
            std::tie(n.body, n.bodyEnd) = resolveList(s->thenBody);
            std::tie(n.alt, n.altEnd) = resolveList(s->elseBody);
            break;
          case StmtKind::MergeLoop:
            n.kind = SKind::Merge;
            n.floatKeys = s->merge.floatKeys;
            n.x0 = compile(s->merge.lenA);
            n.x1 = compile(s->merge.lenB);
            n.slot = slotFor(ivSlots_, s->merge.ivA);
            n.slot2 = slotFor(ivSlots_, s->merge.ivB);
            n.arrA = arraySlot(s->merge.keysA);
            n.arrB = arraySlot(s->merge.keysB);
            std::tie(n.body, n.bodyEnd) = resolveList(s->matchBody);
            break;
        }
        return n;
    }

    // ---- execution --------------------------------------------------

    /** Bounds-checked element of array slot @p a (what: load/store). */
    Value &
    element(int32_t a, int64_t idx, const char *what)
    {
        const ArraySlot &arr = arrays_[static_cast<size_t>(a)];
        if (static_cast<uint64_t>(idx) >= static_cast<uint64_t>(arr.size)) {
            DSA_ASSERT(arr.present, "no array '", *arr.name, "'");
            DSA_PANIC(what, " out of bounds: ", *arr.name, "[", idx,
                      "] size ", arr.size);
        }
        return arr.base[idx];
    }

    Value
    eval(Code x)
    {
        Value *sp = stack_.data();
        const Instr *pc = code_.data() + x.begin;
        const Instr *end = code_.data() + x.end;
        for (; pc != end; ++pc) {
            const Instr &in = *pc;
            switch (in.op) {
              case XOp::Const:
                *sp++ = in.k;
                break;
              case XOp::Iv: {
                int64_t v = ivs_[static_cast<size_t>(in.slot)];
                DSA_ASSERT(v != kUnbound, "unbound iter var i",
                           in.src->loopId);
                *sp++ = static_cast<Value>(v);
                break;
              }
              case XOp::Scalar:
                DSA_ASSERT(scalarBound_[static_cast<size_t>(in.slot)],
                           "unbound scalar ", in.src->name);
                *sp++ = scalars_[static_cast<size_t>(in.slot)];
                break;
              case XOp::Load:
                ++stats_.loads;
                sp[-1] = element(in.slot, static_cast<int64_t>(sp[-1]),
                                 "load");
                break;
              case XOp::Op1:
                ++stats_.arithOps;
                sp[-1] = in.fn(sp[-1], 0, 0, nullptr);
                break;
              case XOp::Op2:
                ++stats_.arithOps;
                sp[-2] = in.fn(sp[-2], sp[-1], 0, nullptr);
                --sp;
                break;
              case XOp::Op3:
                ++stats_.arithOps;
                sp[-3] = in.fn(sp[-3], sp[-2], sp[-1], nullptr);
                sp -= 2;
                break;
              case XOp::AccOp:
                ++stats_.arithOps;
                DSA_PANIC("accumulate is not an expression-level op");
              case XOp::NoParam:
                DSA_PANIC("unbound param ", in.src->name);
              case XOp::Null:
                DSA_PANIC("null expression");
            }
        }
        return sp[-1];
    }

    void
    execRange(int32_t first, int32_t last)
    {
        for (int32_t i = first; i < last; ++i)
            exec(ss_[static_cast<size_t>(i)]);
    }

    void
    exec(const SNode &s)
    {
        switch (s.kind) {
          case SKind::Loop: {
            auto extent = static_cast<int64_t>(eval(s.x0));
            int64_t &iv = ivs_[static_cast<size_t>(s.slot)];
            for (int64_t i = 0; i < extent; ++i) {
                iv = i;
                ++stats_.loopIters;
                execRange(s.body, s.bodyEnd);
            }
            iv = kUnbound;
            break;
          }
          case SKind::Store: {
            auto idx = static_cast<int64_t>(eval(s.x0));
            Value v = eval(s.x1);
            ++stats_.stores;
            element(s.slot, idx, "store") = v;
            break;
          }
          case SKind::Update: {
            auto idx = static_cast<int64_t>(eval(s.x0));
            Value v = eval(s.x1);
            Value old = element(s.slot, idx, "load");
            ++stats_.loads;
            ++stats_.arithOps;
            v = s.fn(old, v, 0, nullptr);
            ++stats_.stores;
            element(s.slot, idx, "store") = v;
            break;
          }
          case SKind::Reduce: {
            Value v = eval(s.x0);
            auto slot = static_cast<size_t>(s.slot);
            DSA_ASSERT(scalarBound_[slot], "reduce into unbound scalar ",
                       s.src->scalar);
            ++stats_.arithOps;
            scalars_[slot] = s.fn(scalars_[slot], v, 0, nullptr);
            break;
          }
          case SKind::Let: {
            Value v = eval(s.x0);
            scalars_[static_cast<size_t>(s.slot)] = v;
            scalarBound_[static_cast<size_t>(s.slot)] = 1;
            break;
          }
          case SKind::If: {
            Value c = eval(s.x0);
            ++stats_.branches;
            if (c)
                execRange(s.body, s.bodyEnd);
            else
                execRange(s.alt, s.altEnd);
            break;
          }
          case SKind::Merge:
            execMerge(s);
            break;
          case SKind::Null:
            DSA_PANIC("null statement");
        }
    }

    void
    execMerge(const SNode &s)
    {
        auto lenA = static_cast<int64_t>(eval(s.x0));
        auto lenB = static_cast<int64_t>(eval(s.x1));
        int64_t ia = 0, ib = 0;
        while (ia < lenA && ib < lenB) {
            Value ka = element(s.arrA, ia, "load");
            Value kb = element(s.arrB, ib, "load");
            stats_.loads += 2;
            ++stats_.branches;
            int cmp;
            if (s.floatKeys) {
                double fa = valueAsF64(ka), fb = valueAsF64(kb);
                cmp = fa == fb ? 0 : (fa < fb ? 1 : 2);
            } else {
                auto sa = static_cast<int64_t>(ka);
                auto sb = static_cast<int64_t>(kb);
                cmp = sa == sb ? 0 : (sa < sb ? 1 : 2);
            }
            if (cmp == 1) {
                ++ia;
            } else if (cmp == 2) {
                ++ib;
            } else {
                ivs_[static_cast<size_t>(s.slot)] = ia;
                ivs_[static_cast<size_t>(s.slot2)] = ib;
                execRange(s.body, s.bodyEnd);
                ivs_[static_cast<size_t>(s.slot)] = kUnbound;
                ivs_[static_cast<size_t>(s.slot2)] = kUnbound;
                ++ia;
                ++ib;
            }
        }
    }

    const KernelSource &kernel_;
    ArrayStore &store_;
    InterpStats stats_;

    std::vector<Instr> code_;
    std::vector<SNode> ss_;
    std::pair<int32_t, int32_t> root_;
    int depth_ = 0, maxDepth_ = 1;

    std::map<int, int32_t> ivSlots_;
    std::map<std::string, int32_t> scalarSlots_;
    std::map<std::string, int32_t> arraySlots_;
    std::vector<ArraySlot> arrays_;
    std::vector<int64_t> ivs_;
    std::vector<Value> scalars_;
    std::vector<uint8_t> scalarBound_;
    std::vector<Value> stack_;
};

} // namespace

InterpStats
interpret(const KernelSource &kernel, ArrayStore &store)
{
    return Interp(kernel, store).run();
}

} // namespace dsa::ir
