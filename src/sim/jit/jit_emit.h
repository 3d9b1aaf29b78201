/**
 * @file
 * C++ source emission for the JIT simulation tier: lower one armed
 * steady-state period program (the replay tier's micro-action list)
 * into a self-contained translation unit exporting a single C-ABI
 * kernel that executes `m` whole periods of straight-line, fixed-
 * operand code — no dispatch, no virtual pipes, every mask/arity/
 * immediate-shape baked.
 *
 * The generated kernel owns only the *value* mutations of the period
 * (pipe/port/ring occupancy, accumulators, stream cursors, memory
 * bytes); everything the interpreted replay loop also defers to chunk
 * end (timestamps, fire/pop counters, sink skip/take counters, memory
 * byte totals) stays host-side, so the kernel and the interpreted
 * loop are drop-in replacements for each other — bit-exactly.
 *
 * ABI: the kernel reads/writes four caller-built tables —
 *   S: int64 scalars (mutable ring heads/counts, accumulators, stream
 *      cursors; plus arm-time constants: masks, immediates, sizes)
 *   P: Value* arrays (pipe rings, port buffers, write rings, lastVec)
 *   A: const int64* arrays (pregenerated address/index sequences)
 *   B: byte base pointers (address spaces)
 *   F: pre-dispatched opcode evaluators (host OpFn pointers)
 * plus a trap callback for out-of-bounds memory access (mirrors the
 * interpreter's DSA_ASSERT abort; never returns). Because every
 * runtime quantity flows through the tables, the source text is a
 * function of program *structure* only — mutated designs with the
 * same steady-state shape share one compiled object.
 */

#ifndef DSA_SIM_JIT_JIT_EMIT_H
#define DSA_SIM_JIT_JIT_EMIT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfg/stream.h"
#include "isa/opcode.h"
#include "sim/compute_plan.h"
#include "sim/machine_state.h"

namespace dsa::sim::jit {

/** Kernel trap callback: out-of-bounds access diagnostic; must abort. */
using TrapFn = void (*)(int site);

/** C ABI of a generated kernel (u64 == Value at the ABI level). */
using KernelFn = void (*)(long long m, long long *S, Value *const *P,
                          const long long *const *A,
                          unsigned char *const *B, const OpFn *F,
                          TrapFn trap);

constexpr const char *kKernelSymbol = "dsa_jit_kernel";

/** How to (re)fill one S-table scalar before each kernel call. */
struct StateRef
{
    enum Kind : uint8_t {
        Const, ///< fixed at arm time (masks, immediates, space sizes)
        U32,   ///< *(uint32_t*)p — ring heads/counts
        U64,   ///< *(uint64_t*)p — latched values, accumulators
        Size,  ///< *(size_t*)p — stream cursors
    };
    Kind kind = Const;
    bool writeback = false; ///< kernel mutates it: copy back after call
    void *p = nullptr;
    int64_t constV = 0;
};

/** How to fill one pointer-table entry before each kernel call. */
struct PtrRef
{
    enum Kind : uint8_t {
        PipeVals,   ///< P: Pipe::vals
        PortBuf,    ///< P: PortSim::buf
        RingData,   ///< P: StreamExec::writeBuf storage
        LastVec,    ///< P: OutPortSim::lastVec (resized to n first)
        Addrs,      ///< A: StreamExec::addrs.data()
        IdxAddrs,   ///< A: StreamExec::idxAddrs.data()
        SpaceBytes, ///< B: AddressSpace backing bytes (mutable)
    };
    Kind kind = PipeVals;
    void *obj = nullptr;
    int n = 0; ///< LastVec: lane count
};

/** Emission result: source text + the table-binding recipe. */
struct Emitted
{
    std::string source;
    std::vector<StateRef> state; ///< S layout
    std::vector<PtrRef> ptrs;    ///< P layout
    std::vector<PtrRef> addrs;   ///< A layout
    std::vector<PtrRef> bytes;   ///< B layout
    std::vector<OpFn> fns;       ///< F contents (stable for the arm)
};

/** JIT-facing view of one replayed stream delivery binding (the
 *  replay tier's private slot struct, flattened). */
struct StreamRef
{
    dfg::StreamKind kind = dfg::StreamKind::LinearRead;
    int elemB = 0;
    int idxElemB = 0;
    int64_t base = 0;
    OpFn updateFn = nullptr;
    Value constValue = 0; ///< Const generators
    detail::StreamExec *se = nullptr;
    AddressSpace *space = nullptr;
    AddressSpace *idxSpace = nullptr;
};

/**
 * Builds one kernel: the caller replays the armed period program
 * through the action methods below (one call per micro-action, in
 * program order), then takes the finished source + binding recipe
 * with finish(). Any shape the emitter cannot lower bit-exactly
 * (forward sinks, unexpected stream kinds) flips ok() to false; the
 * caller then simply stays on the interpreted replay loop.
 */
class KernelBuilder
{
  public:
    KernelBuilder();

    /// @name One call per period micro-action, in program order.
    /// Semantics mirror the interpreted replay loop case-for-case.
    /// @{
    void latch(detail::PortSim *ps);
    void fire(const detail::PlanStep &s);
    void latchFire(const detail::PlanStep &s);
    void inst(const detail::PlanStep &s, bool withAcc);
    /** Devirtualized two-pipe-operand ALU: op is one of
     *  FAdd/FMul/Add/Mul (the replay tier's inline quartet). */
    void inst2(const detail::PlanStep &s, OpCode op);
    void selfAcc(const detail::PlanStep &s, bool inlineFAdd, bool reset);
    void outDeliver(const detail::PlanStep &s);
    void outDiscard(const detail::PlanStep &s);
    void outLatch(const detail::PlanStep &s);
    void deliver(const StreamRef &sr, int32_t n);
    /// @}

    /** Marks the end of one period (separator comment only). */
    void endCycle();

    bool ok() const { return ok_; }
    /** Number of actions emitted so far (size guard for callers). */
    int actions() const { return actions_; }

    /** Assemble the final translation unit + binding recipe. */
    Emitted finish();

  private:
    struct PipeLoc
    {
        int id;
        int head, count; ///< S slots (mutable)
        int mask;        ///< S slot (const)
    };
    struct PortLoc
    {
        int id;
        int head, count; ///< S slots (mutable)
        int mask;        ///< S slot (const)
        int cur = -1;    ///< S slot for current[0], lazy
    };
    struct RingLoc
    {
        int id;
        int head, count; ///< S slots (mutable)
        int mask;        ///< S slot (const)
    };
    struct SpaceLoc
    {
        int id;   ///< B slot
        int size; ///< S slot (const)
    };

    int stateSlot(StateRef::Kind k, void *p, bool writeback);
    int constSlot(int64_t v);
    PipeLoc &pipe(detail::Pipe *p);
    PortLoc &port(detail::PortSim *ps);
    int portCur(detail::PortSim *ps);
    RingLoc &ring(detail::StreamExec *se);
    SpaceLoc &space(AddressSpace *sp);
    int lastVec(detail::OutPortSim *op, int lanes);
    int addrArr(detail::StreamExec *se, bool idx);
    int acc(detail::InstSim *is);
    int fn(OpFn f);
    int trapSite();

    /** Emitted expression for operand i of an instruction step (pipe
     *  front or arm-time-constant immediate). */
    std::string operand(const detail::PlanStep &s, int i);
    void popOperands(const detail::PlanStep &s);
    void pushOuts(const detail::PlanStep &s, const std::string &val);
    /** Sink appends for one delivered element (Write/Recurrence only;
     *  a Forward sink flips ok_). */
    void sinkPushes(detail::OutPortSim *op, const std::string &val);
    std::string pipePushStmt(detail::Pipe *p, const std::string &val);
    std::string pipeFrontExpr(detail::Pipe *p);
    std::string pipePopStmt(detail::Pipe *p);
    void line(const std::string &s);

    bool ok_ = true;
    int actions_ = 0;
    int trapSites_ = 0;
    std::string body_;
    std::vector<StateRef> state_;
    std::vector<PtrRef> ptrs_, addrs_, bytes_;
    std::vector<OpFn> fns_;
    std::map<detail::Pipe *, PipeLoc> pipes_;
    std::map<detail::PortSim *, PortLoc> ports_;
    std::map<detail::StreamExec *, RingLoc> rings_;
    std::map<AddressSpace *, SpaceLoc> spaces_;
    std::map<detail::OutPortSim *, int> lastVecs_;
    std::map<std::pair<detail::StreamExec *, int>, int> addrArrs_;
    std::map<detail::InstSim *, int> accs_;
    std::map<OpFn, int> fnIdx_;
};

} // namespace dsa::sim::jit

#endif // DSA_SIM_JIT_JIT_EMIT_H
