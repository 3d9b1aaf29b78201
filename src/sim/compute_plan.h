/**
 * @file
 * Compiled steady-state tier: at sim-build time each mapped region's
 * dataflow is lowered into a flattened *compute plan* — a fixed array
 * of micro-ops in exactly the order the interpreted tick visits the
 * region's ports, instructions, and output ports. Every micro-op
 * carries resolved operand pipe pointers, a pre-dispatched opcode
 * function, and (for shared PEs) a direct arbitration-stamp slot, so
 * a steady-state region cycle runs as straight-line C++ with no
 * NodeId lookups, no opInfo/evalOp dispatch, and no per-tick operand
 * vector walks.
 *
 * Semantics contract: running a region's plan for one cycle is
 * bit-exact with the interpreted `tickRegion` body for the
 * Running-state port/instruction/out-port sweep. Anything the plan
 * cannot specialize (stream-join control) becomes an InstGeneric step
 * that calls the shared generic fire routine, so the contract holds
 * by construction. The simulator's oracle chain (dense -> sparse ->
 * compiled) enforces it end to end: a run with SimOptions::checkAgainst
 * set compares against the reference engine.
 */

#ifndef DSA_SIM_COMPUTE_PLAN_H
#define DSA_SIM_COMPUTE_PLAN_H

#include <cstdint>

#include "base/logging.h"
#include "isa/opcode.h"
#include "sim/machine_state.h"

namespace dsa::sim::detail {

/** One specialized micro-op of a region's steady-state cycle. */
struct PlanStep
{
    enum Kind : uint8_t {
        /** Scalar input port: lanes==1, no reuse, no pop throttle. */
        PortSimple,
        /** Any other input port: delegate to PortSim::tryFire. */
        PortGeneric,
        /** Plain instruction: no control, no accumulator. */
        InstSimple,
        /** Acc/FAcc with register: operand + latency-gated refire. */
        InstAcc,
        /** Self-accumulating op (acc = op(acc, v)), optional reset. */
        InstSelfAcc,
        /** Stream-join control (or anything else unusual): delegate
         *  to the generic fire routine. */
        InstGeneric,
        /** Output port with outputEvery==1 (element-per-fire). */
        OutSimple,
        /** Last-only output port (outputEvery==-1): latches the final
         *  vector, delivered at issue finalization. */
        OutLast,
        /** Decimating output port (outputEvery==K>1): pops every
         *  fire, delivers every K-th. */
        OutEvery,
        /** Any other output port: delegate to OutPortSim::tryFire. */
        OutGeneric,
    };

    // Field order is deliberate: everything the per-cycle sweep and
    // the replay loop touch for pipe-operand steps (kind/arities,
    // element pointer, operand pipes, output array, fn) packs into
    // the first 64 bytes; immediates and accumulator config live in
    // the second cacheline.
    Kind kind = InstGeneric;
    uint8_t nIn = 0;       ///< instruction arity (InstSimple/Acc)
    uint8_t nOut = 0;      ///< entries in outs[]
    uint8_t latency = 0;   ///< InstAcc/InstSelfAcc refire gate
    union {
        PortSim *port;
        InstSim *inst;
        OutPortSim *outPort;
    };
    Pipe *in[3] = {};          ///< operand pipes (null => imm[i])
    Pipe **outs = nullptr;     ///< arena array: output pipes (ports/
                               ///  instructions); lane pipes (OutSimple)
    OpFn fn = nullptr;         ///< pre-dispatched opcode evaluator
    int64_t *peStamp = nullptr;  ///< shared-PE arbitration slot
    Value imm[3] = {};
    int64_t accResetEvery = 0;   ///< InstSelfAcc periodic reset
    Value accInit = 0;
};

/** A region's lowered steady-state cycle. */
struct RegionPlan
{
    PlanStep *steps = nullptr;
    int numSteps = 0;
};

/**
 * Lower @p rs into a compute plan. Pipes and instruction state are
 * referenced in place, so the plan is valid for the lifetime of the
 * owning machine; step storage comes from @p arena.
 */
RegionPlan buildRegionPlan(RegionSim &rs, int64_t *peFiredCycle,
                           SimArena &arena);

/**
 * Execute one steady-state cycle of @p plan: the port -> instruction
 * -> output-port sweep of the interpreted tick, bit-exactly. Sets
 * @p activity (and the region's lastActivity) iff anything fired.
 */
void runPlan(RegionSim &rs, const RegionPlan &plan, int64_t now,
             bool &activity, int64_t *peFiredCycle);

/**
 * As runPlan, but additionally records which steps acted this cycle:
 * bit i of @p fired is set when step i fired, bit i of @p latched when
 * a PortSimple step latched a fresh vector from its buffer (which
 * mutates port state even when the subsequent push is rejected). The
 * pair is the per-cycle half of a steady-state period trace; stream
 * deliveries are recorded by the caller. Plans with more than 64
 * steps are not traceable (the replay tier checks this bound).
 */
void runPlanRecord(RegionSim &rs, const RegionPlan &plan, int64_t now,
                   bool &activity, int64_t *peFiredCycle,
                   uint64_t &fired, uint64_t &latched);

} // namespace dsa::sim::detail

#endif // DSA_SIM_COMPUTE_PLAN_H
