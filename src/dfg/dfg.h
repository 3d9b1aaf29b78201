/**
 * @file
 * The decoupled dataflow graph (DFG): DSAGEN's program representation
 * for offloaded regions (§II, Fig. 2(b)). Memory accesses are expressed
 * as coarse-grain streams (stream.h) entering/leaving through vector
 * ports; the computation itself is a graph of instructions.
 *
 * Vertices are instructions, input ports, or output ports; each vertex
 * produces exactly one value per firing. Dynamic (stream-join capable)
 * instructions carry a control specification that conditionally reuses
 * operands or abstains from emitting (§III-A, §IV-E).
 */

#ifndef DSA_DFG_DFG_H
#define DSA_DFG_DFG_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/opcode.h"

namespace dsa::dfg {

/** Vertex identifier within one Dfg. */
using VertexId = int32_t;
constexpr VertexId kInvalidVertex = -1;

/** Maximum instruction input arity. */
constexpr int kMaxOperands = 3;

enum class VertexKind : uint8_t { InputPort, Instruction, OutputPort };

/**
 * An instruction operand: another vertex's value or an immediate.
 * When the producer is a multi-lane input port, @c srcLane selects
 * which lane of each popped vector this operand reads (unrolled DFGs,
 * Fig. 2(b)).
 */
struct Operand
{
    VertexId src = kInvalidVertex;  ///< producing vertex, or kInvalid
    Value imm = 0;                  ///< immediate when src == kInvalid
    int srcLane = 0;                ///< lane of a vector producer

    bool isImm() const { return src == kInvalidVertex; }

    static Operand value(VertexId v, int lane = 0)
    {
        return Operand{v, 0, lane};
    }
    static Operand immediate(Value imm)
    {
        return Operand{kInvalidVertex, imm, 0};
    }
};

/**
 * Stream-join control (§IV-E / SPU [20]): decides, per firing, which
 * operands are popped and whether a result is emitted, keyed by a
 * small control value in 0..7.
 *
 * The control value comes either from the instruction's own result
 * (Self — e.g. a Cmp3 join unit) or from a designated operand
 * (Operand — e.g. a multiply predicated by a routed compare result).
 */
struct CtrlSpec
{
    enum class Source : uint8_t { None, Self, Operand };

    Source source = Source::None;
    /** Operand index carrying the control value when source==Operand. */
    int ctrlOperand = -1;
    /** popMask[i] bit v set => pop operand i when control value is v. */
    uint8_t popMask[kMaxOperands] = {0xFF, 0xFF, 0xFF};
    /** Bit v set => emit the result when control value is v. */
    uint8_t emitMask = 0xFF;

    bool active() const { return source != Source::None; }

    bool pops(int operand, int ctrlValue) const
    {
        return popMask[operand] & (1u << (ctrlValue & 7));
    }
    bool emits(int ctrlValue) const
    {
        return emitMask & (1u << (ctrlValue & 7));
    }
};

/** One DFG vertex. */
struct Vertex
{
    VertexId id = kInvalidVertex;
    VertexKind kind = VertexKind::Instruction;
    std::string name;

    /// @name Instruction fields
    /// @{
    OpCode op = OpCode::Pass;
    std::vector<Operand> operands;
    CtrlSpec ctrl;
    /** Result bitwidth (power of two <= 64). */
    int widthBits = 64;
    /// @}

    /// @name Port fields
    /// @{
    /** Vector lanes released together (ports only). */
    int lanes = 1;
    /**
     * Output ports only: keep one element out of every @c outputEvery
     * produced (the last of each group). Used to drain reductions:
     * an accumulator feeding an output with outputEvery == N yields
     * one result per N inputs. -1 = emit only the final value.
     */
    int64_t outputEvery = 1;
    /**
     * Input ports only: each popped element is delivered to @c reuse
     * consecutive fires before advancing (broadcast of slowly-varying
     * values, e.g. a producer-consumer forwarded scalar).
     */
    int64_t reuse = 1;
    /// @}

    /// @name Accumulator fields
    /// @{
    /**
     * Self-accumulating instruction: the first (implicit) operand is a
     * PE register; result = op(reg, explicit operand); reg = result.
     * Generalizes Acc to any binary reduction op (max-pool, min, fadd).
     */
    bool selfAcc = false;
    /** Reset the accumulator register after this many fires (0=never). */
    int64_t accResetEvery = 0;
    /** Initial / reset value of the accumulator register. */
    Value accInit = 0;
    /// @}

    /** True for instructions using a PE accumulator register. */
    bool isAccumulate() const
    {
        return kind == VertexKind::Instruction &&
               (selfAcc || op == OpCode::Acc || op == OpCode::FAcc);
    }

    /**
     * Instructions that may only run on dynamic-scheduled PEs:
     * anything with active stream-join control.
     */
    bool needsDynamicPe() const { return ctrl.active(); }
};

/**
 * A dataflow graph for one offloaded region.
 *
 * Construction API returns VertexIds; operands reference producers.
 * Use validate() after construction; the compiler, scheduler, and
 * simulator all assume a validated DFG.
 */
class Dfg
{
  public:
    Dfg() = default;
    explicit Dfg(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    /// @name Construction
    /// @{
    /** Add a vector input port with @p lanes lanes of @p widthBits. */
    VertexId addInputPort(const std::string &name, int lanes = 1,
                          int widthBits = 64);
    /**
     * Add an output port draining one value per lane per fire.
     * @param srcs      one source operand per lane
     * @param outputEvery see Vertex::outputEvery
     */
    VertexId addOutputPort(const std::string &name,
                           std::vector<Operand> srcs,
                           int64_t outputEvery = 1, int widthBits = 64);
    /** Add an instruction. */
    VertexId addInstruction(OpCode op, std::vector<Operand> operands,
                            const std::string &name = "",
                            int widthBits = 64);
    /**
     * Add a self-accumulating reduction: result = op(reg, value).
     * @param op        a binary opcode (Add, FAdd, Max, FMin, ...)
     * @param value     the explicit operand
     * @param accInit   initial/reset register value
     * @param resetEvery reset period in fires (0 = never)
     */
    VertexId addAccumulator(OpCode op, Operand value, Value accInit = 0,
                            int64_t resetEvery = 0,
                            const std::string &name = "",
                            int widthBits = 64);
    /**
     * Add an instruction with stream-join/predication control. The
     * control operand (ctrl.ctrlOperand) may be one extra operand
     * beyond the opcode's natural arity.
     */
    VertexId addPredicatedInstruction(OpCode op,
                                      std::vector<Operand> operands,
                                      const CtrlSpec &ctrl,
                                      const std::string &name = "",
                                      int widthBits = 64);
    /// @}

    /// @name Access
    /// @{
    int numVertices() const { return static_cast<int>(vertices_.size()); }
    const Vertex &vertex(VertexId v) const;
    Vertex &vertex(VertexId v);
    const std::vector<Vertex> &vertices() const { return vertices_; }

    std::vector<VertexId> inputPorts() const;
    std::vector<VertexId> outputPorts() const;

    /** Vertices consuming @p v's value (with operand index). */
    struct Use { VertexId user; int operandIdx; };
    const std::vector<Use> &uses(VertexId v) const;

    /** Count of non-port instructions. */
    int numInstructions() const;

    /**
     * Length (in instructions, weighted by op latency) of the longest
     * cycle through @p v, or 0 if v is not on a cycle. Cycles arise
     * from accumulate self-loops and recurrence streams and determine
     * the dependence activity ratio of the performance model.
     */
    int longestRecurrence() const;

    /** Topological order ignoring back-edges to accumulators. */
    std::vector<VertexId> topoOrder() const;
    /// @}

    /** Structural checks; returns problems (empty = valid). */
    std::vector<std::string> validate() const;

    /** Graphviz dump for debugging. */
    std::string toDot() const;

  private:
    std::string name_;
    std::vector<Vertex> vertices_;
    mutable std::vector<std::vector<Use>> uses_;
    mutable bool usesDirty_ = true;

    void rebuildUses() const;
};

} // namespace dsa::dfg

#endif // DSA_DFG_DFG_H
