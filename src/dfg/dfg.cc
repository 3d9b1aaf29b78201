#include "dfg/dfg.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "base/bits.h"
#include "base/logging.h"

namespace dsa::dfg {

VertexId
Dfg::addInputPort(const std::string &name, int lanes, int widthBits)
{
    DSA_ASSERT(lanes >= 1, "port needs >= 1 lane");
    DSA_ASSERT(isPow2(widthBits) && widthBits <= 64, "bad port width");
    Vertex v;
    v.id = static_cast<VertexId>(vertices_.size());
    v.kind = VertexKind::InputPort;
    v.name = name;
    v.lanes = lanes;
    v.widthBits = widthBits;
    vertices_.push_back(std::move(v));
    usesDirty_ = true;
    return vertices_.back().id;
}

VertexId
Dfg::addOutputPort(const std::string &name, std::vector<Operand> srcs,
                   int64_t outputEvery, int widthBits)
{
    DSA_ASSERT(!srcs.empty(), "output port needs at least one source");
    for (const auto &s : srcs)
        DSA_ASSERT(!s.isImm(), "output port must drain values");
    Vertex v;
    v.id = static_cast<VertexId>(vertices_.size());
    v.kind = VertexKind::OutputPort;
    v.name = name;
    v.lanes = static_cast<int>(srcs.size());
    v.outputEvery = outputEvery;
    v.widthBits = widthBits;
    v.operands = std::move(srcs);
    vertices_.push_back(std::move(v));
    usesDirty_ = true;
    return vertices_.back().id;
}

VertexId
Dfg::addInstruction(OpCode op, std::vector<Operand> operands,
                    const std::string &name, int widthBits)
{
    DSA_ASSERT(static_cast<int>(operands.size()) <= kMaxOperands,
               "too many operands");
    DSA_ASSERT(static_cast<int>(operands.size()) == opInfo(op).numOperands,
               "op ", opName(op), " wants ", opInfo(op).numOperands,
               " operands, got ", operands.size());
    Vertex v;
    v.id = static_cast<VertexId>(vertices_.size());
    v.kind = VertexKind::Instruction;
    v.op = op;
    v.operands = std::move(operands);
    v.name = name.empty()
        ? std::string(opName(op)) + "_" + std::to_string(v.id) : name;
    v.widthBits = widthBits;
    vertices_.push_back(std::move(v));
    usesDirty_ = true;
    return vertices_.back().id;
}

VertexId
Dfg::addPredicatedInstruction(OpCode op, std::vector<Operand> operands,
                              const CtrlSpec &ctrl, const std::string &name,
                              int widthBits)
{
    DSA_ASSERT(static_cast<int>(operands.size()) <= kMaxOperands,
               "too many operands");
    int arity = opInfo(op).numOperands;
    int extra = ctrl.source == CtrlSpec::Source::Operand ? 1 : 0;
    DSA_ASSERT(static_cast<int>(operands.size()) == arity + extra,
               "op ", opName(op), " with ctrl wants ", arity + extra,
               " operands, got ", operands.size());
    Vertex v;
    v.id = static_cast<VertexId>(vertices_.size());
    v.kind = VertexKind::Instruction;
    v.op = op;
    v.operands = std::move(operands);
    v.ctrl = ctrl;
    v.name = name.empty()
        ? std::string(opName(op)) + "_j" + std::to_string(v.id) : name;
    v.widthBits = widthBits;
    vertices_.push_back(std::move(v));
    usesDirty_ = true;
    return vertices_.back().id;
}

VertexId
Dfg::addAccumulator(OpCode op, Operand value, Value accInit,
                    int64_t resetEvery, const std::string &name,
                    int widthBits)
{
    DSA_ASSERT(opInfo(op).numOperands == 2,
               "accumulator needs a binary op, got ", opName(op));
    Vertex v;
    v.id = static_cast<VertexId>(vertices_.size());
    v.kind = VertexKind::Instruction;
    v.op = op;
    v.operands = {value};
    v.selfAcc = true;
    v.accInit = accInit;
    v.accResetEvery = resetEvery;
    v.name = name.empty()
        ? std::string("acc_") + opName(op) + "_" + std::to_string(v.id)
        : name;
    v.widthBits = widthBits;
    vertices_.push_back(std::move(v));
    usesDirty_ = true;
    return vertices_.back().id;
}

const Vertex &
Dfg::vertex(VertexId v) const
{
    DSA_ASSERT(v >= 0 && v < numVertices(), "bad vertex id ", v);
    return vertices_[v];
}

Vertex &
Dfg::vertex(VertexId v)
{
    DSA_ASSERT(v >= 0 && v < numVertices(), "bad vertex id ", v);
    return vertices_[v];
}

std::vector<VertexId>
Dfg::inputPorts() const
{
    std::vector<VertexId> out;
    for (const auto &v : vertices_)
        if (v.kind == VertexKind::InputPort)
            out.push_back(v.id);
    return out;
}

std::vector<VertexId>
Dfg::outputPorts() const
{
    std::vector<VertexId> out;
    for (const auto &v : vertices_)
        if (v.kind == VertexKind::OutputPort)
            out.push_back(v.id);
    return out;
}

const std::vector<Dfg::Use> &
Dfg::uses(VertexId v) const
{
    if (usesDirty_)
        rebuildUses();
    DSA_ASSERT(v >= 0 && v < numVertices(), "bad vertex id ", v);
    return uses_[v];
}

void
Dfg::rebuildUses() const
{
    uses_.assign(vertices_.size(), {});
    for (const auto &vx : vertices_) {
        for (size_t i = 0; i < vx.operands.size(); ++i) {
            const Operand &o = vx.operands[i];
            if (!o.isImm())
                uses_[o.src].push_back({vx.id, static_cast<int>(i)});
        }
    }
    usesDirty_ = false;
}

int
Dfg::numInstructions() const
{
    int n = 0;
    for (const auto &v : vertices_)
        if (v.kind == VertexKind::Instruction)
            ++n;
    return n;
}

std::vector<VertexId>
Dfg::topoOrder() const
{
    // Kahn's algorithm; accumulate self-dependences are implicit (the
    // Acc register), so the graph seen here is a DAG if valid.
    std::vector<int> indeg(vertices_.size(), 0);
    for (const auto &v : vertices_) {
        for (const auto &o : v.operands)
            if (!o.isImm())
                ++indeg[v.id];
    }
    std::vector<VertexId> order;
    std::vector<VertexId> ready;
    for (const auto &v : vertices_)
        if (indeg[v.id] == 0)
            ready.push_back(v.id);
    if (usesDirty_)
        rebuildUses();
    while (!ready.empty()) {
        VertexId v = ready.back();
        ready.pop_back();
        order.push_back(v);
        for (const auto &u : uses_[v])
            if (--indeg[u.user] == 0)
                ready.push_back(u.user);
    }
    return order;
}

int
Dfg::longestRecurrence() const
{
    // The DFG itself is a DAG; recurrences appear as accumulate
    // instructions (register self-loop) whose loop length is the
    // latency of the accumulate op itself, and as recurrence streams
    // (handled at the Region level). Report the max accumulate latency.
    int longest = 0;
    for (const auto &v : vertices_)
        if (v.isAccumulate())
            longest = std::max(longest, opInfo(v.op).latency);
    return longest;
}

std::vector<std::string>
Dfg::validate() const
{
    std::vector<std::string> problems;
    auto complain = [&](auto &&...args) {
        problems.push_back(detail::fold(args...));
    };

    for (const auto &v : vertices_) {
        for (const auto &o : v.operands) {
            if (o.isImm())
                continue;
            if (o.src < 0 || o.src >= numVertices()) {
                complain("vertex '", v.name, "' references bad vertex ",
                         o.src);
                continue;
            }
            const Vertex &src = vertices_[o.src];
            if (src.kind == VertexKind::OutputPort)
                complain("vertex '", v.name, "' reads from output port '",
                         src.name, "'");
        }
        if (v.kind == VertexKind::InputPort && !v.operands.empty())
            complain("input port '", v.name, "' has operands");
        if (v.kind == VertexKind::OutputPort &&
            static_cast<int>(v.operands.size()) != v.lanes)
            complain("output port '", v.name, "' needs one source per lane");
        for (const auto &o : v.operands) {
            if (o.isImm() || o.src < 0 || o.src >= numVertices())
                continue;
            const Vertex &src = vertices_[o.src];
            int src_lanes = src.kind == VertexKind::InputPort ? src.lanes : 1;
            if (o.srcLane < 0 || o.srcLane >= src_lanes)
                complain("vertex '", v.name, "' reads lane ", o.srcLane,
                         " of '", src.name, "' which has ", src_lanes,
                         " lane(s)");
        }
        if (v.kind == VertexKind::Instruction && v.ctrl.active() &&
            v.ctrl.source == CtrlSpec::Source::Operand &&
            (v.ctrl.ctrlOperand < 0 ||
             v.ctrl.ctrlOperand >= static_cast<int>(v.operands.size()))) {
            complain("instruction '", v.name, "' has bad ctrl operand");
        }
    }
    if (topoOrder().size() != vertices_.size())
        complain("dataflow graph has a combinational cycle");
    return problems;
}

std::string
Dfg::toDot() const
{
    std::ostringstream os;
    os << "digraph \"" << name_ << "\" {\n";
    for (const auto &v : vertices_) {
        const char *shape = v.kind == VertexKind::Instruction
            ? "ellipse" : (v.kind == VertexKind::InputPort ? "invhouse"
                                                           : "house");
        os << "  v" << v.id << " [label=\"" << v.name << "\", shape="
           << shape << "];\n";
    }
    for (const auto &v : vertices_) {
        for (size_t i = 0; i < v.operands.size(); ++i) {
            const auto &o = v.operands[i];
            if (!o.isImm())
                os << "  v" << o.src << " -> v" << v.id << " [label=\""
                   << i << "\"];\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace dsa::dfg
