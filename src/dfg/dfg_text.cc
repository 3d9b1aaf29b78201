#include "dfg/dfg_text.h"

#include <sstream>

namespace dsa::dfg {

namespace {

std::string
operandToText(const Dfg &d, const Operand &o)
{
    if (o.isImm())
        return "#" + std::to_string(o.imm);
    std::string s = d.vertex(o.src).name;
    if (o.srcLane != 0 ||
        (d.vertex(o.src).kind == VertexKind::InputPort &&
         d.vertex(o.src).lanes > 1))
        s += "." + std::to_string(o.srcLane);
    return s;
}

std::string
maskToText(uint8_t m)
{
    std::ostringstream os;
    os << "0x" << std::hex << static_cast<int>(m);
    return os.str();
}

} // namespace

std::string
regionToText(const Region &region)
{
    const Dfg &d = region.dfg;
    std::ostringstream os;
    os << "# region " << region.name << "\n";
    for (VertexId v : d.inputPorts()) {
        const Vertex &vx = d.vertex(v);
        os << "input " << vx.name << " lanes=" << vx.lanes
           << " width=" << vx.widthBits;
        if (vx.reuse != 1)
            os << " reuse=" << vx.reuse;
        os << "\n";
    }
    for (VertexId v : d.topoOrder()) {
        const Vertex &vx = d.vertex(v);
        if (vx.kind != VertexKind::Instruction)
            continue;
        os << vx.name << " = " << opName(vx.op);
        for (size_t i = 0; i < vx.operands.size(); ++i)
            os << (i ? ", " : " ") << operandToText(d, vx.operands[i]);
        if (vx.selfAcc)
            os << " acc init=" << vx.accInit
               << " reset=" << vx.accResetEvery;
        if (vx.ctrl.active()) {
            os << " ctrl="
               << (vx.ctrl.source == CtrlSpec::Source::Self
                       ? std::string("self")
                       : "op" + std::to_string(vx.ctrl.ctrlOperand));
            for (size_t i = 0; i < vx.operands.size() && i < 3; ++i)
                os << " pop" << i << "="
                   << maskToText(vx.ctrl.popMask[i]);
            os << " emit=" << maskToText(vx.ctrl.emitMask);
        }
        if (vx.widthBits != 64)
            os << " width=" << vx.widthBits;
        os << "\n";
    }
    for (VertexId v : d.outputPorts()) {
        const Vertex &vx = d.vertex(v);
        os << "output " << vx.name << " =";
        for (size_t i = 0; i < vx.operands.size(); ++i)
            os << (i ? "," : " ") << operandToText(d, vx.operands[i]);
        if (vx.outputEvery != 1)
            os << " every=" << vx.outputEvery;
        if (vx.widthBits != 64)
            os << " width=" << vx.widthBits;
        os << "\n";
    }
    for (const Stream &st : region.streams) {
        os << "stream " << streamKindName(st.kind) << " port="
           << d.vertex(st.kind == StreamKind::IndirectWrite ||
                               st.kind == StreamKind::AtomicUpdate
                           ? st.valuePort
                           : st.port)
                  .name
           << " space=" << (st.space == MemSpace::Main ? "main" : "spad")
           << " base=" << st.pattern.baseBytes
           << " elem=" << st.pattern.elemBytes
           << " stride=" << st.pattern.stride1
           << " len=" << st.pattern.len1;
        if (st.pattern.len2 != 1)
            os << " stride2=" << st.pattern.stride2
               << " len2=" << st.pattern.len2;
        if (st.kind == StreamKind::Const)
            os << " value=" << st.constValue << " count=" << st.constCount;
        if (st.kind == StreamKind::Recurrence)
            os << " src=" << d.vertex(st.srcPort).name
               << " count=" << st.recurrenceCount;
        if (st.needsIndirect())
            os << " idxbase=" << st.idxPattern.baseBytes
               << " idxstride=" << st.idxPattern.stride1
               << " idxlen=" << st.idxPattern.len1
               << " idxelem=" << st.idxElemBytes;
        if (st.kind == StreamKind::AtomicUpdate)
            os << " op=" << opName(st.updateOp);
        if (st.scalarFallback)
            os << " fallback=1";
        os << "\n";
    }
    return os.str();
}

} // namespace dsa::dfg
