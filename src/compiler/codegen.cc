#include "compiler/codegen.h"

#include <sstream>

#include "base/logging.h"

namespace dsa::compiler {

using dfg::Region;
using dfg::Stream;
using dfg::StreamKind;

namespace {

/** Render one stream command in stream-dataflow intrinsic style. */
std::string
streamCommand(const Stream &st, const mapper::RegionSchedule &rs,
              const adg::Adg &adg)
{
    std::ostringstream os;
    auto portName = [&](dfg::VertexId v) {
        adg::NodeId n =
            rs.vertexMap.empty() ? adg::kInvalidNode : rs.vertexMap[v];
        if (n == adg::kInvalidNode)
            return std::string("P?");
        return adg.node(n).name;
    };
    auto pat = [&](const dfg::LinearPattern &p) {
        std::ostringstream ps;
        ps << "base=0x" << std::hex << p.baseBytes << std::dec
           << " stride=" << p.stride1 << " len=" << p.len1;
        if (p.len2 != 1)
            ps << " stride2=" << p.stride2 << " len2=" << p.len2;
        return ps.str();
    };
    const char *space =
        st.space == dfg::MemSpace::Main ? "main" : "spad";
    switch (st.kind) {
      case StreamKind::LinearRead:
        os << "SS_LINEAR_READ  " << space << "[" << pat(st.pattern)
           << "] -> " << portName(st.port);
        break;
      case StreamKind::LinearWrite:
        os << "SS_LINEAR_WRITE " << portName(st.port) << " -> " << space
           << "[" << pat(st.pattern) << "]";
        break;
      case StreamKind::IndirectRead:
        os << "SS_IND_READ     " << space << "[base=0x" << std::hex
           << st.pattern.baseBytes << std::dec << " idx("
           << pat(st.idxPattern) << ")] -> " << portName(st.port);
        break;
      case StreamKind::IndirectWrite:
        os << "SS_IND_WRITE    " << portName(st.valuePort) << " -> "
           << space << "[idx(" << pat(st.idxPattern) << ")]";
        break;
      case StreamKind::AtomicUpdate:
        os << "SS_ATOMIC_" << opName(st.updateOp) << "  "
           << portName(st.valuePort) << " -> " << space << "[idx("
           << pat(st.idxPattern) << ")]";
        break;
      case StreamKind::Const:
        os << "SS_CONST        " << st.constValue << " x"
           << st.constCount << " -> " << portName(st.port);
        break;
      case StreamKind::Iota:
        os << "SS_IOTA         [" << pat(st.pattern) << "] -> "
           << portName(st.port);
        break;
      case StreamKind::Recurrence:
        os << "SS_RECURRENCE   " << portName(st.srcPort) << " -> "
           << portName(st.port) << " x" << st.recurrenceCount;
        break;
    }
    if (st.scalarFallback)
        os << "   ; scalar fallback (issued element-wise by the core)";
    return os.str();
}

} // namespace

std::string
emitControlProgram(const dfg::DecoupledProgram &prog,
                   const mapper::Schedule &sched, const adg::Adg &adg,
                   CommandStats *stats)
{
    CommandStats cs;
    std::ostringstream os;
    os << "; control program for '" << prog.name << "'\n";

    int lastGroup = -1;
    auto emitConfig = [&](int group) {
        if (group == lastGroup)
            return;
        os << "  SS_CONFIG       group" << group
           << "           ; load fabric bitstream\n";
        ++cs.configCommands;
        lastGroup = group;
    };

    auto emitRegionIssue = [&](size_t r, int indent) {
        const Region &reg = prog.regions[r];
        std::string pad(static_cast<size_t>(indent), ' ');
        for (const Stream &st : reg.streams) {
            os << pad << streamCommand(st, sched.regions[r], adg)
               << "\n";
            ++cs.streamCommands;
        }
    };

    if (prog.sequential) {
        os << "; sequentially-phased: " << prog.phaseScript.size()
           << " issues follow the phase script\n";
        // Compact form: emit the unique region bodies once, then the
        // issue order with loop annotations.
        for (size_t r = 0; r < prog.regions.size(); ++r) {
            const Region &reg = prog.regions[r];
            os << "region_" << r << ":  ; " << reg.name << "\n";
            emitConfig(reg.configGroup);
            emitRegionIssue(r, 2);
            os << "  SS_WAIT_ALL                      ; phase barrier\n";
            ++cs.barrierCommands;
        }
        os << "issue_script:\n";
        size_t shown = std::min<size_t>(prog.phaseScript.size(), 12);
        for (size_t i = 0; i < shown; ++i) {
            const auto &e = prog.phaseScript[i];
            os << "  CALL region_" << e.region;
            for (const auto &[id, v] : e.ivs)
                os << " i" << id << "=" << v;
            os << "\n";
            ++cs.loopInstructions;
        }
        if (prog.phaseScript.size() > shown)
            os << "  ... (" << prog.phaseScript.size() - shown
               << " more issues)\n";
        cs.loopInstructions +=
            static_cast<int>(prog.phaseScript.size() - shown);
    } else {
        for (size_t r = 0; r < prog.regions.size(); ++r) {
            const Region &reg = prog.regions[r];
            os << "; region '" << reg.name << "'\n";
            for (int dep : reg.dependsOn) {
                os << "  SS_WAIT_MEM     region" << dep
                   << "          ; cross-region dependence\n";
                ++cs.barrierCommands;
            }
            emitConfig(reg.configGroup);
            int indent = 2;
            for (const auto &[id, extent] : reg.outerLoops) {
                os << std::string(static_cast<size_t>(indent), ' ')
                   << "LOOP i" << id << " in [0, " << extent << "):\n";
                ++cs.loopInstructions;
                indent += 2;
            }
            emitRegionIssue(r, indent);
            if (reg.drainBetweenReissues && !reg.outerLoops.empty()) {
                os << std::string(static_cast<size_t>(indent), ' ')
                   << "SS_WAIT_ALL                    ; fence per issue\n";
                ++cs.barrierCommands;
            }
        }
        for (const auto &f : prog.forwards) {
            os << "  ; scalar forward region" << f.srcRegion
               << " -> region" << f.dstRegion
               << (f.viaMemory ? " (via memory + barrier)"
                               : " (on-fabric)")
               << "\n";
            if (f.viaMemory)
                ++cs.barrierCommands;
        }
    }
    os << "  SS_WAIT_ALL                      ; program completion\n";
    ++cs.barrierCommands;
    if (stats)
        *stats = cs;
    return os.str();
}

} // namespace dsa::compiler
