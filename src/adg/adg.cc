#include "adg/adg.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "base/bits.h"
#include "base/logging.h"
#include "base/status.h"
#include "base/strings.h"

namespace dsa::adg {

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Pe: return "pe";
      case NodeKind::Switch: return "switch";
      case NodeKind::Memory: return "mem";
      case NodeKind::Sync: return "sync";
      case NodeKind::Delay: return "delay";
    }
    DSA_PANIC("bad node kind");
}

NodeKind
nodeKindFromName(const std::string &name)
{
    if (name == "pe") return NodeKind::Pe;
    if (name == "switch") return NodeKind::Switch;
    if (name == "mem") return NodeKind::Memory;
    if (name == "sync") return NodeKind::Sync;
    if (name == "delay") return NodeKind::Delay;
    // Thrown, not fatal: mangled ADG text can come from a corrupt
    // checkpoint, which must surface as a Status, not kill the run.
    throw StatusException(Status::invalidArgument(
        "unknown node kind '" + name + "'" +
        suggestName(name, {"pe", "switch", "mem", "sync", "delay"})));
}

const char *
schedulingName(Scheduling s)
{
    return s == Scheduling::Static ? "static" : "dynamic";
}

Scheduling
schedulingFromName(const std::string &name)
{
    if (name == "static") return Scheduling::Static;
    if (name == "dynamic") return Scheduling::Dynamic;
    throw StatusException(Status::invalidArgument(
        "unknown scheduling '" + name + "'" +
        suggestName(name, {"static", "dynamic"})));
}

const char *
sharingName(Sharing s)
{
    return s == Sharing::Dedicated ? "dedicated" : "shared";
}

Sharing
sharingFromName(const std::string &name)
{
    if (name == "dedicated") return Sharing::Dedicated;
    if (name == "shared") return Sharing::Shared;
    throw StatusException(Status::invalidArgument(
        "unknown sharing '" + name + "'" +
        suggestName(name, {"dedicated", "shared"})));
}

NodeId
Adg::addNode(NodeKind kind,
             std::variant<PeProps, SwitchProps, MemProps, SyncProps,
                          DelayProps> props,
             const std::string &name)
{
    AdgNode n;
    n.id = static_cast<NodeId>(nodes_.size());
    n.kind = kind;
    n.props = std::move(props);
    n.name = name.empty()
        ? std::string(nodeKindName(kind)) + std::to_string(n.id)
        : name;
    nodes_.push_back(std::move(n));
    outEdges_.emplace_back();
    inEdges_.emplace_back();
    return nodes_.back().id;
}

NodeId
Adg::addPe(const PeProps &props, const std::string &name)
{
    DSA_ASSERT(isPow2(props.datapathBits) && props.datapathBits <= 64,
               "PE datapath must be power-of-two <= 64");
    DSA_ASSERT(props.sharing == Sharing::Shared || props.maxInsts == 1,
               "dedicated PE holds exactly one instruction");
    return addNode(NodeKind::Pe, props, name);
}

NodeId
Adg::addSwitch(const SwitchProps &props, const std::string &name)
{
    DSA_ASSERT(isPow2(props.datapathBits) && props.datapathBits <= 64,
               "switch datapath must be power-of-two <= 64");
    return addNode(NodeKind::Switch, props, name);
}

NodeId
Adg::addMemory(const MemProps &props, const std::string &name)
{
    DSA_ASSERT(props.widthBytes > 0 && props.numStreamEngines > 0,
               "memory needs positive width and stream engines");
    return addNode(NodeKind::Memory, props, name);
}

NodeId
Adg::addSync(const SyncProps &props, const std::string &name)
{
    DSA_ASSERT(props.depth > 0 && props.lanes > 0, "bad sync params");
    return addNode(NodeKind::Sync, props, name);
}

NodeId
Adg::addDelay(const DelayProps &props, const std::string &name)
{
    DSA_ASSERT(props.depth > 0, "bad delay depth");
    return addNode(NodeKind::Delay, props, name);
}

namespace {

/** Datapath width of a node, for defaulting connection widths. */
int
nodeWidthBits(const AdgNode &n)
{
    switch (n.kind) {
      case NodeKind::Pe: return n.pe().datapathBits;
      case NodeKind::Switch: return n.sw().datapathBits;
      case NodeKind::Memory: return n.mem().widthBytes * 8;
      case NodeKind::Sync: return n.sync().widthBits * n.sync().lanes;
      case NodeKind::Delay: return n.delay().widthBits;
    }
    DSA_PANIC("bad node kind");
}

} // namespace

EdgeId
Adg::connect(NodeId src, NodeId dst, int widthBits)
{
    DSA_ASSERT(nodeAlive(src), "connect from dead node ", src);
    DSA_ASSERT(nodeAlive(dst), "connect to dead node ", dst);
    DSA_ASSERT(src != dst, "self loop on node ", src);
    if (widthBits == 0) {
        widthBits = std::min(nodeWidthBits(node(src)),
                             nodeWidthBits(node(dst)));
    }
    DSA_ASSERT(isPow2(widthBits), "edge width must be power of two");
    AdgEdge e;
    e.id = static_cast<EdgeId>(edges_.size());
    e.src = src;
    e.dst = dst;
    e.widthBits = widthBits;
    edges_.push_back(e);
    outEdges_[src].push_back(e.id);
    inEdges_[dst].push_back(e.id);
    return e.id;
}

void
Adg::removeNode(NodeId id)
{
    DSA_ASSERT(nodeAlive(id), "remove dead node ", id);
    // Copy: removeEdge mutates the adjacency lists we iterate.
    auto out = outEdges_[id];
    for (EdgeId e : out)
        removeEdge(e);
    auto in = inEdges_[id];
    for (EdgeId e : in)
        removeEdge(e);
    nodes_[id].alive = false;
}

void
Adg::removeEdge(EdgeId id)
{
    DSA_ASSERT(edgeAlive(id), "remove dead edge ", id);
    AdgEdge &e = edges_[id];
    e.alive = false;
    auto &out = outEdges_[e.src];
    out.erase(std::remove(out.begin(), out.end(), id), out.end());
    auto &in = inEdges_[e.dst];
    in.erase(std::remove(in.begin(), in.end(), id), in.end());
}

std::vector<NodeId>
Adg::aliveNodes() const
{
    std::vector<NodeId> out;
    for (const auto &n : nodes_)
        if (n.alive)
            out.push_back(n.id);
    return out;
}

std::vector<NodeId>
Adg::aliveNodes(NodeKind kind) const
{
    std::vector<NodeId> out;
    for (const auto &n : nodes_)
        if (n.alive && n.kind == kind)
            out.push_back(n.id);
    return out;
}

std::vector<EdgeId>
Adg::aliveEdges() const
{
    std::vector<EdgeId> out;
    for (const auto &e : edges_)
        if (e.alive)
            out.push_back(e.id);
    return out;
}

EdgeId
Adg::findEdge(NodeId src, NodeId dst) const
{
    for (EdgeId e : outEdges(src))
        if (edges_[e].dst == dst)
            return e;
    return kInvalidEdge;
}

AdgStats
Adg::stats() const
{
    AdgStats s;
    for (const auto &n : nodes_) {
        if (!n.alive)
            continue;
        switch (n.kind) {
          case NodeKind::Pe:
            ++s.numPes;
            if (n.pe().sched == Scheduling::Dynamic)
                ++s.numDynamicPes;
            if (n.pe().sharing == Sharing::Shared)
                ++s.numSharedPes;
            break;
          case NodeKind::Switch: ++s.numSwitches; break;
          case NodeKind::Memory: ++s.numMemories; break;
          case NodeKind::Sync: ++s.numSyncs; break;
          case NodeKind::Delay: ++s.numDelays; break;
        }
    }
    for (const auto &e : edges_)
        if (e.alive)
            ++s.numEdges;
    return s;
}

std::vector<std::string>
Adg::validate() const
{
    std::vector<std::string> problems;
    auto complain = [&](auto &&...args) {
        problems.push_back(detail::fold(args...));
    };

    for (const auto &e : edges_) {
        if (!e.alive)
            continue;
        if (!nodeAlive(e.src) || !nodeAlive(e.dst)) {
            complain("edge ", e.id, " touches a dead node");
            continue;
        }
        const AdgNode &src = node(e.src);
        const AdgNode &dst = node(e.dst);
        // §III-C: buses exist only between memories and sync elements.
        if (src.kind == NodeKind::Memory && dst.kind != NodeKind::Sync)
            complain("edge ", e.id, ": memory '", src.name,
                     "' may only feed sync elements");
        if (dst.kind == NodeKind::Memory && src.kind != NodeKind::Sync)
            complain("edge ", e.id, ": memory '", dst.name,
                     "' may only be fed by sync elements");
        // Sync direction must match usage.
        if (src.kind == NodeKind::Sync &&
            src.sync().dir == SyncDir::Input &&
            dst.kind == NodeKind::Memory) {
            complain("edge ", e.id, ": input sync '", src.name,
                     "' cannot write memory");
        }
        if (dst.kind == NodeKind::Sync &&
            dst.sync().dir == SyncDir::Output &&
            src.kind == NodeKind::Memory) {
            complain("edge ", e.id, ": output sync '", dst.name,
                     "' cannot be fed by memory");
        }
        if (!isPow2(e.widthBits))
            complain("edge ", e.id, " width ", e.widthBits,
                     " is not a power of two");
    }

    auto mems = aliveNodes(NodeKind::Memory);
    if (mems.empty())
        complain("design has no memory");
    bool hasIn = false, hasOut = false;
    for (NodeId id : aliveNodes(NodeKind::Sync)) {
        if (node(id).sync().dir == SyncDir::Input)
            hasIn = true;
        else
            hasOut = true;
    }
    if (!hasIn)
        complain("design has no input sync element");
    if (!hasOut)
        complain("design has no output sync element");

    for (const auto &n : nodes_) {
        if (!n.alive || n.kind != NodeKind::Pe)
            continue;
        if (n.pe().ops.empty())
            complain("PE '", n.name, "' supports no operations");
        if (n.pe().streamJoin && n.pe().sched != Scheduling::Dynamic)
            complain("PE '", n.name,
                     "': stream-join requires dynamic scheduling");
    }
    return problems;
}

namespace {

std::string
opsToString(const OpSet &ops)
{
    std::vector<std::string> names;
    for (OpCode op : ops.toVector())
        names.emplace_back(opName(op));
    return join(names, ",");
}

/** Reject malformed ADG text (fromText adds the line). */
[[noreturn]] void
malformed(const std::string &what)
{
    throw StatusException(Status::invalidArgument(what));
}

/** opFromName, but an unknown name throws instead of exiting. */
OpCode
opFromText(const std::string &name)
{
    for (int i = 0; i < kNumOpCodes; ++i)
        if (name == opName(static_cast<OpCode>(i)))
            return static_cast<OpCode>(i);
    std::vector<std::string> valid;
    for (int i = 0; i < kNumOpCodes; ++i)
        valid.emplace_back(opName(static_cast<OpCode>(i)));
    malformed("unknown opcode '" + name + "'" + suggestName(name, valid));
}

OpSet
opsFromString(const std::string &s)
{
    OpSet out;
    if (s.empty())
        return out;
    for (const auto &tok : split(s, ','))
        if (!tok.empty())
            out.insert(opFromText(tok));
    return out;
}

/**
 * Node and edge ids index flat tables sized by the largest id, so a
 * bound keeps a mangled id from asking for gigabytes. It is far above
 * any fabric the explorer grows, tombstones included.
 */
constexpr int32_t kMaxTextId = 1 << 20;

int32_t
idFromText(const std::string &tok, const char *what)
{
    auto v = parseNumber<int32_t>(tok);
    if (!v || *v < 0 || *v >= kMaxTextId)
        malformed(std::string(what) + " id '" + tok + "' is not in [0, " +
                  std::to_string(kMaxTextId) + ")");
    return *v;
}

/** @p tok, the value of @p what, as a T. */
template <typename T>
T
numFromText(const std::string &tok, const std::string &what)
{
    auto v = parseNumber<T>(tok);
    if (!v)
        malformed(what + " '" + tok + "' is not a number in range");
    return *v;
}

using KeyVals = std::map<std::string, std::string>;

/** key=value tokenizer for one serialized line. */
KeyVals
parseKeyVals(const std::vector<std::string> &toks, size_t firstIdx)
{
    KeyVals kv;
    for (size_t i = firstIdx; i < toks.size(); ++i) {
        if (toks[i].empty())
            continue;
        auto eq = toks[i].find('=');
        if (eq == std::string::npos)
            malformed("token '" + toks[i] + "' is not key=value");
        kv[toks[i].substr(0, eq)] = toks[i].substr(eq + 1);
    }
    return kv;
}

std::string
getOr(const KeyVals &kv, const std::string &key, const std::string &dflt)
{
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
}

/** The value of @p key as a T, or @p dflt when the line has none. */
template <typename T>
T
numOr(const KeyVals &kv, const std::string &key, T dflt)
{
    auto it = kv.find(key);
    return it == kv.end() ? dflt : numFromText<T>(it->second, key);
}

} // namespace

std::string
Adg::toText() const
{
    std::ostringstream os;
    os << "adg v1\n";
    const auto &c = control_;
    os << "control ipc=" << c.cmdIssueIpc << " lat=" << c.cmdLatency
       << " cfgbits=" << c.configBitsPerCycle << "\n";
    for (const auto &n : nodes_) {
        if (!n.alive)
            continue;
        os << "node " << n.id << " " << nodeKindName(n.kind)
           << " name=" << n.name << " row=" << n.row << " col=" << n.col;
        switch (n.kind) {
          case NodeKind::Pe: {
            const auto &p = n.pe();
            os << " sched=" << schedulingName(p.sched)
               << " sharing=" << sharingName(p.sharing)
               << " insts=" << p.maxInsts << " bits=" << p.datapathBits
               << " decomp=" << p.decomposable
               << " minlane=" << p.minLaneBits
               << " delay=" << p.delayFifoDepth << " join=" << p.streamJoin
               << " regs=" << p.regFileSize << " ops=" << opsToString(p.ops);
            break;
          }
          case NodeKind::Switch: {
            const auto &p = n.sw();
            os << " sched=" << schedulingName(p.sched)
               << " bits=" << p.datapathBits << " decomp=" << p.decomposable
               << " minlane=" << p.minLaneBits << " flop=" << p.flopOutput
               << " routes=" << p.maxRoutes;
            break;
          }
          case NodeKind::Memory: {
            const auto &p = n.mem();
            os << " kind=" << (p.kind == MemKind::Main ? "main" : "spad")
               << " cap=" << p.capacityBytes << " width=" << p.widthBytes
               << " engines=" << p.numStreamEngines << " linear=" << p.linear
               << " indirect=" << p.indirect << " atomic=" << p.atomicUpdate
               << " banks=" << p.numBanks;
            break;
          }
          case NodeKind::Sync: {
            const auto &p = n.sync();
            os << " dir=" << (p.dir == SyncDir::Input ? "in" : "out")
               << " depth=" << p.depth << " bits=" << p.widthBits
               << " lanes=" << p.lanes;
            break;
          }
          case NodeKind::Delay: {
            const auto &p = n.delay();
            os << " sched=" << schedulingName(p.sched)
               << " depth=" << p.depth << " bits=" << p.widthBits;
            break;
          }
        }
        os << "\n";
    }
    for (const auto &e : edges_) {
        if (!e.alive)
            continue;
        os << "edge " << e.id << " " << e.src << " " << e.dst << " "
           << e.widthBits << "\n";
    }
    return os.str();
}

std::string
Adg::toDot() const
{
    std::ostringstream os;
    os << "digraph adg {\n  rankdir=TB;\n";
    for (const auto &n : nodes_) {
        if (!n.alive)
            continue;
        const char *shape = "box";
        std::string color = "black";
        switch (n.kind) {
          case NodeKind::Pe:
            shape = "ellipse";
            color = n.pe().sched == Scheduling::Dynamic ? "red" : "blue";
            if (n.pe().sharing == Sharing::Shared)
                color = "purple";
            break;
          case NodeKind::Switch:
            shape = "diamond";
            color = n.sw().sched == Scheduling::Dynamic ? "orange"
                                                        : "gray";
            break;
          case NodeKind::Memory:
            shape = "cylinder";
            color = "green";
            break;
          case NodeKind::Sync:
            shape = n.sync().dir == SyncDir::Input ? "invhouse" : "house";
            color = "brown";
            break;
          case NodeKind::Delay:
            shape = "cds";
            color = "gray";
            break;
        }
        os << "  n" << n.id << " [label=\"" << n.name << "\", shape="
           << shape << ", color=" << color << "];\n";
    }
    for (const auto &e : edges_) {
        if (!e.alive)
            continue;
        os << "  n" << e.src << " -> n" << e.dst;
        if (e.widthBits != 64)
            os << " [label=\"" << e.widthBits << "b\"]";
        os << ";\n";
    }
    os << "}\n";
    return os.str();
}

Adg
Adg::fromText(const std::string &text)
{
    // Runs @p parse on the tokens of every line that is not blank or a
    // comment. Whatever it rejects comes back as one InvalidArgument
    // naming the line: ADG text arrives from files, checkpoints and
    // worker frames, and none of them may take the process down.
    std::vector<std::string> lines = split(text, '\n');
    auto forEachLine = [&](const auto &parse) {
        for (size_t i = 0; i < lines.size(); ++i) {
            std::string line = trim(lines[i]);
            if (line.empty() || line[0] == '#')
                continue;
            try {
                parse(split(line, ' '));
            } catch (const StatusException &e) {
                throw StatusException(Status::invalidArgument(
                    "ADG line " + std::to_string(i + 1) + " '" + line +
                    "': " + e.status().message()));
            }
        }
    };

    Adg g;
    // First pass: find id bounds so tombstones keep original ids.
    NodeId maxNode = -1;
    EdgeId maxEdge = -1;
    forEachLine([&](const std::vector<std::string> &toks) {
        if (toks.size() >= 2 && toks[0] == "node")
            maxNode = std::max(maxNode, idFromText(toks[1], "node"));
        if (toks.size() >= 2 && toks[0] == "edge")
            maxEdge = std::max(maxEdge, idFromText(toks[1], "edge"));
    });
    g.nodes_.resize(maxNode + 1);
    g.outEdges_.resize(maxNode + 1);
    g.inEdges_.resize(maxNode + 1);
    for (NodeId i = 0; i <= maxNode; ++i) {
        g.nodes_[i].id = i;
        g.nodes_[i].alive = false;
    }
    g.edges_.resize(maxEdge + 1);
    for (EdgeId i = 0; i <= maxEdge; ++i) {
        g.edges_[i].id = i;
        g.edges_[i].alive = false;
    }

    forEachLine([&](const std::vector<std::string> &toks) {
        if (toks[0] == "adg") {
            if (toks.size() < 2 || toks[1] != "v1")
                malformed("unsupported ADG version (this build reads v1)");
        } else if (toks[0] == "control") {
            auto kv = parseKeyVals(toks, 1);
            g.control_.cmdIssueIpc = numOr(kv, "ipc", 1.0);
            g.control_.cmdLatency = numOr(kv, "lat", 5);
            g.control_.configBitsPerCycle = numOr(kv, "cfgbits", 64);
        } else if (toks[0] == "node") {
            if (toks.size() < 3)
                malformed("a node line needs an id and a kind");
            NodeId id = idFromText(toks[1], "node");
            NodeKind kind = nodeKindFromName(toks[2]);
            auto kv = parseKeyVals(toks, 3);
            AdgNode &n = g.nodes_[id];
            if (n.alive)
                malformed("node " + toks[1] + " is defined twice");
            n.alive = true;
            n.kind = kind;
            n.name = getOr(kv, "name", "");
            n.row = numOr(kv, "row", -1);
            n.col = numOr(kv, "col", -1);
            switch (kind) {
              case NodeKind::Pe: {
                PeProps p;
                p.sched = schedulingFromName(getOr(kv, "sched", "static"));
                p.sharing =
                    sharingFromName(getOr(kv, "sharing", "dedicated"));
                p.maxInsts = numOr(kv, "insts", 1);
                p.datapathBits = numOr(kv, "bits", 64);
                p.decomposable = numOr(kv, "decomp", 0);
                p.minLaneBits = numOr(kv, "minlane", 64);
                p.delayFifoDepth = numOr(kv, "delay", 4);
                p.streamJoin = numOr(kv, "join", 0);
                p.regFileSize = numOr(kv, "regs", 2);
                p.ops = opsFromString(getOr(kv, "ops", ""));
                n.props = p;
                break;
              }
              case NodeKind::Switch: {
                SwitchProps p;
                p.sched = schedulingFromName(getOr(kv, "sched", "static"));
                p.datapathBits = numOr(kv, "bits", 64);
                p.decomposable = numOr(kv, "decomp", 0);
                p.minLaneBits = numOr(kv, "minlane", 64);
                p.flopOutput = numOr(kv, "flop", 1);
                p.maxRoutes = numOr(kv, "routes", 1);
                n.props = p;
                break;
              }
              case NodeKind::Memory: {
                MemProps p;
                p.kind = getOr(kv, "kind", "spad") == "main"
                    ? MemKind::Main : MemKind::Scratchpad;
                p.capacityBytes = numOr<int64_t>(kv, "cap", 8192);
                p.widthBytes = numOr(kv, "width", 64);
                p.numStreamEngines = numOr(kv, "engines", 4);
                p.linear = numOr(kv, "linear", 1);
                p.indirect = numOr(kv, "indirect", 0);
                p.atomicUpdate = numOr(kv, "atomic", 0);
                p.numBanks = numOr(kv, "banks", 1);
                n.props = p;
                break;
              }
              case NodeKind::Sync: {
                SyncProps p;
                p.dir = getOr(kv, "dir", "in") == "in" ? SyncDir::Input
                                                       : SyncDir::Output;
                p.depth = numOr(kv, "depth", 8);
                p.widthBits = numOr(kv, "bits", 64);
                p.lanes = numOr(kv, "lanes", 4);
                n.props = p;
                break;
              }
              case NodeKind::Delay: {
                DelayProps p;
                p.sched = schedulingFromName(getOr(kv, "sched", "static"));
                p.depth = numOr(kv, "depth", 8);
                p.widthBits = numOr(kv, "bits", 64);
                n.props = p;
                break;
              }
            }
        } else if (toks[0] == "edge") {
            if (toks.size() < 5)
                malformed("an edge line needs an id, two nodes and a width");
            EdgeId id = idFromText(toks[1], "edge");
            AdgEdge &e = g.edges_[id];
            if (e.alive)
                malformed("edge " + toks[1] + " is defined twice");
            e.src = idFromText(toks[2], "node");
            e.dst = idFromText(toks[3], "node");
            e.widthBits = numFromText<int>(toks[4], "edge width");
            if (!g.nodeAlive(e.src) || !g.nodeAlive(e.dst))
                malformed("edge " + toks[1] + " references unknown node");
            e.alive = true;
            g.outEdges_[e.src].push_back(id);
            g.inEdges_[e.dst].push_back(id);
        } else {
            malformed("unknown ADG line kind '" + toks[0] + "'");
        }
    });
    return g;
}

} // namespace dsa::adg
