#include "adg/fingerprint.h"

#include <algorithm>
#include <variant>
#include <vector>

#include "base/bits.h"
#include "base/hashing.h"

namespace dsa::adg {

namespace {

// Distinct salts so the same payload hashed in different roles can
// never collide structurally.
constexpr uint64_t kSaltPe = 0x70653a3a70726f70ull;
constexpr uint64_t kSaltSwitch = 0x73773a3a70726f70ull;
constexpr uint64_t kSaltMem = 0x6d656d3a3a70726full;
constexpr uint64_t kSaltSync = 0x73796e633a3a7072ull;
constexpr uint64_t kSaltDelay = 0x64656c61793a3a70ull;
constexpr uint64_t kSaltControl = 0x6374726c3a3a7072ull;
constexpr uint64_t kSaltIn = 0x696e2d6e65696768ull;
constexpr uint64_t kSaltOut = 0x6f75742d6e656967ull;
constexpr uint64_t kSaltFinalLo = 0x66702d6c6f2d666eull;
constexpr uint64_t kSaltFinalHi = 0x66702d68692d666eull;
constexpr uint64_t kSaltLabeling = 0x6c6162656c696e67ull;

uint64_t
hashProps(const PeProps &p)
{
    uint64_t h = kSaltPe;
    h = hashCombine(h, static_cast<uint64_t>(p.sched));
    h = hashCombine(h, static_cast<uint64_t>(p.sharing));
    h = hashCombine(h, static_cast<uint64_t>(p.maxInsts));
    h = hashCombine(h, static_cast<uint64_t>(p.datapathBits));
    h = hashCombine(h, static_cast<uint64_t>(p.decomposable));
    h = hashCombine(h, static_cast<uint64_t>(p.minLaneBits));
    h = hashCombine(h, p.ops.raw());
    h = hashCombine(h, static_cast<uint64_t>(p.delayFifoDepth));
    h = hashCombine(h, static_cast<uint64_t>(p.streamJoin));
    h = hashCombine(h, static_cast<uint64_t>(p.regFileSize));
    return h;
}

uint64_t
hashProps(const SwitchProps &p)
{
    uint64_t h = kSaltSwitch;
    h = hashCombine(h, static_cast<uint64_t>(p.sched));
    h = hashCombine(h, static_cast<uint64_t>(p.datapathBits));
    h = hashCombine(h, static_cast<uint64_t>(p.decomposable));
    h = hashCombine(h, static_cast<uint64_t>(p.minLaneBits));
    h = hashCombine(h, static_cast<uint64_t>(p.flopOutput));
    h = hashCombine(h, static_cast<uint64_t>(p.maxRoutes));
    return h;
}

uint64_t
hashProps(const MemProps &p)
{
    uint64_t h = kSaltMem;
    h = hashCombine(h, static_cast<uint64_t>(p.kind));
    h = hashCombine(h, static_cast<uint64_t>(p.capacityBytes));
    h = hashCombine(h, static_cast<uint64_t>(p.widthBytes));
    h = hashCombine(h, static_cast<uint64_t>(p.numStreamEngines));
    h = hashCombine(h, static_cast<uint64_t>(p.linear));
    h = hashCombine(h, static_cast<uint64_t>(p.indirect));
    h = hashCombine(h, static_cast<uint64_t>(p.atomicUpdate));
    h = hashCombine(h, static_cast<uint64_t>(p.numBanks));
    return h;
}

uint64_t
hashProps(const SyncProps &p)
{
    uint64_t h = kSaltSync;
    h = hashCombine(h, static_cast<uint64_t>(p.dir));
    h = hashCombine(h, static_cast<uint64_t>(p.depth));
    h = hashCombine(h, static_cast<uint64_t>(p.widthBits));
    h = hashCombine(h, static_cast<uint64_t>(p.lanes));
    return h;
}

uint64_t
hashProps(const DelayProps &p)
{
    uint64_t h = kSaltDelay;
    h = hashCombine(h, static_cast<uint64_t>(p.sched));
    h = hashCombine(h, static_cast<uint64_t>(p.depth));
    h = hashCombine(h, static_cast<uint64_t>(p.widthBits));
    return h;
}

uint64_t
hashControl(const ControlProps &c)
{
    uint64_t h = kSaltControl;
    h = hashCombine(h, c.cmdIssueIpc);
    h = hashCombine(h, static_cast<uint64_t>(c.cmdLatency));
    h = hashCombine(h, static_cast<uint64_t>(c.configBitsPerCycle));
    return h;
}

} // namespace

uint64_t
nodeParamHash(const AdgNode &node)
{
    return std::visit([](const auto &p) { return hashProps(p); }, node.props);
}

AdgKey
canonicalKey(const Adg &adg)
{
    std::vector<NodeId> nodes = adg.aliveNodes();
    const size_t n = nodes.size();
    // Dense index for live nodes (IDs are sparse after tombstoning).
    std::vector<int32_t> dense(static_cast<size_t>(adg.nodeIdBound()), -1);
    for (size_t i = 0; i < n; ++i)
        dense[static_cast<size_t>(nodes[i])] = static_cast<int32_t>(i);

    // Initial WL colors: kind + parameters only — no IDs, no names, no
    // position hints — so relabelings start (and stay) identical.
    std::vector<uint64_t> label(n), next(n);
    for (size_t i = 0; i < n; ++i)
        label[i] = splitmix64(nodeParamHash(adg.node(nodes[i])));

    // Refinement rounds. log2(n) rounds propagate a node's signature
    // across the graph diameter of typical fabrics; a couple extra
    // rounds cheaply sharpen near-symmetric meshes. The fold over
    // neighbours is order-independent, so edge iteration order (which
    // follows edge IDs) cannot leak into the structural key.
    const int rounds = 2 + log2Ceil(n + 1);
    for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < n; ++i) {
            const NodeId id = nodes[i];
            UnorderedHash in, out;
            for (EdgeId e : adg.inEdges(id)) {
                const AdgEdge &edge = adg.edge(e);
                uint64_t src = label[static_cast<size_t>(
                    dense[static_cast<size_t>(edge.src)])];
                in.add(splitmix64(
                    hashCombine(src, static_cast<uint64_t>(edge.widthBits))));
            }
            for (EdgeId e : adg.outEdges(id)) {
                const AdgEdge &edge = adg.edge(e);
                uint64_t dst = label[static_cast<size_t>(
                    dense[static_cast<size_t>(edge.dst)])];
                out.add(splitmix64(
                    hashCombine(dst, static_cast<uint64_t>(edge.widthBits))));
            }
            uint64_t h = label[i];
            h = hashCombine(h, in.finish(kSaltIn));
            h = hashCombine(h, out.finish(kSaltOut));
            next[i] = h;
        }
        label.swap(next);
    }

    AdgKey key;
    // Structural: order-independent fold of the refined colors plus
    // graph-level scalars. Two salts give 128 independent bits, which
    // drives accidental-collision probability below any realistic
    // exploration length.
    {
        UnorderedHash fold;
        for (size_t i = 0; i < n; ++i)
            fold.add(label[i]);
        uint64_t edges = 0;
        for (EdgeId e : adg.aliveEdges()) {
            (void)e;
            ++edges;
        }
        uint64_t base = hashCombine(hashControl(adg.control()), edges);
        key.structural.lo =
            hashCombine(fold.finish(kSaltFinalLo), splitmix64(base));
        key.structural.hi =
            hashCombine(fold.finish(kSaltFinalHi), splitmix64(~base));
    }

    // Labeling: the live graph verbatim under its concrete IDs, in ID
    // order — exactly what the labeling-sensitive pipeline consumes.
    key.labeling = labelingHash(adg);
    return key;
}

Fp128
structuralFingerprint(const Adg &adg)
{
    return canonicalKey(adg).structural;
}

uint64_t
labelingHash(const Adg &adg)
{
    // One cheap O(V + E) pass — no WL refinement. Callers that only
    // need to pin the concrete labeled graph (per-fabric caches
    // indexed by raw node/edge IDs, e.g. the scheduler's landmark
    // tables) key on this alone instead of paying canonicalKey's
    // refinement rounds per lookup.
    uint64_t h = kSaltLabeling;
    for (NodeId id : adg.aliveNodes()) {
        h = hashCombine(h, static_cast<uint64_t>(id));
        h = hashCombine(h, nodeParamHash(adg.node(id)));
    }
    for (EdgeId e : adg.aliveEdges()) {
        const AdgEdge &edge = adg.edge(e);
        h = hashCombine(h, static_cast<uint64_t>(e));
        h = hashCombine(h, static_cast<uint64_t>(edge.src));
        h = hashCombine(h, static_cast<uint64_t>(edge.dst));
        h = hashCombine(h, static_cast<uint64_t>(edge.widthBits));
    }
    return hashCombine(h, hashControl(adg.control()));
}

} // namespace dsa::adg
