#include "mapper/scheduler.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "base/logging.h"
#include "base/thread_pool.h"
#include "mapper/landmarks.h"

namespace dsa::mapper {

using adg::Adg;
using adg::AdgNode;
using adg::EdgeId;
using adg::kInvalidNode;
using adg::NodeId;
using adg::NodeKind;
using adg::Scheduling;
using adg::Sharing;
using adg::SyncDir;
using dfg::Region;
using dfg::Stream;
using dfg::StreamKind;
using dfg::Vertex;
using dfg::VertexId;
using dfg::VertexKind;

void
SchedStats::merge(const SchedStats &o)
{
    routeCalls += o.routeCalls;
    dijkstraSearches += o.dijkstraSearches;
    astarSearches += o.astarSearches;
    nodesExpanded += o.nodesExpanded;
    cacheHits += o.cacheHits;
    cacheMisses += o.cacheMisses;
    cacheStale += o.cacheStale;
    ssspBuilds += o.ssspBuilds;
    ssspHits += o.ssspHits;
    revBuilds += o.revBuilds;
    revHits += o.revHits;
    probeMemoHits += o.probeMemoHits;
    probeMemoMisses += o.probeMemoMisses;
    iterations += o.iterations;
    chainsRun += o.chainsRun;
}

SpatialScheduler::SpatialScheduler(const dfg::DecoupledProgram &prog,
                                   const Adg &adg, SchedOptions opts)
    : prog_(prog), adg_(adg), opts_(opts), rng_(opts.seed)
{
    buildTimingPlans();
    buildSlots();
    // Concurrency classes: stream engines are runtime-allocated (not
    // config state), so regions that never execute simultaneously can
    // reuse them. Sequentially-phased programs run one region at a
    // time; otherwise regions at different depths of the dependence
    // DAG never overlap.
    regionClass_.assign(prog_.regions.size(), 0);
    if (prog_.sequential) {
        for (size_t r = 0; r < prog_.regions.size(); ++r)
            regionClass_[r] = static_cast<int>(r);
    } else {
        for (size_t r = 0; r < prog_.regions.size(); ++r) {
            int depth = 0;
            for (int dep : prog_.regions[r].dependsOn)
                depth = std::max(depth, regionClass_[dep] + 1);
            regionClass_[r] = depth;
        }
    }
    buildStaticTables();
    landmarks_ = opts_.landmarks
        ? opts_.landmarks
        : landmarksFor(adg_, SchedOptions::routeBaseCost,
                       SchedOptions::routePePassCost);
}

void
SpatialScheduler::buildTimingPlans()
{
    // The DFG never changes for the scheduler's lifetime, so each
    // region's timing walk is fixed up front: computeRegionTiming runs
    // on every candidate probe and then reads only these flat arrays.
    const size_t nr = prog_.regions.size();
    timingPlan_.assign(nr, {});
    opBase_.assign(nr, {});
    for (size_t r = 0; r < nr; ++r) {
        const dfg::Dfg &dfg = prog_.regions[r].dfg;
        auto &base = opBase_[r];
        base.assign(static_cast<size_t>(dfg.numVertices()) + 1, 0);
        for (VertexId v = 0; v < dfg.numVertices(); ++v)
            base[v + 1] =
                base[v] + static_cast<int>(dfg.vertex(v).operands.size());
        TimingPlan &plan = timingPlan_[r];
        for (VertexId v : dfg.topoOrder()) {
            const Vertex &vx = dfg.vertex(v);
            if (vx.kind == VertexKind::InputPort)
                continue; // arrives at time 0
            TimingPlan::Step st;
            st.v = v;
            st.isInstruction = vx.kind == VertexKind::Instruction;
            st.latency = st.isInstruction ? opInfo(vx.op).latency : 0;
            st.opBegin = static_cast<int>(plan.ops.size());
            for (size_t i = 0; i < vx.operands.size(); ++i)
                if (!vx.operands[i].isImm())
                    plan.ops.push_back(
                        {vx.operands[i].src,
                         base[v] + static_cast<int>(i)});
            st.opEnd = static_cast<int>(plan.ops.size());
            if (vx.isAccumulate())
                plan.accLat = std::max(plan.accLat, st.latency);
            plan.steps.push_back(st);
        }
    }
}

void
SpatialScheduler::buildSlots()
{
    slots_.clear();
    for (size_t r = 0; r < prog_.regions.size(); ++r) {
        const Region &reg = prog_.regions[r];
        if (reg.serialized)
            continue;
        for (VertexId v : reg.dfg.inputPorts())
            slots_.push_back({static_cast<int>(r), false, v, -1});
        // Instructions in topological order.
        for (const TimingPlan::Step &st : timingPlan_[r].steps)
            if (st.isInstruction)
                slots_.push_back({static_cast<int>(r), false, st.v, -1});
        for (VertexId v : reg.dfg.outputPorts())
            slots_.push_back({static_cast<int>(r), false, v, -1});
    }
    for (size_t r = 0; r < prog_.regions.size(); ++r) {
        const Region &reg = prog_.regions[r];
        if (reg.serialized)
            continue;
        for (const Stream &st : reg.streams)
            if (st.touchesMemory())
                slots_.push_back({static_cast<int>(r), true,
                                  dfg::kInvalidVertex, st.id});
    }
}

void
SpatialScheduler::buildStaticTables()
{
    // Distinct config groups + a dense index per region.
    configGroups_.clear();
    for (const auto &reg : prog_.regions)
        configGroups_.push_back(reg.configGroup);
    std::sort(configGroups_.begin(), configGroups_.end());
    configGroups_.erase(
        std::unique(configGroups_.begin(), configGroups_.end()),
        configGroups_.end());
    regionGroupIdx_.resize(prog_.regions.size());
    for (size_t r = 0; r < prog_.regions.size(); ++r)
        regionGroupIdx_[r] = static_cast<int>(
            std::lower_bound(configGroups_.begin(), configGroups_.end(),
                             prog_.regions[r].configGroup) -
            configGroups_.begin());
    numClasses_ = 1;
    for (int c : regionClass_)
        numClasses_ = std::max(numClasses_, c + 1);

    // Per-edge capacity and link-II participation (hardware is fixed
    // for the scheduler's lifetime; DSE builds a fresh scheduler per
    // candidate ADG).
    edgeCap_.assign(adg_.edgeIdBound(), 1);
    edgeLinkIi_.assign(adg_.edgeIdBound(), 0);
    auto dynSwitch = [&](NodeId n) {
        return adg_.node(n).kind == NodeKind::Switch &&
               adg_.node(n).sw().sched == Scheduling::Dynamic;
    };
    for (EdgeId e : adg_.aliveEdges()) {
        const auto &edge = adg_.edge(e);
        auto endKind = [&](NodeId n) { return adg_.node(n).kind; };
        bool busSide = endKind(edge.src) == NodeKind::Sync ||
                       endKind(edge.src) == NodeKind::Memory ||
                       endKind(edge.dst) == NodeKind::Sync ||
                       endKind(edge.dst) == NodeKind::Memory;
        // Flow-controlled (dynamic-switch) links may time-multiplex
        // two values, at the cost of initiation interval.
        int cap = busSide ? 4
            : (dynSwitch(edge.src) || dynSwitch(edge.dst)) ? 2 : 1;
        edgeCap_[e] = cap;
        edgeLinkIi_[e] = !busSide && cap == 2;
    }

    peCap_.assign(adg_.nodeIdBound(), 1);
    peShared_.assign(adg_.nodeIdBound(), 0);
    syncCap_.assign(adg_.nodeIdBound(), 0);
    memCap_.assign(adg_.nodeIdBound(), 0);
    for (NodeId n : adg_.aliveNodes(NodeKind::Pe)) {
        const auto &pe = adg_.node(n).pe();
        peShared_[n] = pe.sharing == Sharing::Shared;
        peCap_[n] = (peShared_[n] && opts_.allowShared) ? pe.maxInsts : 1;
    }
    for (NodeId n : adg_.aliveNodes(NodeKind::Sync))
        syncCap_[n] = adg_.node(n).sync().lanes;
    for (NodeId n : adg_.aliveNodes(NodeKind::Memory))
        memCap_[n] = adg_.node(n).mem().numStreamEngines;

    // Routing flags: which nodes may forward a value of each flow
    // kind, folded into one byte so the search inner loop tests a
    // mask instead of chasing node records. Dead nodes keep 0, which
    // doubles as the liveness check (out-edge lists only reference
    // live endpoints, but a DSE mutation can race a stale schedule).
    nodeFlags_.assign(adg_.nodeIdBound(), 0);
    for (NodeId n : adg_.aliveNodes()) {
        const AdgNode &node = adg_.node(n);
        // kAlive marks every live node (Sync/Memory carry no pass
        // bits yet are legal route *targets*, which the untargeted
        // SSSP build must relax into).
        uint8_t f = kAlive;
        switch (node.kind) {
          case NodeKind::Switch:
            // Static flows traverse any switch; dynamic flows need
            // flow control.
            f |= kPassStatic;
            if (node.sw().sched == Scheduling::Dynamic)
                f |= kPassDyn;
            break;
          case NodeKind::Delay:
            f |= kPassStatic;
            break;
          case NodeKind::Pe:
            // PEs forward values with a Pass instruction (e.g.
            // through a reduction tree), protocol matched to the
            // flow; this occupies a slot, which the evaluator
            // charges via the pass cost below.
            f |= kIsPe;
            f |= node.pe().sched == Scheduling::Dynamic ? kPeDyn
                                                        : kPeStatic;
            if (node.pe().ops.contains(OpCode::Pass))
                f |= node.pe().sched == Scheduling::Dynamic
                    ? kPassDyn
                    : kPassStatic;
            break;
          default:
            break;
        }
        nodeFlags_[n] = f;
    }
    edgeSrc_.assign(adg_.edgeIdBound(), kInvalidNode);
    edgeDst_.assign(adg_.edgeIdBound(), kInvalidNode);
    for (EdgeId e : adg_.aliveEdges()) {
        edgeSrc_[e] = adg_.edge(e).src;
        edgeDst_[e] = adg_.edge(e).dst;
    }

    tracker_.init(prog_, adg_, regionGroupIdx_,
                  static_cast<int>(configGroups_.size()), regionClass_,
                  numClasses_);
    timing_.assign(prog_.regions.size(), {});
    timingDirty_.assign(prog_.regions.size(), 1);
    nodeShortfall_.assign(adg_.nodeIdBound(), 0);

    dist_.assign(adg_.nodeIdBound(), 0.0);
    via_.assign(adg_.nodeIdBound(), adg::kInvalidEdge);
    nodeStamp_.assign(adg_.nodeIdBound(), 0);
    hVal_.assign(adg_.nodeIdBound(), 0.0);
    predG_.assign(adg_.nodeIdBound(), 0.0);
    heap_.reserve(64);
    sssp_.assign(kSsspSlots, SsspEntry{});
    rev_.assign(kRevSlots, RevEntry{});
    shortfallScratch_.assign(adg_.nodeIdBound(), 0);
    shortfallAdj_.assign(adg_.nodeIdBound(), 0);
    adjStamp_.assign(adg_.nodeIdBound(), 0);
}

bool
SpatialScheduler::nodeIsDynamicPe(NodeId n) const
{
    // nodeFlags_ is 0 for dead nodes, so one mask test covers
    // liveness, kind, and protocol (hot on every routed value).
    return n != kInvalidNode && (nodeFlags_[n] & kPeDyn);
}

bool
SpatialScheduler::nodeIsStaticPe(NodeId n) const
{
    return n != kInvalidNode && (nodeFlags_[n] & kPeStatic);
}

std::vector<NodeId>
SpatialScheduler::candidatesFor(const Slot &slot, const Schedule &s) const
{
    std::vector<NodeId> out;
    const Region &reg = prog_.regions[slot.region];
    if (slot.isStream) {
        const Stream &st = reg.streams[slot.streamId];
        // The stream binds to a memory adjacent to its port's sync.
        VertexId portV =
            (st.kind == StreamKind::IndirectWrite ||
             st.kind == StreamKind::AtomicUpdate) ? st.valuePort : st.port;
        NodeId sync = s.regions[slot.region].vertexMap[portV];
        if (sync == kInvalidNode)
            return out;
        bool isRead = st.feedsInput();
        for (NodeId m : adg_.aliveNodes(NodeKind::Memory)) {
            const auto &mem = adg_.node(m).mem();
            bool spaceOk =
                (st.space == dfg::MemSpace::Main) ==
                (mem.kind == adg::MemKind::Main);
            if (!spaceOk)
                continue;
            if (!st.scalarFallback) {
                if (st.needsIndirect() && !mem.indirect)
                    continue;
                if (st.needsAtomic() && !mem.atomicUpdate)
                    continue;
                if (!st.needsIndirect() && !mem.linear)
                    continue;
            }
            EdgeId e = isRead ? adg_.findEdge(m, sync)
                              : adg_.findEdge(sync, m);
            if (e != adg::kInvalidEdge)
                out.push_back(m);
        }
        return out;
    }

    const Vertex &v = reg.dfg.vertex(slot.vertex);
    switch (v.kind) {
      case VertexKind::InputPort:
        for (NodeId n : adg_.aliveNodes(NodeKind::Sync)) {
            const auto &sy = adg_.node(n).sync();
            if (sy.dir == SyncDir::Input && sy.lanes >= v.lanes)
                out.push_back(n);
        }
        break;
      case VertexKind::OutputPort:
        for (NodeId n : adg_.aliveNodes(NodeKind::Sync)) {
            const auto &sy = adg_.node(n).sync();
            if (sy.dir == SyncDir::Output && sy.lanes >= v.lanes)
                out.push_back(n);
        }
        break;
      case VertexKind::Instruction:
        for (NodeId n : adg_.aliveNodes(NodeKind::Pe)) {
            const auto &pe = adg_.node(n).pe();
            if (!pe.ops.contains(v.op))
                continue;
            if (v.widthBits > pe.datapathBits)
                continue;
            if (v.ctrl.active() &&
                (pe.sched != Scheduling::Dynamic || !pe.streamJoin))
                continue;
            if (pe.sharing == Sharing::Shared && !opts_.allowShared)
                continue;
            out.push_back(n);
        }
        break;
    }
    return out;
}

namespace {

/**
 * Min-heap order on (f, node id) for std::push_heap/pop_heap. A
 * functor (not a function) so the comparison inlines into the heap
 * algorithms instead of going through a function pointer.
 */
struct HeapAfter
{
    bool operator()(const SpatialScheduler::HeapEntry &a,
                    const SpatialScheduler::HeapEntry &b) const
    {
        return a.f != b.f ? a.f > b.f : a.n > b.n;
    }
};

/** Distance of a node no search has reached. */
constexpr double kInf = 1e18;

} // namespace

inline double
SpatialScheduler::edgeCost(int group, EdgeId e, const ValueKey &value) const
{
    int used = tracker_.distinctOnEdge(group, e);
    if (used == 0)
        return SchedOptions::routeBaseCost;
    return tracker_.valueOnEdge(group, e, value)
        ? SchedOptions::routeReuseCost
        : SchedOptions::routeBaseCost +
              SchedOptions::routeCongestSlope * used;
}

Route
SpatialScheduler::dijkstra(const Schedule &s, NodeId from, NodeId to,
                           bool dynFlow, const ValueKey &value,
                           int group) const
{
    // Reference mode recomputes usage from the schedule at every use
    // point, exactly like the historical edgeUsage() rebuild.
    if (!opts_.incremental)
        tracker_.rebuild(s);
    ++stats_.routeCalls;

    // First layer: the exact route cache. The tracker's content hash
    // pins the group's entire edge-usage state, so a matching entry
    // would be recomputed identically; the hash returns
    // to prior values when the state does (probe place/unplace round
    // trips, stalled annealing), which is where the hits come from.
    uint64_t stateHash = tracker_.routeStateHash(group);
    RouteCache::Key key{from, to, value, group, dynFlow};
    bool stale = false;
    Route out;
    const Route *hit = routeCache_.find(key, stateHash, &stale);
    if (hit) {
        ++stats_.cacheHits;
        out = *hit;
    } else {
        ++(stale ? stats_.cacheStale : stats_.cacheMisses);
        // Second layer: the candidate scan asks for many targets from
        // one (source, value) under one usage state. The first such
        // query runs targeted A*; the second invests in one full SSSP
        // tree; every further target is a pure backtrack.
        SsspKey skey{from, value, group, dynFlow};
        SsspEntry &se =
            sssp_[SsspKeyHash{}(skey) & (kSsspSlots - 1)];
        if (se.seen && se.key == skey && se.stateHash == stateHash) {
            if (!se.full)
                buildSsspTree(from, dynFlow, value, group, &se);
            else
                ++stats_.ssspHits;
            if (se.dist[to] < kInf)
                out = backtrack(se.via.data(), from, to);
        } else {
            se.key = skey;
            se.stateHash = stateHash;
            se.seen = true;
            se.full = false;
            // Third layer, mirrored from the target side: many
            // sources route into one (target, value) under one usage
            // state. The second such query builds an exact reverse
            // distance table; every further one runs A* under that
            // perfect heuristic (expands only optimal-path nodes).
            SsspKey rkey{to, value, group, dynFlow};
            RevEntry &re =
                rev_[SsspKeyHash{}(rkey) & (kRevSlots - 1)];
            if (re.seen && re.key == rkey &&
                re.stateHash == stateHash) {
                if (!re.full)
                    buildReverseDist(to, dynFlow, value, group, &re);
                else
                    ++stats_.revHits;
                out = searchAstar(from, to, dynFlow, value, group,
                                  re.dist.data());
            } else {
                re.key = rkey;
                re.stateHash = stateHash;
                re.seen = true;
                re.full = false;
                out = searchAstar(from, to, dynFlow, value, group);
            }
        }
        routeCache_.store(key, stateHash, out);
    }
    if (opts_.checkRoutes) {
        Route ref = searchDijkstra(from, to, dynFlow, value, group);
        DSA_ASSERT(out == ref,
                   "route fast path diverged from Dijkstra (", from,
                   " -> ", to, ")");
    }
    return out;
}

Route
SpatialScheduler::searchDijkstra(NodeId from, NodeId to, bool dynFlow,
                                 const ValueKey &value, int group) const
{
    ++stats_.dijkstraSearches;
    // Usage-penalized shortest path allowing only protocol-compatible
    // switches (and delay elements for static flows) as intermediates.
    // dist_/via_ are epoch-stamped: a slot is live only if its stamp
    // matches the current epoch, so no O(nodes) clear per call.
    if (++dijkstraEpoch_ == 0) {
        std::fill(nodeStamp_.begin(), nodeStamp_.end(), 0);
        dijkstraEpoch_ = 1;
    }
    auto touch = [&](NodeId n) {
        if (nodeStamp_[n] != dijkstraEpoch_) {
            nodeStamp_[n] = dijkstraEpoch_;
            dist_[n] = kInf;
            via_[n] = adg::kInvalidEdge;
        }
    };
    const uint8_t passMask = dynFlow ? kPassDyn : kPassStatic;
    heap_.clear();
    touch(from);
    dist_[from] = 0;
    heap_.push_back({0, 0, from});
    while (!heap_.empty()) {
        HeapEntry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
        heap_.pop_back();
        NodeId n = top.n;
        if (top.f > dist_[n])
            continue;
        if (n == to)
            break;
        ++stats_.nodesExpanded;
        for (EdgeId e : adg_.outEdges(n)) {
            NodeId m = edgeDst_[e];
            // nodeFlags_ is 0 for dead nodes, so the mask test covers
            // the historical liveness check too.
            if (m != to && !(nodeFlags_[m] & passMask))
                continue;
            double c = edgeCost(group, e, value);
            // Passing through a PE burns an instruction slot.
            if (m != to && (nodeFlags_[m] & kIsPe))
                c += SchedOptions::routePePassCost;
            touch(m);
            if (dist_[n] + c < dist_[m]) {
                dist_[m] = dist_[n] + c;
                via_[m] = e;
                heap_.push_back({dist_[m], dist_[m], m});
                std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
            }
        }
    }
    if (nodeStamp_[to] != dijkstraEpoch_ || dist_[to] >= kInf)
        return {};
    return backtrack(via_.data(), from, to);
}

Route
SpatialScheduler::searchAstar(NodeId from, NodeId to, bool dynFlow,
                              const ValueKey &value, int group,
                              const double *exactH) const
{
    // Landmark-guided A* returning the *same canonical route* as
    // searchDijkstra for the same usage state. Dijkstra's via tree is
    // a pure function of the cost function: its pop order is globally
    // sorted by (dist, node id) and every edge cost is >= 0.01, so
    // via_[m] ends up being the edge from the achiever predecessor
    // minimizing (dist[n], n) (first minimal-cost edge in scan order
    // within one predecessor). A* reproduces exactly that via an
    // explicit tie-break on g-equality instead of relying on pop
    // order, and keeps popping until the best f in the heap strictly
    // exceeds g[to] so every achiever (all have f <= g[to] under an
    // admissible heuristic) relaxes before it stops. g accumulates
    // through the identical additions, so values match bit-for-bit.
    //
    // The heuristic may be inconsistent under the dynamic costs (the
    // reuse discount prices an edge below the static metric), so a
    // popped node reopens when its g later improves — handled by the
    // same lazy re-push discipline Dijkstra already uses.
    const double kCut = LandmarkTable::kUnreach / 2;
    const LandmarkTable &lm = *landmarks_;

    // Query-time admissibility corrections (see landmarks.h): the
    // router waives the pass surcharge on the target PE itself, and a
    // route for this value may collect the reuse discount on every
    // edge already carrying it. An exact reverse-distance heuristic
    // needs neither correction — it already prices both.
    double corr = 0.0;
    if (!exactH) {
        corr = (nodeFlags_[to] & kIsPe) ? SchedOptions::routePePassCost
                                        : 0.0;
        corr += std::max(0.0, (SchedOptions::routeBaseCost -
                               SchedOptions::routeReuseCost) *
                                  tracker_.edgesCarrying(group, value));
        // A value already spread across many edges discounts the bound
        // to zero at every reachable node; A* would just be Dijkstra
        // paying a landmark scan per touch, so run the real thing
        // instead (same canonical route — see the equivalence argument
        // below).
        if (corr >= lm.maxFiniteBound())
            return searchDijkstra(from, to, dynFlow, value, group);
    }
    ++stats_.astarSearches;

    if (++dijkstraEpoch_ == 0) {
        std::fill(nodeStamp_.begin(), nodeStamp_.end(), 0);
        dijkstraEpoch_ = 1;
    }
    auto touch = [&](NodeId n) {
        if (nodeStamp_[n] != dijkstraEpoch_) {
            nodeStamp_[n] = dijkstraEpoch_;
            dist_[n] = kInf;
            via_[n] = adg::kInvalidEdge;
            predG_[n] = kInf;
            double lb = exactH ? exactH[n] : lm.lowerBound(n, to);
            hVal_[n] = lb >= kCut ? LandmarkTable::kUnreach
                                  : std::max(0.0, lb - corr);
        }
    };
    const uint8_t passMask = dynFlow ? kPassDyn : kPassStatic;
    touch(from);
    // The metric underlying the landmarks runs over a superset of the
    // passable edges, so metric-unreachable implies truly unreachable:
    // an early exact no-route answer, and below, pruning of any
    // neighbor that provably cannot reach the target (nothing beyond
    // it can either, or it would give the neighbor a path).
    if (hVal_[from] >= kCut)
        return {};
    dist_[from] = 0;
    heap_.clear();
    heap_.push_back({hVal_[from], 0, from});
    while (!heap_.empty()) {
        HeapEntry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
        heap_.pop_back();
        double gTo =
            nodeStamp_[to] == dijkstraEpoch_ ? dist_[to] : kInf;
        if (top.f > gTo)
            break;
        NodeId n = top.n;
        if (top.g != dist_[n])
            continue; // stale duplicate
        if (n == to)
            continue; // the target never expands (mirrors Dijkstra)
        ++stats_.nodesExpanded;
        for (EdgeId e : adg_.outEdges(n)) {
            NodeId m = edgeDst_[e];
            if (m != to && !(nodeFlags_[m] & passMask))
                continue;
            double c = edgeCost(group, e, value);
            if (m != to && (nodeFlags_[m] & kIsPe))
                c += SchedOptions::routePePassCost;
            touch(m);
            if (hVal_[m] >= kCut)
                continue;
            double cand = dist_[n] + c;
            if (cand < dist_[m]) {
                dist_[m] = cand;
                via_[m] = e;
                predG_[m] = top.g;
                heap_.push_back({cand + hVal_[m], cand, m});
                std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
            } else if (cand == dist_[m]) {
                // Canonical tie-break: the achiever minimizing
                // (g, node id); within one predecessor the first
                // minimal-cost edge in scan order (keep the stored
                // edge on full ties). Matches Dijkstra's pop-order
                // outcome without depending on ours.
                NodeId pred = via_[m] == adg::kInvalidEdge
                    ? kInvalidNode
                    : edgeSrc_[via_[m]];
                if (top.g < predG_[m] ||
                    (top.g == predG_[m] && n < pred)) {
                    via_[m] = e;
                    predG_[m] = top.g;
                }
            }
        }
    }
    if (nodeStamp_[to] != dijkstraEpoch_ || dist_[to] >= kInf)
        return {};
    return backtrack(via_.data(), from, to);
}

void
SpatialScheduler::buildSsspTree(NodeId from, bool dynFlow,
                                const ValueKey &value, int group,
                                SsspEntry *entry) const
{
    // Untargeted Dijkstra whose via tree answers *every* target from
    // @p from exactly as a targeted search would:
    //  - every node on a target t's path pops strictly before t, so
    //    its via edge is final by then and relaxations the full run
    //    performs later cannot disturb it (non-negative edge costs,
    //    strict-improvement updates only);
    //  - the targeted search's waiver of the PE pass surcharge on t
    //    itself is a constant added to *all* edges entering t here,
    //    shifting every accept/reject and tie comparison equally, so
    //    via_[t] comes out identical (only dist[t] differs, and the
    //    route doesn't return it);
    //  - non-passable nodes (Sync, Memory, protocol-mismatched
    //    switches/PEs) are relaxed into — they are legal targets —
    //    but never expanded, exactly like the targeted runs.
    // The search relaxes straight into the slot's arrays (reusing
    // their capacity), so the tree needs no scratch copy.
    ++stats_.ssspBuilds;
    const size_t bound = nodeStamp_.size();
    entry->dist.assign(bound, kInf);
    entry->via.assign(bound, adg::kInvalidEdge);
    double *dist = entry->dist.data();
    EdgeId *via = entry->via.data();
    const uint8_t passMask = dynFlow ? kPassDyn : kPassStatic;
    heap_.clear();
    dist[from] = 0;
    heap_.push_back({0, 0, from});
    while (!heap_.empty()) {
        HeapEntry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
        heap_.pop_back();
        NodeId n = top.n;
        if (top.f > dist[n])
            continue;
        if (n != from && !(nodeFlags_[n] & passMask))
            continue; // reachable as a target only — never expands
        ++stats_.nodesExpanded;
        for (EdgeId e : adg_.outEdges(n)) {
            NodeId m = edgeDst_[e];
            if (!(nodeFlags_[m] & kAlive))
                continue;
            double c = edgeCost(group, e, value);
            if (nodeFlags_[m] & kIsPe)
                c += SchedOptions::routePePassCost;
            if (dist[n] + c < dist[m]) {
                dist[m] = dist[n] + c;
                via[m] = e;
                heap_.push_back({dist[m], dist[m], m});
                std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
            }
        }
    }
    entry->full = true;
}

void
SpatialScheduler::buildReverseDist(NodeId to, bool dynFlow,
                                   const ValueKey &value, int group,
                                   RevEntry *entry) const
{
    // Reverse Dijkstra rooted at @p to over the in-edge adjacency,
    // accumulating the *targeted* search's exact edge costs (the pass
    // surcharge waiver on @p to falls out naturally: edges into the
    // root take no surcharge). Expansion is restricted to passable
    // nodes — paths may only tunnel through protocol-compatible
    // intermediates — while any alive node is relaxed *into*, since
    // any node can be a route source (sources are exempt from the
    // passability check, just like targets are in the forward runs).
    // The result: dist[n] is the exact optimal n -> to cost, kInf when
    // unreachable, making it both an admissible heuristic and an exact
    // unreachability oracle for searchAstar.
    ++stats_.revBuilds;
    entry->dist.assign(nodeStamp_.size(), kInf);
    auto &dist = entry->dist;
    const uint8_t passMask = dynFlow ? kPassDyn : kPassStatic;
    heap_.clear();
    dist[to] = 0;
    heap_.push_back({0, 0, to});
    while (!heap_.empty()) {
        HeapEntry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
        heap_.pop_back();
        NodeId m = top.n;
        if (top.f > dist[m])
            continue;
        if (m != to && !(nodeFlags_[m] & passMask))
            continue; // a source only — paths never pass through it
        ++stats_.nodesExpanded;
        for (EdgeId e : adg_.inEdges(m)) {
            NodeId u = edgeSrc_[e];
            if (!(nodeFlags_[u] & kAlive))
                continue;
            double c = edgeCost(group, e, value);
            if (m != to && (nodeFlags_[m] & kIsPe))
                c += SchedOptions::routePePassCost;
            double nd = dist[m] + c;
            if (nd < dist[u]) {
                dist[u] = nd;
                heap_.push_back({nd, nd, u});
                std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
            }
        }
    }
    entry->full = true;
}

size_t
SpatialScheduler::SsspKeyHash::operator()(const SsspKey &k) const
{
    uint64_t h = splitmix64(static_cast<uint64_t>(k.from) |
                            (static_cast<uint64_t>(k.group) << 40) |
                            (static_cast<uint64_t>(k.dynFlow) << 63));
    h = splitmix64(h ^ (static_cast<uint64_t>(k.value.first) |
                        (static_cast<uint64_t>(k.value.second) << 32)));
    return static_cast<size_t>(h);
}

Route
SpatialScheduler::backtrack(const EdgeId *via, NodeId from, NodeId to) const
{
    size_t len = 0;
    for (NodeId cur = to; cur != from;) {
        EdgeId e = via[cur];
        DSA_ASSERT(e != adg::kInvalidEdge, "broken route backtrack");
        ++len;
        cur = edgeSrc_[e];
    }
    Route route(len);
    NodeId cur = to;
    for (size_t i = len; i-- > 0;) {
        EdgeId e = via[cur];
        route[i] = e;
        cur = edgeSrc_[e];
    }
    return route;
}

Route
SpatialScheduler::routeValue(const Schedule &s, int region,
                             VertexId producer, NodeId from,
                             NodeId to) const
{
    bool dynFlow = nodeIsDynamicPe(from) || nodeIsDynamicPe(to);
    return dijkstra(s, from, to, dynFlow, {region, producer},
                    regionGroupIdx_[region]);
}

void
SpatialScheduler::setValueRoute(Schedule &s, int region,
                                std::pair<VertexId, int> key,
                                Route route) const
{
    auto &rs = s.regions[region];
    auto it = rs.routes.find(key);
    if (opts_.incremental) {
        const Region &reg = prog_.regions[region];
        ValueKey val{region,
                     reg.dfg.vertex(key.first).operands[key.second].src};
        if (it != rs.routes.end())
            tracker_.removeRoute(region, val, it->second, true);
        tracker_.addRoute(region, val, route, true);
        routeLen_[region][opSlot(region, key.first, key.second)] =
            static_cast<int>(route.size());
        timingDirty_[region] = 1;
    }
    if (it != rs.routes.end())
        it->second = std::move(route);
    else
        rs.routes.emplace(key, std::move(route));
}

void
SpatialScheduler::setRecurrenceRoute(Schedule &s, int region, int sid,
                                     Route route) const
{
    auto &rs = s.regions[region];
    DSA_ASSERT(!rs.recurrenceRoutes.count(sid),
               "recurrence route already present for stream ", sid);
    if (opts_.incremental) {
        tracker_.addRoute(
            region, {region, prog_.regions[region].streams[sid].srcPort},
            route, true);
        timingDirty_[region] = 1;
    }
    rs.recurrenceRoutes.emplace(sid, std::move(route));
}

void
SpatialScheduler::setForwardRoute(Schedule &s, int fi, Route route) const
{
    DSA_ASSERT(!s.forwardRoutes.count(fi),
               "forward route already present for forward ", fi);
    if (opts_.incremental) {
        // Forwards charge the source region's group and never affect
        // region-local timing.
        const auto &f = prog_.forwards[fi];
        tracker_.addRoute(f.srcRegion, {f.srcRegion, f.srcPort}, route,
                          false);
    }
    s.forwardRoutes.emplace(fi, std::move(route));
}

void
SpatialScheduler::place(Schedule &s, const Slot &slot, NodeId node) const
{
    auto &rs = s.regions[slot.region];
    if (slot.isStream) {
        rs.streamMap[slot.streamId] = node;
        if (opts_.incremental && node != kInvalidNode)
            tracker_.bindStream(slot.region, node, +1);
        return;
    }
    const Region &reg = prog_.regions[slot.region];
    VertexId v = slot.vertex;
    rs.vertexMap[v] = node;
    const Vertex &vx = reg.dfg.vertex(v);
    if (opts_.incremental) {
        if (vx.kind == VertexKind::Instruction)
            tracker_.mapInstruction(slot.region, node, +1);
        else
            tracker_.mapPort(slot.region, node, vx.lanes, +1);
        timingDirty_[slot.region] = 1;
    }
    // Compute every new route against the usage state at entry, then
    // insert them all. Routing against the snapshot (rather than
    // letting each fresh route see its predecessors') keeps one
    // placement's queries under a single usage state, which is what
    // lets the SSSP/reverse-distance layers amortize a candidate
    // scan: every candidate's operand routes share (source, value,
    // state) and its consumer routes share (target, value, state).
    // The congestion the routes create is still priced — the
    // evaluator charges overuse after insertion — they just don't
    // dodge each other within one placement.
    auto &fresh = placeScratch_;
    fresh.clear();
    // Operands from mapped producers.
    for (size_t i = 0; i < vx.operands.size(); ++i) {
        const auto &op = vx.operands[i];
        if (op.isImm())
            continue;
        NodeId from = rs.vertexMap[op.src];
        if (from == kInvalidNode)
            continue;
        Route r = routeValue(s, slot.region, op.src, from, node);
        if (!r.empty())
            fresh.push_back({{v, static_cast<int>(i)}, std::move(r)});
    }
    // Uses by mapped consumers.
    for (const auto &use : reg.dfg.uses(v)) {
        NodeId to = rs.vertexMap[use.user];
        if (to == kInvalidNode)
            continue;
        Route r = routeValue(s, slot.region, v, node, to);
        if (!r.empty())
            fresh.push_back({{use.user, use.operandIdx}, std::move(r)});
    }
    for (auto &[key, r] : fresh)
        setValueRoute(s, slot.region, key, std::move(r));
}

void
SpatialScheduler::unplace(Schedule &s, const Slot &slot) const
{
    auto &rs = s.regions[slot.region];
    const bool inc = opts_.incremental;
    if (slot.isStream) {
        NodeId old = rs.streamMap[slot.streamId];
        rs.streamMap[slot.streamId] = kInvalidNode;
        if (inc && old != kInvalidNode)
            tracker_.bindStream(slot.region, old, -1);
        return;
    }
    const Region &reg = prog_.regions[slot.region];
    VertexId v = slot.vertex;
    const Vertex &vx = reg.dfg.vertex(v);
    NodeId old = rs.vertexMap[v];
    rs.vertexMap[v] = kInvalidNode;
    if (inc) {
        if (old != kInvalidNode) {
            if (vx.kind == VertexKind::Instruction)
                tracker_.mapInstruction(slot.region, old, -1);
            else
                tracker_.mapPort(slot.region, old, vx.lanes, -1);
        }
        timingDirty_[slot.region] = 1;
    }
    // Routes into v: keyed (consumer, operand), so one key range.
    auto first = rs.routes.lower_bound({v, std::numeric_limits<int>::min()});
    auto last = first;
    for (; last != rs.routes.end() && last->first.first == v; ++last) {
        if (inc) {
            int i = last->first.second;
            tracker_.removeRoute(slot.region,
                                 {slot.region, vx.operands[i].src},
                                 last->second, true);
            routeLen_[slot.region][opSlot(slot.region, v, i)] = -1;
        }
    }
    rs.routes.erase(first, last);
    // Routes out of v.
    for (const auto &use : reg.dfg.uses(v)) {
        auto it = rs.routes.find({use.user, use.operandIdx});
        if (it == rs.routes.end())
            continue;
        if (inc) {
            tracker_.removeRoute(slot.region, {slot.region, v}, it->second,
                                 true);
            routeLen_[slot.region]
                     [opSlot(slot.region, use.user, use.operandIdx)] = -1;
        }
        rs.routes.erase(it);
    }
    // Specials touching v.
    for (auto it = rs.recurrenceRoutes.begin();
         it != rs.recurrenceRoutes.end();) {
        const Stream &st = reg.streams[it->first];
        if (st.srcPort == v || st.port == v) {
            if (inc)
                tracker_.removeRoute(slot.region,
                                     {slot.region, st.srcPort}, it->second,
                                     true);
            it = rs.recurrenceRoutes.erase(it);
        } else {
            ++it;
        }
    }
    for (auto it = s.forwardRoutes.begin(); it != s.forwardRoutes.end();) {
        const auto &f = prog_.forwards[it->first];
        bool touches = (f.srcRegion == slot.region && f.srcPort == v) ||
                       (f.dstRegion == slot.region && f.dstPort == v);
        if (touches) {
            if (inc)
                tracker_.removeRoute(f.srcRegion,
                                     {f.srcRegion, f.srcPort}, it->second,
                                     false);
            it = s.forwardRoutes.erase(it);
        } else {
            ++it;
        }
    }
    // Streams bound through this port lose their binding.
    if (vx.kind != VertexKind::Instruction) {
        for (const Stream &st : reg.streams) {
            if (!st.touchesMemory())
                continue;
            VertexId portV =
                (st.kind == StreamKind::IndirectWrite ||
                 st.kind == StreamKind::AtomicUpdate) ? st.valuePort
                                                      : st.port;
            if (portV != v)
                continue;
            if (inc && rs.streamMap[st.id] != kInvalidNode)
                tracker_.bindStream(slot.region, rs.streamMap[st.id], -1);
            rs.streamMap[st.id] = kInvalidNode;
        }
    }
}

void
SpatialScheduler::routeSpecials(Schedule &s) const
{
    for (size_t r = 0; r < prog_.regions.size(); ++r) {
        const Region &reg = prog_.regions[r];
        auto &rs = s.regions[r];
        if (rs.serialized)
            continue;
        for (const Stream &st : reg.streams) {
            if (st.kind != StreamKind::Recurrence)
                continue;
            if (rs.recurrenceRoutes.count(st.id))
                continue;
            NodeId from = rs.vertexMap[st.srcPort];
            NodeId to = rs.vertexMap[st.port];
            if (from == kInvalidNode || to == kInvalidNode)
                continue;
            Route route = dijkstra(s, from, to, false,
                                   {static_cast<int>(r), st.srcPort},
                                   regionGroupIdx_[r]);
            if (!route.empty())
                setRecurrenceRoute(s, static_cast<int>(r), st.id,
                                   std::move(route));
        }
    }
    for (size_t fi = 0; fi < prog_.forwards.size(); ++fi) {
        const auto &f = prog_.forwards[fi];
        if (f.viaMemory || s.forwardRoutes.count(static_cast<int>(fi)))
            continue;
        NodeId from = s.regions[f.srcRegion].vertexMap[f.srcPort];
        NodeId to = s.regions[f.dstRegion].vertexMap[f.dstPort];
        if (from == kInvalidNode || to == kInvalidNode)
            continue;
        Route route = dijkstra(s, from, to, false, {f.srcRegion, f.srcPort},
                               regionGroupIdx_[f.srcRegion]);
        if (!route.empty())
            setForwardRoute(s, static_cast<int>(fi), std::move(route));
    }
}

SpatialScheduler::RouteLens
SpatialScheduler::routeLensOf(const Schedule &s) const
{
    RouteLens lens(prog_.regions.size());
    for (size_t r = 0; r < prog_.regions.size(); ++r) {
        const auto &base = opBase_[r];
        lens[r].assign(static_cast<size_t>(base.back()), -1);
        for (const auto &[key, route] : s.regions[r].routes) {
            const auto [v, i] = key;
            DSA_ASSERT(v >= 0 && static_cast<size_t>(v) + 1 < base.size() &&
                           i >= 0 && i < base[v + 1] - base[v],
                       "route key (", v, ", ", i, ") names no operand");
            lens[r][static_cast<size_t>(base[v] + i)] =
                static_cast<int>(route.size());
        }
    }
    return lens;
}

void
SpatialScheduler::computeRegionTiming(const Schedule &s, size_t r,
                                      const int *lens,
                                      std::vector<int> &vertexTime,
                                      std::vector<int> &shortfallScratch,
                                      RegionTiming &out) const
{
    const TimingPlan &plan = timingPlan_[r];
    const auto &rs = s.regions[r];
    // Fully consumed before returning, so sharing one buffer across
    // the oracle and the hot path is safe (calls never interleave).
    std::vector<NodeId> &touched = timingTouched_;
    touched.clear();
    vertexTime.assign(
        static_cast<size_t>(prog_.regions[r].dfg.numVertices()), 0);
    // A missing route (length -1) adds no latency.
    auto arrival = [&](const TimingPlan::Operand &op) {
        return vertexTime[op.src] + std::max(0, lens[op.slot]);
    };
    for (const TimingPlan::Step &st : plan.steps) {
        const TimingPlan::Operand *ob = plan.ops.data() + st.opBegin;
        const TimingPlan::Operand *oe = plan.ops.data() + st.opEnd;
        int maxArr = 0;
        for (const auto *op = ob; op != oe; ++op)
            maxArr = std::max(maxArr, arrival(*op));
        NodeId n = st.isInstruction ? rs.vertexMap[st.v] : kInvalidNode;
        // Static dedicated PEs must absorb operand skew in their delay
        // FIFOs; the shortfall costs throughput.
        if (nodeIsStaticPe(n)) {
            int depth = adg_.node(n).pe().delayFifoDepth;
            for (const auto *op = ob; op != oe; ++op) {
                int need = maxArr - arrival(*op);
                if (need > depth) {
                    if (shortfallScratch[n] == 0)
                        touched.push_back(n);
                    shortfallScratch[n] += need - depth;
                }
            }
        }
        vertexTime[st.v] = maxArr + st.latency;
    }
    out.recLat = plan.accLat;
    for (const auto &[sid, route] : rs.recurrenceRoutes) {
        const Stream &st = prog_.regions[r].streams[sid];
        out.recLat = std::max(
            out.recLat,
            vertexTime[st.srcPort] + static_cast<int>(route.size()));
    }
    out.shortfall.clear();
    for (NodeId n : touched) {
        out.shortfall.push_back({n, shortfallScratch[n]});
        shortfallScratch[n] = 0;
    }
}

Cost
SpatialScheduler::assemble(const Schedule &s, const UsageTracker &t,
                           const RouteLens &lens,
                           const std::vector<RegionTiming> &timing,
                           const std::vector<int> &nodeShortfall,
                           int *linkIiOut) const
{
    Cost c;
    c.unplaced = s.countUnplaced(prog_);

    // Missing-but-needed routes count as unplaced work.
    for (size_t r = 0; r < prog_.regions.size(); ++r) {
        const Region &reg = prog_.regions[r];
        const auto &rs = s.regions[r];
        if (rs.serialized)
            continue;
        const std::vector<int> &len = lens[r];
        for (const auto &vx : reg.dfg.vertices()) {
            if (rs.vertexMap[vx.id] == kInvalidNode)
                continue;
            const int base = opBase_[r][vx.id];
            for (size_t i = 0; i < vx.operands.size(); ++i) {
                const auto &op = vx.operands[i];
                if (op.isImm())
                    continue;
                if (rs.vertexMap[op.src] == kInvalidNode)
                    continue;
                if (len[base + i] < 0)
                    ++c.unplaced;
            }
        }
        for (const Stream &st : reg.streams) {
            if (st.kind != StreamKind::Recurrence)
                continue;
            if (rs.vertexMap[st.srcPort] != kInvalidNode &&
                rs.vertexMap[st.port] != kInvalidNode &&
                !rs.recurrenceRoutes.count(st.id))
                ++c.unplaced;
        }
    }
    for (size_t fi = 0; fi < prog_.forwards.size(); ++fi) {
        const auto &f = prog_.forwards[fi];
        if (f.viaMemory)
            continue;
        if (s.regions[f.srcRegion].vertexMap[f.srcPort] != kInvalidNode &&
            s.regions[f.dstRegion].vertexMap[f.dstPort] != kInvalidNode &&
            !s.forwardRoutes.count(static_cast<int>(fi)))
            ++c.unplaced;
    }

    // Edge congestion, per configuration group (routes only contend
    // for wires within one config group).
    int linkIi = 1;
    for (const auto &[g, e] : t.activeEdges()) {
        int used = t.distinctOnEdge(g, e);
        if (edgeLinkIi_[e] && used > 1)
            linkIi = std::max(linkIi, used);
        c.overuse += std::max(0, used - edgeCap_[e]);
        c.wirelength += used;
    }

    // Node occupancy. Routes that tunnel through a PE occupy one of
    // its instruction slots with a Pass (charged per distinct value).
    for (const auto &[g, n] : t.activePes()) {
        int cnt = t.peInstCount(g, n) + t.pePassDistinct(g, n);
        c.overuse += std::max(0, cnt - peCap_[n]);
    }
    for (const auto &[g, n] : t.activeSyncs()) {
        // A sync element subdivides its vector lanes among ports.
        c.overuse += std::max(0, t.syncLaneCount(g, n) - syncCap_[n]);
    }
    for (const auto &[cls, n] : t.activeMems())
        c.overuse += std::max(0, t.memStreamCount(cls, n) - memCap_[n]);

    // Protocol violations: dynamic producer -> static consumer PE.
    for (size_t r = 0; r < prog_.regions.size(); ++r) {
        const Region &reg = prog_.regions[r];
        const auto &rs = s.regions[r];
        if (rs.serialized)
            continue;
        for (const auto &vx : reg.dfg.vertices()) {
            if (vx.kind != VertexKind::Instruction)
                continue;
            NodeId n = rs.vertexMap[vx.id];
            if (!nodeIsStaticPe(n))
                continue;
            for (const auto &op : vx.operands) {
                if (op.isImm())
                    continue;
                if (nodeIsDynamicPe(rs.vertexMap[op.src]))
                    ++c.violations;
            }
        }
    }

    // II and recurrence latency from the per-region timing summaries.
    for (const auto &rt : timing)
        c.recurrenceLatency = std::max(c.recurrenceLatency, rt.recLat);
    int maxIi = linkIi;
    for (const auto &[g, n] : t.activePes()) {
        int cnt = t.peInstCount(g, n) + t.pePassDistinct(g, n);
        int ii = (peShared_[n] ? cnt : 1) + nodeShortfall[n];
        maxIi = std::max(maxIi, ii);
    }
    c.maxIi = maxIi;
    if (linkIiOut)
        *linkIiOut = linkIi;
    return c;
}

Cost
SpatialScheduler::evaluate(const Schedule &s) const
{
    // From-scratch oracle: local tracker + local scratch, so this stays
    // re-entrant and independent of the scheduler's internal state.
    UsageTracker t;
    t.init(prog_, adg_, regionGroupIdx_,
           static_cast<int>(configGroups_.size()), regionClass_,
           numClasses_);
    t.rebuild(s);
    const RouteLens lens = routeLensOf(s);
    std::vector<RegionTiming> timing(prog_.regions.size());
    std::vector<int> nodeShortfall(adg_.nodeIdBound(), 0);
    std::vector<int> shortfallScratch(adg_.nodeIdBound(), 0);
    for (size_t r = 0; r < prog_.regions.size(); ++r) {
        // vertexTime is a derived annotation on the schedule; writing
        // it from the const evaluator is the historical behavior.
        auto &rs = const_cast<RegionSchedule &>(s.regions[r]);
        if (rs.serialized)
            continue;
        computeRegionTiming(s, r, lens[r].data(), rs.vertexTime,
                            shortfallScratch, timing[r]);
        for (const auto &[n, sh] : timing[r].shortfall)
            nodeShortfall[n] += sh;
    }
    return assemble(s, t, lens, timing, nodeShortfall, nullptr);
}

void
SpatialScheduler::bindTo(const Schedule &s) const
{
    tracker_.rebuild(s);
    routeLen_ = routeLensOf(s);
    timing_.assign(prog_.regions.size(), {});
    timingDirty_.assign(prog_.regions.size(), 1);
    std::fill(nodeShortfall_.begin(), nodeShortfall_.end(), 0);
}

void
SpatialScheduler::refreshTiming(const Schedule &s) const
{
    for (size_t r = 0; r < prog_.regions.size(); ++r) {
        if (!timingDirty_[r])
            continue;
        timingDirty_[r] = 0;
        for (const auto &[n, sh] : timing_[r].shortfall)
            nodeShortfall_[n] -= sh;
        auto &rs = const_cast<RegionSchedule &>(s.regions[r]);
        if (rs.serialized) {
            timing_[r] = {};
            continue;
        }
        computeRegionTiming(s, r, routeLen_[r].data(), rs.vertexTime,
                            shortfallScratch_, timing_[r]);
        for (const auto &[n, sh] : timing_[r].shortfall)
            nodeShortfall_[n] += sh;
    }
}

void
SpatialScheduler::verifyTracker(const Schedule &s) const
{
    UsageTracker fresh;
    fresh.init(prog_, adg_, regionGroupIdx_,
               static_cast<int>(configGroups_.size()), regionClass_,
               numClasses_);
    fresh.rebuild(s);
    std::string why;
    DSA_ASSERT(tracker_.equals(fresh, &why), "tracker drift: ", why);
    const RouteLens lens = routeLensOf(s);
    for (size_t r = 0; r < lens.size(); ++r)
        for (size_t k = 0; k < lens[r].size(); ++k)
            DSA_ASSERT(routeLen_[r][k] == lens[r][k],
                       "route-length drift: region ", r, " operand slot ",
                       k, " holds ", routeLen_[r][k], ", routes map says ",
                       lens[r][k]);
}

Cost
SpatialScheduler::evaluateTracked(const Schedule &s) const
{
    refreshTiming(s);
    Cost c =
        assemble(s, tracker_, routeLen_, timing_, nodeShortfall_, nullptr);
    if (opts_.checkIncremental) {
        verifyTracker(s);
        Cost full = evaluate(s);
        DSA_ASSERT(c.unplaced == full.unplaced &&
                       c.overuse == full.overuse &&
                       c.violations == full.violations &&
                       c.maxIi == full.maxIi &&
                       c.recurrenceLatency == full.recurrenceLatency &&
                       c.wirelength == full.wirelength,
                   "tracked evaluation diverged from oracle: tracked=(",
                   c.unplaced, ",", c.overuse, ",", c.violations, ",",
                   c.maxIi, ",", c.recurrenceLatency, ",", c.wirelength,
                   ") oracle=(", full.unplaced, ",", full.overuse, ",",
                   full.violations, ",", full.maxIi, ",",
                   full.recurrenceLatency, ",", full.wirelength, ")");
    }
    return c;
}

SpatialScheduler::ProbeBase
SpatialScheduler::makeProbeBase(const Schedule &s, const Slot &slot) const
{
    refreshTiming(s);
    ProbeBase b;
    b.cost = assemble(s, tracker_, routeLen_, timing_, nodeShortfall_,
                      &b.linkIi);
    for (size_t r = 0; r < timing_.size(); ++r)
        if (static_cast<int>(r) != slot.region)
            b.recLatOther = std::max(b.recLatOther, timing_[r].recLat);
    return b;
}

double
SpatialScheduler::probeCandidate(Schedule &s, const Slot &slot,
                                 NodeId cand, const ProbeBase &base) const
{
    // Exact delta evaluation: place the candidate, price only what
    // changed (the tracker journals first-touch prior state), then
    // unplace. Must return exactly evaluate(s).scalar() of the placed
    // schedule -- candidate ordering decisions depend on it.
    tracker_.beginProbe();
    place(s, slot, cand);

    Cost c = base.cost;
    --c.unplaced; // the slot itself
    int linkIi = base.linkIi;
    const Region &reg = prog_.regions[slot.region];
    const auto &rs = s.regions[slot.region];
    const int *len = routeLen_[slot.region].data();

    if (slot.isStream) {
        // Streams add no routes: only memory occupancy changes.
        int now = tracker_.memStreamCount(regionClass_[slot.region], cand);
        c.overuse += std::max(0, now - memCap_[cand]) -
                     std::max(0, now - 1 - memCap_[cand]);
    } else {
        VertexId v = slot.vertex;
        const Vertex &vx = reg.dfg.vertex(v);

        // Newly-complete dependence pairs whose route failed (or is
        // deferred to routeSpecials) count as unplaced work. All pairs
        // touching v were incomplete before the probe.
        for (size_t i = 0; i < vx.operands.size(); ++i) {
            const auto &op = vx.operands[i];
            if (op.isImm())
                continue;
            if (rs.vertexMap[op.src] == kInvalidNode)
                continue;
            if (len[opSlot(slot.region, v, static_cast<int>(i))] < 0)
                ++c.unplaced;
        }
        for (const auto &use : reg.dfg.uses(v)) {
            if (rs.vertexMap[use.user] == kInvalidNode)
                continue;
            if (len[opSlot(slot.region, use.user, use.operandIdx)] < 0)
                ++c.unplaced;
        }
        for (const Stream &st : reg.streams) {
            if (st.kind != StreamKind::Recurrence)
                continue;
            if (st.srcPort != v && st.port != v)
                continue;
            if (rs.vertexMap[st.srcPort] != kInvalidNode &&
                rs.vertexMap[st.port] != kInvalidNode &&
                !rs.recurrenceRoutes.count(st.id))
                ++c.unplaced;
        }
        for (size_t fi = 0; fi < prog_.forwards.size(); ++fi) {
            const auto &f = prog_.forwards[fi];
            if (f.viaMemory)
                continue;
            bool touches =
                (f.srcRegion == slot.region && f.srcPort == v) ||
                (f.dstRegion == slot.region && f.dstPort == v);
            if (!touches)
                continue;
            if (s.regions[f.srcRegion].vertexMap[f.srcPort] !=
                    kInvalidNode &&
                s.regions[f.dstRegion].vertexMap[f.dstPort] !=
                    kInvalidNode &&
                !s.forwardRoutes.count(static_cast<int>(fi)))
                ++c.unplaced;
        }

        if (vx.kind == VertexKind::Instruction) {
            // New protocol violations are exactly those involving v.
            if (nodeIsStaticPe(cand)) {
                for (const auto &op : vx.operands)
                    if (!op.isImm() &&
                        nodeIsDynamicPe(rs.vertexMap[op.src]))
                        ++c.violations;
            }
            if (nodeIsDynamicPe(cand)) {
                for (const auto &use : reg.dfg.uses(v)) {
                    const Vertex &uv = reg.dfg.vertex(use.user);
                    if (uv.kind == VertexKind::Instruction &&
                        nodeIsStaticPe(rs.vertexMap[use.user]))
                        ++c.violations;
                }
            }
        } else {
            int g = tracker_.groupOf(slot.region);
            int now = tracker_.syncLaneCount(g, cand);
            c.overuse += std::max(0, now - syncCap_[cand]) -
                         std::max(0, now - vx.lanes - syncCap_[cand]);
        }
    }

    // Edge / PE deltas from the probe journal. A probe only adds
    // routes, so per-entry usage only grows and link II stays a max.
    for (const auto &t : tracker_.touchedEdges()) {
        int used = tracker_.distinctOnEdge(t.group, t.edge);
        int cap = edgeCap_[t.edge];
        c.overuse += std::max(0, used - cap) -
                     std::max(0, t.oldDistinct - cap);
        c.wirelength += used - t.oldDistinct;
        if (edgeLinkIi_[t.edge] && used > 1)
            linkIi = std::max(linkIi, used);
    }
    for (const auto &t : tracker_.touchedPes()) {
        int cnt = tracker_.peInstCount(t.group, t.node) +
                  tracker_.pePassDistinct(t.group, t.node);
        c.overuse += std::max(0, cnt - peCap_[t.node]) -
                     std::max(0, t.oldInst + t.oldPass - peCap_[t.node]);
    }

    if (slot.isStream) {
        // No timing change: II and recurrence latency keep their
        // baseline values (no edge/PE entries were touched either).
        c.maxIi = base.cost.maxIi;
    } else {
        // Timing of the slot's region changed; other regions did not.
        RegionTiming &rt = probeTiming_;
        computeRegionTiming(s, static_cast<size_t>(slot.region), len,
                            vertexTimeScratch_, shortfallScratch_, rt);
        c.recurrenceLatency = std::max(base.recLatOther, rt.recLat);
        if (++adjEpoch_ == 0) {
            std::fill(adjStamp_.begin(), adjStamp_.end(), 0);
            adjEpoch_ = 1;
        }
        auto bump = [&](NodeId n, int d) {
            if (adjStamp_[n] != adjEpoch_) {
                adjStamp_[n] = adjEpoch_;
                shortfallAdj_[n] = 0;
            }
            shortfallAdj_[n] += d;
        };
        for (const auto &[n, sh] : timing_[slot.region].shortfall)
            bump(n, -sh);
        for (const auto &[n, sh] : rt.shortfall)
            bump(n, +sh);
        int maxIi = linkIi;
        for (const auto &[g, n] : tracker_.activePes()) {
            int cnt = tracker_.peInstCount(g, n) +
                      tracker_.pePassDistinct(g, n);
            int adj =
                adjStamp_[n] == adjEpoch_ ? shortfallAdj_[n] : 0;
            int ii = (peShared_[n] ? cnt : 1) + nodeShortfall_[n] + adj;
            maxIi = std::max(maxIi, ii);
        }
        c.maxIi = maxIi;
    }

    if (opts_.checkIncremental) {
        verifyTracker(s);
        Cost full = evaluate(s);
        DSA_ASSERT(c.unplaced == full.unplaced &&
                       c.overuse == full.overuse &&
                       c.violations == full.violations &&
                       c.maxIi == full.maxIi &&
                       c.recurrenceLatency == full.recurrenceLatency &&
                       c.wirelength == full.wirelength,
                   "probe delta diverged from oracle: delta=(", c.unplaced,
                   ",", c.overuse, ",", c.violations, ",", c.maxIi, ",",
                   c.recurrenceLatency, ",", c.wirelength, ") oracle=(",
                   full.unplaced, ",", full.overuse, ",", full.violations,
                   ",", full.maxIi, ",", full.recurrenceLatency, ",",
                   full.wirelength, ")");
    }

    unplace(s, slot);
    tracker_.endProbe();
    return c.scalar();
}

uint64_t
SpatialScheduler::placementHash(const Schedule &s, size_t slotIdx) const
{
    uint64_t h = splitmix64(0x70b5a7e5u ^ (slotIdx << 32));
    auto mix = [&h](uint64_t v) { h = splitmix64(h ^ v); };
    auto mixRoutes = [&](const auto &routes) {
        for (const auto &[key, route] : routes) {
            if constexpr (std::is_same_v<std::decay_t<decltype(key)>,
                                         std::pair<dfg::VertexId, int>>)
                mix((uint64_t(uint32_t(key.first)) << 32) |
                    uint32_t(key.second));
            else
                mix(uint64_t(uint32_t(key)));
            for (EdgeId e : route)
                mix(uint64_t(uint32_t(e)) + 1);
            mix(0x517cc1b7);
        }
    };
    // std::map iteration is content-ordered, so equal state always
    // produces an equal key regardless of mutation history.
    for (const auto &rs : s.regions) {
        for (NodeId n : rs.vertexMap)
            mix(uint64_t(uint32_t(n)) + 1);
        for (NodeId n : rs.streamMap)
            mix(uint64_t(uint32_t(n)) + 1);
        mixRoutes(rs.routes);
        mixRoutes(rs.recurrenceRoutes);
    }
    mixRoutes(s.forwardRoutes);
    return h;
}

void
SpatialScheduler::fillUnplaced(Schedule &s)
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (const Slot &slot : slots_) {
            // Bail between placements when the watchdog fires; the
            // remaining slots stay unplaced (cost reports them).
            if (opts_.deadline.expired())
                return;
            auto &rs = s.regions[slot.region];
            bool placed = slot.isStream
                ? rs.streamMap[slot.streamId] != kInvalidNode
                : rs.vertexMap[slot.vertex] != kInvalidNode;
            if (placed)
                continue;
            auto cands = candidatesFor(slot, s);
            if (cands.empty())
                continue;
            rng_.shuffle(cands);
            double bestCost = 0;
            NodeId bestNode = kInvalidNode;
            int tried = 0;
            // Probe-scan memo: the annealer's rip-up / refill loop
            // revisits the same states constantly once near-converged,
            // and a repeated state deterministically reuses the last
            // winner instead of scanning a fresh shuffle (search
            // policy, not an exact cache; see probeMemo_). The
            // membership check makes a (astronomically unlikely) hash
            // collision degrade to a full scan, never a bogus
            // placement.
            size_t slotIdx =
                static_cast<size_t>(&slot - slots_.data());
            uint64_t pkey = placementHash(s, slotIdx);
            auto memo = probeMemo_.find(pkey);
            if (memo != probeMemo_.end() &&
                std::find(cands.begin(), cands.end(), memo->second) !=
                    cands.end()) {
                ++stats_.probeMemoHits;
                bestNode = memo->second;
            } else if (opts_.incremental) {
                ProbeBase base = makeProbeBase(s, slot);
                for (NodeId cand : cands) {
                    double cost = probeCandidate(s, slot, cand, base);
                    if (bestNode == kInvalidNode || cost < bestCost) {
                        bestCost = cost;
                        bestNode = cand;
                    }
                    // Cap the candidate scan to bound iteration time.
                    if (++tried >= SchedOptions::candidateScanCap)
                        break;
                }
            } else {
                for (NodeId cand : cands) {
                    place(s, slot, cand);
                    double cost = evaluate(s).scalar();
                    unplace(s, slot);
                    if (bestNode == kInvalidNode || cost < bestCost) {
                        bestCost = cost;
                        bestNode = cand;
                    }
                    if (++tried >= SchedOptions::candidateScanCap)
                        break;
                }
            }
            if (memo == probeMemo_.end()) {
                ++stats_.probeMemoMisses;
                if (probeMemo_.size() >= kMaxProbeMemo)
                    probeMemo_.clear();
                probeMemo_.emplace(pkey, bestNode);
            }
            place(s, slot, bestNode);
            progress = true;
        }
        // Retry any missing routes between already-placed endpoints.
        for (size_t r = 0; r < prog_.regions.size(); ++r) {
            const Region &reg = prog_.regions[r];
            auto &rs = s.regions[r];
            if (rs.serialized)
                continue;
            for (const auto &vx : reg.dfg.vertices()) {
                if (rs.vertexMap[vx.id] == kInvalidNode)
                    continue;
                for (size_t i = 0; i < vx.operands.size(); ++i) {
                    const auto &op = vx.operands[i];
                    if (op.isImm() ||
                        rs.vertexMap[op.src] == kInvalidNode)
                        continue;
                    // Only incremental mode keeps the route-length
                    // table; reference mode asks the route map.
                    const int k = static_cast<int>(i);
                    if (opts_.incremental
                            ? routeLen_[r][opSlot(static_cast<int>(r),
                                                  vx.id, k)] >= 0
                            : rs.routes.count({vx.id, k}) > 0)
                        continue;
                    Route route = routeValue(s, static_cast<int>(r), op.src,
                                             rs.vertexMap[op.src],
                                             rs.vertexMap[vx.id]);
                    if (!route.empty()) {
                        setValueRoute(s, static_cast<int>(r), {vx.id, k},
                                      std::move(route));
                        progress = true;
                    }
                }
            }
        }
    }
}

std::vector<int>
SpatialScheduler::hotSlots(const Schedule &s) const
{
    // Nodes and edges that are overused, and instructions involved in
    // protocol violations, mark their slots as rip-up candidates.
    if (!opts_.incremental)
        tracker_.rebuild(s);
    std::vector<char> hotEdge(adg_.edgeIdBound(), 0);
    std::vector<char> hotNode(adg_.nodeIdBound(), 0);
    // Only genuinely overused edges seed rip-up: bus-side edges carry
    // up to 4 values and dynamic-switch edges time-multiplex 2, so
    // usage above 1 alone is legal sharing, not congestion.
    for (const auto &[g, e] : tracker_.activeEdges())
        if (tracker_.distinctOnEdge(g, e) > edgeCap_[e])
            hotEdge[e] = 1;
    for (const auto &[g, n] : tracker_.activePes())
        if (tracker_.peInstCount(g, n) > peCap_[n])
            hotNode[n] = 1;

    // One pass over each region's routes marks the vertices whose
    // routes touch a hot edge; the slot loop below then reads a flag
    // instead of rescanning the whole route map per slot.
    std::vector<std::vector<char>> vertHot(s.regions.size());
    for (size_t r = 0; r < s.regions.size(); ++r) {
        vertHot[r].assign(
            static_cast<size_t>(prog_.regions[r].dfg.numVertices()), 0);
        for (const auto &[key, route] : s.regions[r].routes) {
            if (vertHot[r][key.first])
                continue;
            for (EdgeId e : route)
                if (hotEdge[e]) {
                    vertHot[r][key.first] = 1;
                    break;
                }
        }
    }

    std::vector<int> hot;
    for (size_t i = 0; i < slots_.size(); ++i) {
        const Slot &sl = slots_[i];
        if (sl.isStream)
            continue;
        const auto &rs = s.regions[sl.region];
        NodeId n = rs.vertexMap[sl.vertex];
        if (n == kInvalidNode)
            continue;
        bool isHot = hotNode[n] || vertHot[sl.region][sl.vertex];
        // Violating consumers (dynamic producer into static PE).
        if (!isHot && nodeIsStaticPe(n)) {
            const Vertex &vx =
                prog_.regions[sl.region].dfg.vertex(sl.vertex);
            for (const auto &op : vx.operands)
                if (!op.isImm() &&
                    nodeIsDynamicPe(rs.vertexMap[op.src]))
                    isHot = true;
        }
        if (isHot)
            hot.push_back(static_cast<int>(i));
    }
    return hot;
}

Schedule
SpatialScheduler::run(const Schedule *initial)
{
    if (opts_.chains > 1)
        return runChains(initial);
    return runSingle(initial);
}

Schedule
SpatialScheduler::runChains(const Schedule *initial)
{
    // K independently-seeded chains; each runs the unmodified
    // single-chain annealer in a private child scheduler (own tracker,
    // route cache, rng, scratch) so chains share nothing mutable. The
    // winner is picked by a fixed-order serial reduction, so the
    // result is a pure function of (options, inputs) — identical for
    // any thread count and with or without a pool.
    const int k = opts_.chains;
    std::vector<Schedule> results(static_cast<size_t>(k));
    std::vector<Status> statuses(static_cast<size_t>(k));
    std::vector<SchedStats> chainStats(static_cast<size_t>(k));
    // Chain 0 keeps the caller's seed so chains=1 (which skips this
    // path entirely) and chain 0 of chains=K explore identically.
    constexpr uint64_t kChainSalt = 0x5ca1ab1e;
    auto runOne = [&](size_t c) {
        SchedOptions co = opts_;
        co.chains = 1;
        co.chainPool = nullptr;
        co.landmarks = landmarks_; // skip K-1 fingerprint lookups
        if (c > 0)
            co.seed = mixSeed(opts_.seed, kChainSalt, c);
        SpatialScheduler chain(prog_, adg_, co);
        results[c] = chain.run(initial);
        statuses[c] = chain.lastRunStatus();
        chainStats[c] = chain.stats();
    };
    if (opts_.chainPool)
        opts_.chainPool->parallelFor(static_cast<size_t>(k), runOne);
    else
        for (size_t c = 0; c < static_cast<size_t>(k); ++c)
            runOne(c);
    // Fixed-order reduction: legal beats illegal, then strictly lower
    // scalar cost, earliest chain on ties.
    size_t win = 0;
    for (size_t c = 1; c < static_cast<size_t>(k); ++c) {
        bool better =
            (results[c].cost.legal() && !results[win].cost.legal()) ||
            (results[c].cost.legal() == results[win].cost.legal() &&
             results[c].cost.scalar() < results[win].cost.scalar());
        if (better)
            win = c;
    }
    for (size_t c = 0; c < static_cast<size_t>(k); ++c)
        stats_.merge(chainStats[c]);
    lastStatus_ = statuses[win];
    // Leave this scheduler's tracker bound to the winning schedule so
    // post-run queries (and a follow-up repair) see consistent state.
    if (opts_.incremental)
        bindTo(results[win]);
    return results[win];
}

Schedule
SpatialScheduler::runSingle(const Schedule *initial)
{
    lastStatus_ = Status();
    ++stats_.chainsRun;
    Schedule s;
    bool evict = false;
    if (initial && initial->regions.size() == prog_.regions.size()) {
        s = *initial;
        s.stripDead(adg_);
        // Shape check: the program may have changed (different version).
        bool shapeOk = true;
        for (size_t r = 0; r < prog_.regions.size(); ++r)
            shapeOk &= s.regions[r].vertexMap.size() ==
                       static_cast<size_t>(prog_.regions[r].dfg
                                               .numVertices());
        if (!shapeOk)
            s = Schedule::emptyFor(prog_);
        else
            evict = true;
    } else {
        s = Schedule::emptyFor(prog_);
    }
    // Bind the tracker to the seed before any mutation: unplace() keeps
    // it in sync from here on.
    if (opts_.incremental)
        bindTo(s);
    if (evict) {
        // Surviving nodes may have lost the *capability* a mapping
        // relied on (a DSE mutation toggled scheduling, dropped an
        // FU class, shrank a sync, removed a memory controller):
        // evict assignments the node can no longer honor.
        for (const Slot &slot : slots_) {
            auto &rs = s.regions[slot.region];
            adg::NodeId cur = slot.isStream
                ? rs.streamMap[slot.streamId]
                : rs.vertexMap[slot.vertex];
            if (cur == kInvalidNode)
                continue;
            auto cands = candidatesFor(slot, s);
            if (std::find(cands.begin(), cands.end(), cur) == cands.end())
                unplace(s, slot);
        }
    }

    auto evalCurrent = [&]() {
        return opts_.incremental ? evaluateTracked(s) : evaluate(s);
    };

    fillUnplaced(s);
    routeSpecials(s);
    s.cost = evalCurrent();
    Schedule best = s;

    int noImprove = 0;
    std::vector<int> placedIdx;
    for (int iter = 0; iter < opts_.maxIters; ++iter) {
        ++stats_.iterations;
        if (opts_.deadline.expired()) {
            lastStatus_ = Status::deadlineExceeded(
                "scheduler timed out after " + std::to_string(iter) +
                " of " + std::to_string(opts_.maxIters) + " iterations");
            break;
        }
        if (best.cost.legal() && noImprove >= opts_.convergeIters)
            break;
        // Rip up one or two random placements and re-place greedily.
        placedIdx.clear();
        for (size_t i = 0; i < slots_.size(); ++i) {
            const Slot &sl = slots_[i];
            bool placed = sl.isStream
                ? s.regions[sl.region].streamMap[sl.streamId] != kInvalidNode
                : s.regions[sl.region].vertexMap[sl.vertex] != kInvalidNode;
            if (placed)
                placedIdx.push_back(static_cast<int>(i));
        }
        if (placedIdx.empty())
            break;
        // Bias rip-up toward slots implicated in overuse/violations;
        // escalate to a large perturbation when the search stalls on
        // an illegal schedule (simulated-annealing-style kick).
        std::vector<int> hot = hotSlots(s);
        int k = 1 + static_cast<int>(rng_.uniformInt(0, 1));
        if (!best.cost.legal() && noImprove > 0 && noImprove % 25 == 0)
            k = 3 + static_cast<int>(
                    rng_.uniformInt(0, int64_t(placedIdx.size()) / 4));
        for (int j = 0; j < k; ++j) {
            const std::vector<int> &pool =
                (!hot.empty() && rng_.chance(0.7)) ? hot : placedIdx;
            unplace(s, slots_[static_cast<size_t>(rng_.pick(pool))]);
        }
        fillUnplaced(s);
        routeSpecials(s);
        s.cost = evalCurrent();
        if (s.cost.scalar() < best.cost.scalar()) {
            best = s;
            noImprove = 0;
        } else {
            ++noImprove;
        }
    }
    return best;
}

Schedule
scheduleProgram(const dfg::DecoupledProgram &prog, const Adg &adg,
                SchedOptions opts)
{
    SpatialScheduler sch(prog, adg, opts);
    return sch.run();
}

} // namespace dsa::mapper
