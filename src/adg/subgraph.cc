#include "adg/subgraph.h"

#include <algorithm>
#include <deque>
#include <set>

namespace dsa::adg {

namespace {

bool
isFabricKind(NodeKind kind)
{
    return kind == NodeKind::Pe || kind == NodeKind::Switch ||
           kind == NodeKind::Delay;
}

} // namespace

std::vector<NodeId>
fabricNeighborhood(const Adg &g, NodeId seed, int radius, int maxNodes)
{
    std::vector<NodeId> out;
    if (!g.nodeAlive(seed) || !isFabricKind(g.node(seed).kind) ||
        maxNodes <= 0)
        return out;

    std::set<NodeId> visited{seed};
    // (node, depth) frontier; neighbours are expanded in edge-id order,
    // which is stable, so the visit order — and hence which nodes make
    // the maxNodes cut — is a pure function of the graph.
    std::deque<std::pair<NodeId, int>> frontier{{seed, 0}};
    while (!frontier.empty() &&
           static_cast<int>(visited.size()) < maxNodes) {
        auto [id, depth] = frontier.front();
        frontier.pop_front();
        if (depth >= radius)
            continue;
        auto expand = [&](NodeId next) {
            if (static_cast<int>(visited.size()) >= maxNodes)
                return;
            if (!g.nodeAlive(next) || !isFabricKind(g.node(next).kind))
                return;
            if (!visited.insert(next).second)
                return;
            frontier.push_back({next, depth + 1});
        };
        for (EdgeId e : g.outEdges(id))
            expand(g.edge(e).dst);
        for (EdgeId e : g.inEdges(id))
            expand(g.edge(e).src);
    }
    out.assign(visited.begin(), visited.end());
    return out;
}

SubgraphClone
cloneSubgraph(Adg &g, const std::vector<NodeId> &nodes)
{
    SubgraphClone clone;
    std::vector<NodeId> sorted = nodes;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (NodeId id : sorted) {
        if (!g.nodeAlive(id))
            continue;
        const AdgNode &n = g.node(id);
        switch (n.kind) {
          case NodeKind::Pe:
            clone.nodeMap[id] = g.addPe(n.pe());
            break;
          case NodeKind::Switch:
            clone.nodeMap[id] = g.addSwitch(n.sw());
            break;
          case NodeKind::Delay:
            clone.nodeMap[id] = g.addDelay(n.delay());
            break;
          default:
            break; // memories and syncs are never cloned
        }
    }
    // Replicate internal connectivity in edge-id order (stable), so
    // the clone's edge ids — which feed the labeling hash — are a pure
    // function of (graph, node set). aliveEdges() snapshots the edge
    // set before the loop, so the edges this loop appends (between
    // clone nodes, which map from no original) are never re-visited.
    for (EdgeId e : g.aliveEdges()) {
        const AdgEdge &edge = g.edge(e);
        auto src = clone.nodeMap.find(edge.src);
        auto dst = clone.nodeMap.find(edge.dst);
        if (src == clone.nodeMap.end() || dst == clone.nodeMap.end())
            continue;
        clone.edges.push_back(
            g.connect(src->second, dst->second, edge.widthBits));
    }
    return clone;
}

std::vector<NodeId>
attachedPes(const Adg &g, NodeId sw)
{
    std::set<NodeId> found;
    if (!g.nodeAlive(sw))
        return {};
    for (EdgeId e : g.outEdges(sw)) {
        NodeId n = g.edge(e).dst;
        if (g.nodeAlive(n) && g.node(n).kind == NodeKind::Pe)
            found.insert(n);
    }
    for (EdgeId e : g.inEdges(sw)) {
        NodeId n = g.edge(e).src;
        if (g.nodeAlive(n) && g.node(n).kind == NodeKind::Pe)
            found.insert(n);
    }
    return {found.begin(), found.end()};
}

} // namespace dsa::adg
