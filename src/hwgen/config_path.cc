#include "hwgen/config_path.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "base/logging.h"
#include "base/rng.h"

namespace dsa::hwgen {

using adg::Adg;
using adg::NodeId;

namespace {

/** Undirected adjacency over live nodes. */
std::map<NodeId, std::vector<NodeId>>
buildAdjacency(const Adg &adg)
{
    std::map<NodeId, std::vector<NodeId>> adj;
    for (NodeId id : adg.aliveNodes())
        adj[id];  // ensure isolated nodes appear
    for (adg::EdgeId e : adg.aliveEdges()) {
        const auto &edge = adg.edge(e);
        adj[edge.src].push_back(edge.dst);
        adj[edge.dst].push_back(edge.src);
    }
    for (auto &[id, v] : adj) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    return adj;
}

/** BFS shortest node sequence from @p from to any node in @p targets
 *  (exclusive of @p from, inclusive of the target). */
std::vector<NodeId>
bfsTo(const std::map<NodeId, std::vector<NodeId>> &adj, NodeId from,
      const std::set<NodeId> &targets)
{
    std::map<NodeId, NodeId> parent;
    std::queue<NodeId> q;
    q.push(from);
    parent[from] = from;
    while (!q.empty()) {
        NodeId n = q.front();
        q.pop();
        if (n != from && targets.count(n)) {
            std::vector<NodeId> path;
            for (NodeId cur = n; cur != from; cur = parent[cur])
                path.push_back(cur);
            std::reverse(path.begin(), path.end());
            return path;
        }
        auto it = adj.find(n);
        if (it == adj.end())
            continue;
        for (NodeId m : it->second) {
            if (!parent.count(m)) {
                parent[m] = n;
                q.push(m);
            }
        }
    }
    return {};
}

} // namespace

int
ConfigPathSet::maxLength() const
{
    int longest = 0;
    for (const auto &p : paths)
        longest = std::max(longest, static_cast<int>(p.size()));
    return longest;
}

ConfigPathSet
generateConfigPaths(const Adg &adg, int numPaths, int iters, uint64_t seed)
{
    DSA_ASSERT(numPaths >= 1, "need at least one config path");
    auto adj = buildAdjacency(adg);
    std::vector<NodeId> nodes = adg.aliveNodes();
    DSA_ASSERT(!nodes.empty(), "empty design");
    Rng rng(seed);

    // --- Seeds: greedy max-min BFS-distance spreading. ---
    auto bfsDist = [&](NodeId src) {
        std::map<NodeId, int> d;
        std::queue<NodeId> q;
        q.push(src);
        d[src] = 0;
        while (!q.empty()) {
            NodeId n = q.front();
            q.pop();
            for (NodeId m : adj[n])
                if (!d.count(m)) {
                    d[m] = d[n] + 1;
                    q.push(m);
                }
        }
        return d;
    };
    std::vector<NodeId> seeds = {nodes[0]};
    std::map<NodeId, int> minDist = bfsDist(nodes[0]);
    while (static_cast<int>(seeds.size()) < numPaths) {
        NodeId far = nodes[0];
        int best = -1;
        for (NodeId n : nodes) {
            auto it = minDist.find(n);
            int d = it == minDist.end() ? 1 << 20 : it->second;
            if (d > best) {
                best = d;
                far = n;
            }
        }
        seeds.push_back(far);
        auto d2 = bfsDist(far);
        for (auto &[n, d] : minDist)
            d = std::min(d, d2.count(n) ? d2[n] : (1 << 20));
    }

    // --- Greedy nearest-neighbor growth (spanning-tree-like init). ---
    ConfigPathSet set;
    std::set<NodeId> uncovered(nodes.begin(), nodes.end());
    for (NodeId s : seeds) {
        set.paths.push_back({s});
        uncovered.erase(s);
    }
    while (!uncovered.empty()) {
        // Extend the currently-shortest path toward the nearest
        // uncovered node.
        size_t shortest = 0;
        for (size_t i = 1; i < set.paths.size(); ++i)
            if (set.paths[i].size() < set.paths[shortest].size())
                shortest = i;
        auto &path = set.paths[shortest];
        std::vector<NodeId> hop = bfsTo(adj, path.back(), uncovered);
        if (hop.empty()) {
            // Disconnected remainder: start fresh from any uncovered.
            path.push_back(*uncovered.begin());
        } else {
            for (NodeId n : hop)
                path.push_back(n);
        }
        for (NodeId n : path)
            uncovered.erase(n);
    }

    // --- Improvement: cut from the longest, reattach to a shorter. ---
    auto coveredElsewhere = [&](size_t pathIdx, NodeId v) {
        for (size_t i = 0; i < set.paths.size(); ++i) {
            if (i == pathIdx)
                continue;
            for (NodeId n : set.paths[i])
                if (n == v)
                    return true;
        }
        // Also covered if it appears twice in its own path.
        int cnt = 0;
        for (NodeId n : set.paths[pathIdx])
            cnt += n == v;
        return cnt > 1;
    };

    for (int it = 0; it < iters; ++it) {
        size_t longest = 0;
        for (size_t i = 1; i < set.paths.size(); ++i)
            if (set.paths[i].size() > set.paths[longest].size())
                longest = i;
        auto &lp = set.paths[longest];
        if (lp.size() <= 1)
            break;
        // Candidate: an endpoint of the longest path.
        bool fromBack = rng.chance(0.5);
        NodeId v = fromBack ? lp.back() : lp.front();
        // If the endpoint is redundant (covered elsewhere), drop it.
        if (coveredElsewhere(longest, v)) {
            if (fromBack)
                lp.pop_back();
            else
                lp.erase(lp.begin());
            continue;
        }
        // Move it to the end of a shorter path whose tail is adjacent
        // (or nearly adjacent).
        bool moved = false;
        for (size_t i = 0; i < set.paths.size() && !moved; ++i) {
            if (i == longest ||
                set.paths[i].size() + 2 >= lp.size())
                continue;
            std::vector<NodeId> hop =
                bfsTo(adj, set.paths[i].back(), {v});
            if (!hop.empty() &&
                set.paths[i].size() + hop.size() < lp.size()) {
                for (NodeId n : hop)
                    set.paths[i].push_back(n);
                if (fromBack)
                    lp.pop_back();
                else
                    lp.erase(lp.begin());
                moved = true;
            }
        }
        if (!moved)
            break;  // converged: no profitable move
    }
    return set;
}

std::string
validateConfigPaths(const Adg &adg, const ConfigPathSet &set)
{
    auto adj = buildAdjacency(adg);
    std::set<NodeId> covered;
    for (const auto &p : set.paths) {
        for (size_t i = 0; i < p.size(); ++i) {
            covered.insert(p[i]);
            if (i == 0)
                continue;
            const auto &nbrs = adj[p[i - 1]];
            if (std::find(nbrs.begin(), nbrs.end(), p[i]) == nbrs.end() &&
                p[i] != p[i - 1])
                return "non-adjacent step " + std::to_string(p[i - 1]) +
                       " -> " + std::to_string(p[i]);
        }
    }
    for (NodeId n : adg.aliveNodes())
        if (!covered.count(n))
            return "node " + std::to_string(n) + " not covered";
    return "";
}

} // namespace dsa::hwgen
