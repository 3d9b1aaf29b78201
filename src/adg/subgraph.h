/**
 * @file
 * Subgraph-level ADG editing helpers for the DSE's structured
 * mutations (grow/shrink a tile, clone a region, rewire a
 * sub-fabric). A structured move treats a *connected group* of
 * components — a switch with its attached PEs, a radius-limited
 * neighbourhood — as one unit, so a single mutation can replicate a
 * proven tile instead of rediscovering it one flat parameter tweak at
 * a time (the SET-style tree-move insight applied to the ADG).
 *
 * All helpers are deterministic: node sets are collected in ascending
 * ID order and clones are allocated in that order, so the same inputs
 * always produce the same output graph (the DSE's bit-identical-trace
 * guarantee extends through structured moves).
 */

#ifndef DSA_ADG_SUBGRAPH_H
#define DSA_ADG_SUBGRAPH_H

#include <map>
#include <vector>

#include "adg/adg.h"

namespace dsa::adg {

/** Outcome of cloneSubgraph: old-id -> new-id plus the edge clones. */
struct SubgraphClone
{
    /** Maps each requested (old) node id to its clone's id. */
    std::map<NodeId, NodeId> nodeMap;
    /** Ids of the cloned internal edges, in original edge-id order. */
    std::vector<EdgeId> edges;
};

/**
 * Collect a connected neighbourhood of fabric nodes (PEs, switches,
 * delay elements — never memories or sync ports, whose composition
 * rules make blind cloning illegal) by breadth-first expansion from
 * @p seed, following edges in both directions up to @p radius hops,
 * visiting at most @p maxNodes nodes. Nodes are returned in ascending
 * id order. Returns an empty vector when @p seed is not a fabric node.
 */
std::vector<NodeId> fabricNeighborhood(const Adg &g, NodeId seed,
                                       int radius, int maxNodes);

/**
 * Clone @p nodes (their kind-specific properties, not their names or
 * grid hints) and every edge whose endpoints both lie in @p nodes,
 * preserving edge widths. Non-fabric nodes (memories, syncs) are
 * skipped. The clone is *not* stitched to the rest of the graph —
 * callers add boundary edges themselves (that choice is the mutation).
 */
SubgraphClone cloneSubgraph(Adg &g, const std::vector<NodeId> &nodes);

/**
 * PEs directly attached to switch @p sw (either direction), ascending,
 * deduplicated — the "tile" a grow/shrink move replicates or retires.
 */
std::vector<NodeId> attachedPes(const Adg &g, NodeId sw);

} // namespace dsa::adg

#endif // DSA_ADG_SUBGRAPH_H
