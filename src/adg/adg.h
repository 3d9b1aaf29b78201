/**
 * @file
 * The Architecture Description Graph (ADG): DSAGEN's hardware
 * representation (§III). An accelerator is a graph of primitive
 * components with flexible, possibly irregular connectivity, plus one
 * control core. The same class is used for normal compilation (fixed
 * instance) and for design-space exploration (iteratively mutated).
 *
 * Node/edge ids are stable and never reused within one Adg, so that the
 * repairing scheduler can diff schedules across DSE mutations.
 */

#ifndef DSA_ADG_ADG_H
#define DSA_ADG_ADG_H

#include <string>
#include <vector>

#include "adg/node.h"
#include "base/logging.h"

namespace dsa::adg {

/** Aggregate counts used by reports and the DSE mutator. */
struct AdgStats
{
    int numPes = 0;
    int numSwitches = 0;
    int numMemories = 0;
    int numSyncs = 0;
    int numDelays = 0;
    int numEdges = 0;
    int numDynamicPes = 0;
    int numSharedPes = 0;
};

/**
 * The architecture description graph.
 *
 * Value-semantic: copying an Adg yields an independent design point
 * (the DSE clones candidate designs freely).
 */
class Adg
{
  public:
    Adg() = default;

    /// @name Construction
    /// @{
    NodeId addPe(const PeProps &props, const std::string &name = "");
    NodeId addSwitch(const SwitchProps &props, const std::string &name = "");
    NodeId addMemory(const MemProps &props, const std::string &name = "");
    NodeId addSync(const SyncProps &props, const std::string &name = "");
    NodeId addDelay(const DelayProps &props, const std::string &name = "");

    /**
     * Connect @p src to @p dst with a wire of @p widthBits bits
     * (0 = the narrower of the two endpoint datapaths).
     */
    EdgeId connect(NodeId src, NodeId dst, int widthBits = 0);

    /** Remove a node and every edge attached to it. */
    void removeNode(NodeId id);
    /** Remove a single edge. */
    void removeEdge(EdgeId id);
    /// @}

    /// @name Access
    /// @{
    // The element accessors are defined inline below the class: the
    // scheduler's routing inner loop and the usage tracker's route
    // hooks call them tens of millions of times per DSE candidate,
    // and the out-of-line definitions they started with showed up as
    // ~15% of scheduler profiles in pure call overhead.
    bool nodeAlive(NodeId id) const;
    bool edgeAlive(EdgeId id) const;
    const AdgNode &node(NodeId id) const;
    AdgNode &node(NodeId id);
    const AdgEdge &edge(EdgeId id) const;
    AdgEdge &edge(EdgeId id);

    /** Ids of all live nodes (ascending). */
    std::vector<NodeId> aliveNodes() const;
    /** Ids of all live nodes of @p kind. */
    std::vector<NodeId> aliveNodes(NodeKind kind) const;
    /** Ids of all live edges. */
    std::vector<EdgeId> aliveEdges() const;

    /** Out-edges (live) of a node. */
    const std::vector<EdgeId> &outEdges(NodeId id) const;
    /** In-edges (live) of a node. */
    const std::vector<EdgeId> &inEdges(NodeId id) const;

    /** First live edge src->dst, or kInvalidEdge. */
    EdgeId findEdge(NodeId src, NodeId dst) const;

    ControlProps &control() { return control_; }
    const ControlProps &control() const { return control_; }

    /** Upper bound over all node ids ever allocated (for dense maps). */
    int nodeIdBound() const { return static_cast<int>(nodes_.size()); }
    int edgeIdBound() const { return static_cast<int>(edges_.size()); }

    AdgStats stats() const;
    /// @}

    /// @name Validation & serialization
    /// @{
    /**
     * Check the composition rules of §III-B that are structural (the
     * dataflow-direction rules are enforced by the scheduler instead).
     * @return human-readable problems; empty means valid.
     */
    std::vector<std::string> validate() const;

    /** Serialize to the textual ADG format. */
    std::string toText() const;
    /** Graphviz rendering (node shapes/colors by kind and protocol). */
    std::string toDot() const;
    /** Parse the textual ADG format. Malformed input throws a
     *  StatusException (InvalidArgument) naming the offending line. */
    static Adg fromText(const std::string &text);
    /// @}

  private:
    NodeId addNode(NodeKind kind,
                   std::variant<PeProps, SwitchProps, MemProps, SyncProps,
                                DelayProps> props,
                   const std::string &name);

    std::vector<AdgNode> nodes_;
    std::vector<AdgEdge> edges_;
    std::vector<std::vector<EdgeId>> outEdges_;
    std::vector<std::vector<EdgeId>> inEdges_;
    ControlProps control_;
};

inline bool
Adg::nodeAlive(NodeId id) const
{
    return id >= 0 && id < static_cast<NodeId>(nodes_.size()) &&
           nodes_[id].alive;
}

inline bool
Adg::edgeAlive(EdgeId id) const
{
    return id >= 0 && id < static_cast<EdgeId>(edges_.size()) &&
           edges_[id].alive;
}

inline const AdgNode &
Adg::node(NodeId id) const
{
    DSA_ASSERT(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
               "bad node id ", id);
    return nodes_[id];
}

inline AdgNode &
Adg::node(NodeId id)
{
    DSA_ASSERT(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
               "bad node id ", id);
    return nodes_[id];
}

inline const AdgEdge &
Adg::edge(EdgeId id) const
{
    DSA_ASSERT(id >= 0 && id < static_cast<EdgeId>(edges_.size()),
               "bad edge id ", id);
    return edges_[id];
}

inline AdgEdge &
Adg::edge(EdgeId id)
{
    DSA_ASSERT(id >= 0 && id < static_cast<EdgeId>(edges_.size()),
               "bad edge id ", id);
    return edges_[id];
}

inline const std::vector<EdgeId> &
Adg::outEdges(NodeId id) const
{
    DSA_ASSERT(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
               "bad node id ", id);
    return outEdges_[id];
}

inline const std::vector<EdgeId> &
Adg::inEdges(NodeId id) const
{
    DSA_ASSERT(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
               "bad node id ", id);
    return inEdges_[id];
}

} // namespace dsa::adg

#endif // DSA_ADG_ADG_H
