/**
 * @file
 * Configuration-path generation (§VI): configuration messages travel
 * hop-by-hop along the on-chip network (one extra bit marks config
 * traffic), so the generator must find one or more walks through the
 * ADG that visit every configurable node, minimizing the longest walk
 * (which dominates configuration time). Lower bound: ceil(n / p) for
 * n nodes and p paths.
 *
 * Approach (per the paper): spanning-tree-like initialization to get p
 * initial paths, then an iterative heuristic that cuts a node from the
 * longest path and reattaches it to a nearby shorter path, until the
 * maximum length converges.
 */

#ifndef DSA_HWGEN_CONFIG_PATH_H
#define DSA_HWGEN_CONFIG_PATH_H

#include <vector>

#include "adg/adg.h"

namespace dsa::hwgen {

/** One configuration path: node sequence, adjacent-connected. */
using ConfigPath = std::vector<adg::NodeId>;

/** Result of path generation. */
struct ConfigPathSet
{
    std::vector<ConfigPath> paths;

    /** Steps of the longest path. */
    int maxLength() const;
};

/**
 * Generate @p numPaths configuration paths covering every live node
 * of @p adg.
 * @param iters  improvement iterations for the cut-and-reattach phase.
 */
ConfigPathSet generateConfigPaths(const adg::Adg &adg, int numPaths,
                                  int iters = 200, uint64_t seed = 1);

/**
 * Check that @p set covers every live node and every step connects
 * adjacent nodes (treating links as bidirectional for config traffic).
 * @return empty on success, else a problem description.
 */
std::string validateConfigPaths(const adg::Adg &adg,
                                const ConfigPathSet &set);

} // namespace dsa::hwgen

#endif // DSA_HWGEN_CONFIG_PATH_H
