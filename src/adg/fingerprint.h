/**
 * @file
 * Canonical ADG fingerprints for DSE memoization.
 *
 * Two keys are computed over a design:
 *
 *  - The *structural* fingerprint (`structuralFingerprint`, 128 bits)
 *    is invariant under node/edge relabeling: it is built by iterative
 *    WL-style (Weisfeiler–Leman) neighbourhood refinement over node
 *    kinds/parameters and edge topology, then folded order-
 *    independently. Node-ID permutations — e.g. the same design
 *    reached through different mutation histories — collapse to one
 *    key. This is the dedup/analysis notion of "same design".
 *
 *  - The *labeling* hash (`labelingHash`, 64 bits) additionally pins
 *    the concrete live node/edge IDs. The evaluation pipeline is
 *    labeling-sensitive (the annealing scheduler iterates nodes in ID
 *    order and repair schedules store raw IDs), so bit-identical
 *    memoization must distinguish two isomorphic designs with
 *    different IDs; the structural fingerprint alone must not be used
 *    as an eval-cache key. Add-then-remove mutation round-trips leave
 *    the live ID set unchanged (IDs are never reused; removal only
 *    tombstones), so they hash identically and hit the cache.
 *
 * `canonicalKey` computes both in one pass. Neither key covers node
 * names or grid-position hints: they do not influence compilation,
 * scheduling, simulation, or costing.
 */

#ifndef DSA_ADG_FINGERPRINT_H
#define DSA_ADG_FINGERPRINT_H

#include <cstdint>

#include "adg/adg.h"

namespace dsa::adg {

/** A 128-bit fingerprint (two independently salted 64-bit folds). */
struct Fp128
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const Fp128 &) const = default;
    bool
    operator<(const Fp128 &o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }
};

/** Structural + labeling key of one design (see file comment). */
struct AdgKey
{
    Fp128 structural;
    uint64_t labeling = 0;

    bool operator==(const AdgKey &) const = default;
    bool
    operator<(const AdgKey &o) const
    {
        if (!(structural == o.structural))
            return structural < o.structural;
        return labeling < o.labeling;
    }
};

/**
 * Hash of one node's kind + parameters (no ID, name, or position).
 * The WL refinement's initial color, and the cost-model flyweight
 * table's signature component.
 */
uint64_t nodeParamHash(const AdgNode &node);

/** Relabeling-invariant structural fingerprint of @p adg. */
Fp128 structuralFingerprint(const Adg &adg);

/** Exact hash of the live graph under its concrete IDs. */
uint64_t labelingHash(const Adg &adg);

/** Both keys, sharing one pass over the graph. */
AdgKey canonicalKey(const Adg &adg);

} // namespace dsa::adg

#endif // DSA_ADG_FINGERPRINT_H
