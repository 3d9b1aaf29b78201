/**
 * @file
 * Persistent on-disk object cache for JIT-compiled simulation kernels.
 * It shares its file primitives with the eval-cache store and the DSE
 * checkpoints (`base/files.h`): the compile claim is a FileLock, the
 * manifest is published with writeFileAtomic, and loads quarantine
 * instead of crashing — a corrupt `.so` or torn manifest costs cache
 * warmth, never correctness and never a crash.
 *
 * Layout of a cache directory (one per abi version + uid by default):
 *   obj-<key>.so        the compiled kernel (published by rename)
 *   obj-<key>.meta      checksummed manifest: key, abi, so size/hash,
 *                       ADG fingerprint, compiler version, flags
 *   obj-<key>.lock      compile claim (FileLock); the kernel releases
 *                       it when its holder dies, and its holder
 *                       unlinks it when done
 *   quar-*              quarantined corrupt entries, kept for autopsy
 *
 * The <key> is content-addressed: a hash of the generated source, the
 * compiler identity, and the kernel ABI version (see jit_runtime).
 * Readers validate the manifest checksum, the recorded object hash,
 * and the abi before ever dlopen()ing a cached file, so workers
 * sharing the directory can race freely: exactly one holds the claim
 * and compiles; everyone else reuses the published object or, if they
 * find a half-written/corrupt entry, quarantines it and moves on.
 */

#ifndef DSA_SIM_JIT_JIT_CACHE_H
#define DSA_SIM_JIT_JIT_CACHE_H

#include <string>

#include "base/status.h"
#include "sim/jit/jit_stats.h"

namespace dsa::sim::jit {

/** Manifest payload recorded next to each published object. */
struct ObjectMeta
{
    std::string key;         ///< cache key (hex)
    std::string fingerprint; ///< canonical ADG fingerprint (info only)
    std::string compiler;    ///< compiler identity line
    std::string flags;       ///< compile flags used
};

/** Default shared cache dir: $DSA_SIM_JIT_DIR, else a per-uid,
 *  per-abi-version directory under $TMPDIR (default /tmp). */
std::string defaultCacheDir();

std::string objectPath(const std::string &dir, const std::string &key);
std::string metaPath(const std::string &dir, const std::string &key);
/** The compile claim for @p key: whoever holds a FileLock on it compiles. */
std::string lockPath(const std::string &dir, const std::string &key);

enum class ProbeResult {
    Miss,        ///< no (validated) object present
    Hit,         ///< *soPath names a validated object
    Quarantined, ///< a corrupt entry was found and set aside
};

/**
 * Look for a published, validated object for @p key. A present but
 * invalid entry (torn manifest, checksum mismatch, abi mismatch, size
 * mismatch — or an injected `jit.object.corrupt` fault) is renamed to
 * a `quar-` name so it is never re-served, and Quarantined is
 * returned (with a diagnostic in @p diag). Bumps @p stats.
 */
ProbeResult probeObject(const std::string &dir, const std::string &key,
                        JitStats &stats, std::string *soPath,
                        std::string *diag);

/**
 * Atomically publish @p tmpSo (a finished object inside @p dir) as
 * obj-<key>.so with its checksummed manifest. Object first (by rename),
 * manifest last (by writeFileAtomic) — a reader either sees a complete
 * entry or no manifest at all. Call only while holding the claim.
 */
Status publishObject(const std::string &dir, const std::string &key,
                     const std::string &tmpSo, const ObjectMeta &meta);

} // namespace dsa::sim::jit

#endif // DSA_SIM_JIT_JIT_CACHE_H
