#include "sim/jit/jit_cache.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "base/fault.h"
#include "base/files.h"
#include "base/hashing.h"
#include "base/logging.h"
#include "sim/jit/jit_emit.h" // kAbiVersion

namespace dsa::sim::jit {

namespace {

constexpr const char *kMetaMagic = "dsagen-jit-meta v1";

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Move a corrupt entry aside so it is never re-served. */
void
quarantine(const std::string &dir, const std::string &key,
           const std::string &why, JitStats &stats)
{
    std::string tag = dir + "/quar-" + key + "-" +
                      std::to_string(static_cast<long>(::getpid()));
    // Manifest first: once it is gone no reader will trust the object.
    ::rename(metaPath(dir, key).c_str(), (tag + ".meta").c_str());
    ::rename(objectPath(dir, key).c_str(), (tag + ".so").c_str());
    ++stats.quarantined;
    DSA_WARN("jit cache: quarantined object ", key, " (", why, ")");
}

/** One "k v" line of the manifest; value may contain spaces. */
bool
metaLine(const std::string &text, const char *field, std::string &out)
{
    std::string prefix = std::string(field) + " ";
    size_t at = 0;
    while (at < text.size()) {
        size_t eol = text.find('\n', at);
        if (eol == std::string::npos)
            eol = text.size();
        if (text.compare(at, prefix.size(), prefix) == 0) {
            out = text.substr(at + prefix.size(), eol - at - prefix.size());
            return true;
        }
        at = eol + 1;
    }
    return false;
}

} // namespace

std::string
defaultCacheDir()
{
    if (const char *e = std::getenv("DSA_SIM_JIT_DIR"); e && *e)
        return e;
    const char *tmp = std::getenv("TMPDIR");
    std::string base = tmp && *tmp ? tmp : "/tmp";
    while (!base.empty() && base.back() == '/')
        base.pop_back();
    return base + "/dsagen-jit-v" + std::to_string(kAbiVersion) +
           "-uid" + std::to_string(static_cast<long>(::getuid()));
}

std::string
objectPath(const std::string &dir, const std::string &key)
{
    return dir + "/obj-" + key + ".so";
}

std::string
metaPath(const std::string &dir, const std::string &key)
{
    return dir + "/obj-" + key + ".meta";
}

std::string
lockPath(const std::string &dir, const std::string &key)
{
    return dir + "/obj-" + key + ".lock";
}

ProbeResult
probeObject(const std::string &dir, const std::string &key,
            JitStats &stats, std::string *soPath, std::string *diag)
{
    std::string mpath = metaPath(dir, key);
    std::string opath = objectPath(dir, key);
    auto metaFile = readFile(mpath);
    if (!metaFile.ok()) {
        // No manifest => nothing published (an orphan .so from a
        // killed writer is invisible until someone re-publishes).
        return ProbeResult::Miss;
    }
    const std::string &meta = *metaFile;

    auto bad = [&](const std::string &why) {
        if (diag)
            *diag = why;
        quarantine(dir, key, why, stats);
        return ProbeResult::Quarantined;
    };

    // Manifest self-check: last line is "sum <xxhash64 of preceding>".
    size_t sumAt = meta.rfind("sum ");
    if (sumAt == std::string::npos || (sumAt != 0 && meta[sumAt - 1] != '\n'))
        return bad("manifest missing checksum line");
    std::string sumLine = meta.substr(sumAt + 4);
    while (!sumLine.empty() &&
           (sumLine.back() == '\n' || sumLine.back() == '\r'))
        sumLine.pop_back();
    uint64_t want = xxhash64(meta.data(), sumAt, /*seed=*/0);
    if (sumLine != hex64(want))
        return bad("manifest checksum mismatch");

    std::string field;
    if (!metaLine(meta, "magic", field) || field != kMetaMagic)
        return bad("manifest magic mismatch");
    if (!metaLine(meta, "key", field) || field != key)
        return bad("manifest key mismatch");
    if (!metaLine(meta, "abi", field) ||
        field != std::to_string(kAbiVersion))
        return bad("manifest abi mismatch");
    std::string soSize, soHash;
    if (!metaLine(meta, "so-size", field) || (soSize = field).empty() ||
        !metaLine(meta, "so-hash", field) || (soHash = field).empty())
        return bad("manifest incomplete");

    auto soFile = readFile(opath);
    if (!soFile.ok())
        return bad("object unreadable");
    const std::string &so = *soFile;
    if (std::to_string(so.size()) != soSize)
        return bad("object size mismatch");
    if (hex64(xxhash64(so.data(), so.size(), /*seed=*/0)) != soHash)
        return bad("object checksum mismatch");
    if (fault::shouldFire("jit.object.corrupt"))
        return bad("fault-injected object corruption");

    if (soPath)
        *soPath = opath;
    return ProbeResult::Hit;
}

Status
publishObject(const std::string &dir, const std::string &key,
              const std::string &tmpSo, const ObjectMeta &meta)
{
    auto so = readFile(tmpSo);
    if (!so.ok())
        return so.status();

    // Object first (rename within the cache dir), manifest last: a
    // reader either finds a complete entry or no manifest at all.
    std::string opath = objectPath(dir, key);
    if (::rename(tmpSo.c_str(), opath.c_str()) != 0)
        return errnoStatus("jit.cache.publish-so", errno);

    std::string body;
    body += std::string("magic ") + kMetaMagic + "\n";
    body += "key " + key + "\n";
    body += "abi " + std::to_string(kAbiVersion) + "\n";
    body += "so-size " + std::to_string(so->size()) + "\n";
    body += "so-hash " + hex64(xxhash64(so->data(), so->size(), 0)) + "\n";
    body += "fp " + meta.fingerprint + "\n";
    body += "compiler " + meta.compiler + "\n";
    body += "flags " + meta.flags + "\n";
    body += "sum " + hex64(xxhash64(body.data(), body.size(), 0)) + "\n";
    return writeFileAtomic(metaPath(dir, key), body);
}

} // namespace dsa::sim::jit
