#include "dse/cache_store.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "base/fault.h"
#include "base/files.h"
#include "base/hashing.h"
#include "base/logging.h"
#include "dse/entry_codec.h"

namespace dsa::dse {

namespace {

// Record layout: magic, u32 LE payload length, u64 LE xxhash64 of the
// payload, then the payload (one encodeEvalEntry encoding). The magic
// names the payload format: segments from builds that wrote JSON
// payloads under "DSEC" hold no record this build reads, so the scan
// quarantines each such file as one region and compaction retires it.
constexpr char kRecordMagic[4] = {'D', 'S', 'E', '2'};
constexpr size_t kRecordHeader = 4 + 4 + 8;
constexpr uint32_t kMaxRecordBytes = 64u << 20;
constexpr uint64_t kChecksumSeed = 0x647361636163ull; // "dsacac"
/** maybeCompact() merges the store past this many segment files. */
constexpr size_t kCompactSegments = 8;

void putU32(std::string &buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void putU64(std::string &buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint32_t getU32(const unsigned char *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t getU64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Owner pid encoded in a segment file name (`seg-<pid>-...`), or -1. */
pid_t segmentOwner(const std::string &name)
{
    int pid = 0;
    if (std::sscanf(name.c_str(), "seg-%d-", &pid) == 1 && pid > 0)
        return static_cast<pid_t>(pid);
    return -1;
}

bool isSegmentName(const std::string &name)
{
    return name.size() > 9 && name.compare(0, 4, "seg-") == 0 &&
           name.compare(name.size() - 5, 5, ".dsec") == 0;
}

Result<std::vector<std::string>> listSegments(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return errnoStatus("store.opendir", errno);
    std::vector<std::string> names;
    while (struct dirent *ent = ::readdir(d)) {
        std::string name = ent->d_name;
        if (isSegmentName(name))
            names.push_back(name);
    }
    ::closedir(d);
    // Sorted so every process scans segments in the same order.
    std::sort(names.begin(), names.end());
    return names;
}

std::string serializeRecord(const EvalKey &key, const EvalCacheEntry &entry)
{
    std::string payload = encodeEvalEntry(key, entry);
    std::string buf;
    buf.reserve(kRecordHeader + payload.size());
    buf.append(kRecordMagic, sizeof(kRecordMagic));
    putU32(buf, static_cast<uint32_t>(payload.size()));
    putU64(buf, xxhash64(payload.data(), payload.size(), kChecksumSeed));
    buf.append(payload);
    return buf;
}

/**
 * Scan one segment's bytes, invoking @p sink per good record. Bad
 * records are quarantined: counted once per corrupt region, logged
 * with their offset, and skipped by resynchronizing on the next
 * record magic.
 */
template <typename Sink>
void scanSegment(const std::string &name, const std::string &data,
                 CacheStoreStats &stats, Sink &&sink)
{
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(data.data());
    size_t off = 0;
    auto resync = [&](const char *why, size_t at) {
        ++stats.recordsQuarantined;
        DSA_WARN("cache store: quarantined ", why, " in '", name,
                 "' at offset ", at, " (", data.size(), " bytes total)");
        // Skip forward to the next plausible record start.
        size_t next = data.find(std::string(kRecordMagic, 4), at + 1);
        off = next == std::string::npos ? data.size() : next;
    };
    while (off < data.size()) {
        if (off + kRecordHeader > data.size()) {
            resync("torn record header", off);
            continue;
        }
        if (std::memcmp(bytes + off, kRecordMagic, 4) != 0) {
            resync("bad record magic", off);
            continue;
        }
        uint32_t len = getU32(bytes + off + 4);
        uint64_t sum = getU64(bytes + off + 8);
        if (len > kMaxRecordBytes || off + kRecordHeader + len > data.size()) {
            resync("torn or oversized record", off);
            continue;
        }
        const char *payload = data.data() + off + kRecordHeader;
        if (xxhash64(payload, len, kChecksumSeed) != sum) {
            resync("checksum mismatch", off);
            continue;
        }
        auto rec = decodeEvalEntry(std::string_view(payload, len));
        if (!rec.ok()) {
            resync("malformed record payload", off);
            continue;
        }
        sink(rec.value());
        off += kRecordHeader + len;
    }
}

} // namespace

CacheStore::CacheStore(std::string dir) : dir_(std::move(dir)) {}

CacheStore::~CacheStore()
{
    flush();
}

Status CacheStore::open()
{
    return makeDirs(dir_);
}

Status CacheStore::loadInto(EvalCache &cache)
{
    auto names = listSegments(dir_);
    if (!names.ok())
        return names.status();
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string &name : *names) {
        auto data = readFile(dir_ + "/" + name);
        if (!data.ok()) {
            // A segment can vanish mid-scan (concurrent compaction
            // unlinked it); its records live on in the merged segment.
            DSA_WARN("cache store: skipping unreadable segment '", name,
                     "': ", data.status().toString());
            continue;
        }
        ++stats_.segmentsLoaded;
        scanSegment(name, *data, stats_, [&](const EvalStoreRecord &rec) {
            cache.restore(rec.key, rec.entry);
            ++stats_.recordsLoaded;
        });
    }
    return Status();
}

Status CacheStore::ensureSegmentLocked()
{
    if (segFd_ >= 0)
        return Status();
    // One writer per segment file, guaranteed by O_EXCL on a
    // pid-unique name (the counter covers reopen-after-flush and
    // multiple stores in one process).
    static std::atomic<uint64_t> counter{0};
    for (int tries = 0; tries < 64; ++tries) {
        uint64_t n = counter.fetch_add(1);
        std::string path = dir_ + "/seg-" + std::to_string(::getpid()) + "-" +
                           std::to_string(n) + ".dsec";
        int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
                        0644);
        if (fd >= 0) {
            segFd_ = fd;
            segPath_ = path;
            return Status();
        }
        if (errno != EEXIST)
            return errnoStatus("store.segment-open", errno);
    }
    return Status::internal("cache store: cannot allocate a segment name in '" +
                            dir_ + "'");
}

Status CacheStore::append(const EvalKey &key, const EvalCacheEntry &entry)
{
    std::lock_guard<std::mutex> lock(mu_);
    Status s = ensureSegmentLocked();
    if (!s.ok())
        return s;
    std::string rec = serializeRecord(key, entry);
    if (fault::shouldFire("store.append.flip")) {
        // Bit rot: corrupt one payload byte after the checksum was
        // computed, so loads must detect and quarantine this record.
        DSA_WARN("fault 'store.append.flip': flipping a byte in '", segPath_,
                 "'");
        rec[kRecordHeader + rec.size() / 2 % (rec.size() - kRecordHeader)] ^=
            0x40;
    }
    size_t len = rec.size();
    if (fault::shouldFire("store.append.tear")) {
        // Writer killed mid-append: only half the record reaches disk.
        DSA_WARN("fault 'store.append.tear': writing a torn record to '",
                 segPath_, "'");
        len = kRecordHeader + (len - kRecordHeader) / 2;
    }
    s = writeAll(segFd_, std::string_view(rec).substr(0, len), "store.append");
    if (!s.ok())
        return s;
    ++stats_.appends;
    return Status();
}

void CacheStore::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (segFd_ < 0)
        return;
    if (::fsync(segFd_) != 0)
        DSA_WARN("cache store: fsync('", segPath_,
                 "') failed: ", std::strerror(errno));
    ::close(segFd_);
    segFd_ = -1;
    segPath_.clear();
}

Result<bool> CacheStore::compact()
{
    // Held until we return. Another live compactor makes us decline;
    // a dead one released it when the kernel reaped it.
    FileLock lease;
    auto got = lease.tryLock(dir_ + "/compact.lease");
    if (!got.ok() || !*got)
        return got;

    // Our own write segment must be complete on disk before the merge
    // reads it (and we want its records in the merged file).
    flush();

    auto names = listSegments(dir_);
    if (!names.ok())
        return names.status();
    if (names->size() < 2)
        return true; // nothing to merge

    // Dedup by key: entries are pure functions of the key, so any
    // duplicate's payload is interchangeable (last one wins).
    std::map<EvalKey, std::string> merged;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const std::string &name : *names) {
            auto data = readFile(dir_ + "/" + name);
            if (!data.ok())
                continue;
            scanSegment(name, *data, stats_, [&](const EvalStoreRecord &rec) {
                merged[rec.key] = serializeRecord(rec.key, *rec.entry);
            });
        }
    }
    std::string bytes;
    for (const auto &[key, rec] : merged)
        bytes += rec;

    // The merged segment is durable under its name (directory synced)
    // before any old segment is unlinked, so a crash mid-compaction
    // leaves the old segments, the merged one, or both (duplicates are
    // harmless) — never a record in neither.
    std::string mergedPath = dir_ + "/seg-" + std::to_string(::getpid()) +
                             "-merge.dsec";
    Status s = writeFileAtomic(mergedPath, bytes);
    if (!s.ok())
        return s;
    pid_t self = ::getpid();
    std::string active;
    {
        std::lock_guard<std::mutex> lock(mu_);
        active = segPath_;
    }
    uint64_t liveSkipped = 0;
    for (const std::string &name : *names) {
        std::string path = dir_ + "/" + name;
        if (path == mergedPath || path == active)
            continue;
        pid_t owner = segmentOwner(name);
        if (owner > 0 && owner != self &&
            !(::kill(owner, 0) != 0 && errno == ESRCH)) {
            // A live writer may have appended to this segment after
            // the merge snapshotted it; unlinking now would silently
            // drop those records. Leave it — a later compaction
            // retires it once its owner exits.
            ++liveSkipped;
            continue;
        }
        ::unlink(path.c_str());
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.liveSegmentsSkipped += liveSkipped;
    ++stats_.compactions;
    return true;
}

void CacheStore::maybeCompact()
{
    auto names = listSegments(dir_);
    if (!names.ok() || names->size() <= kCompactSegments)
        return;
    auto done = compact();
    if (!done.ok())
        DSA_WARN("cache store: compaction failed: ", done.status().toString());
}

CacheStoreStats CacheStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace dsa::dse
