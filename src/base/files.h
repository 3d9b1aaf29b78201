#pragma once

// Durable file writes and single-writer locks.
//
// Everything this codebase keeps on disk across crashes and processes
// (DSE checkpoints, the shared eval-cache store) goes through these
// primitives, so two decisions live in one place:
//
//  - How a file is made durable. writeFileAtomic() writes `<path>.tmp`,
//    fsyncs it, renames it over `path` and fsyncs the directory. A
//    crash at any point leaves either the previous file or the complete
//    new one under `path`, never a torn file.
//  - How one process wins the right to write. FileLock is an advisory
//    flock(2) on a lock file. The kernel drops it when its holder exits
//    or is killed, so a dead holder never blocks anyone and there is no
//    staleness rule to tune or race on.

#include <string>
#include <string_view>

#include "base/status.h"

namespace dsa {

/** Structured Status for a failed syscall: site, strerror text, errno. */
Status errnoStatus(std::string_view site, int err);

/** Write all of @p bytes to @p fd, retrying short writes and EINTR. */
Status writeAll(int fd, std::string_view bytes, std::string_view site);

/** Whole-file read. NotFound when @p path does not exist. */
Result<std::string> readFile(const std::string &path);

/**
 * mkdir -p @p path. InvalidArgument when it (or a prefix) exists but
 * is not a directory.
 */
Status makeDirs(const std::string &path);

/**
 * Replace @p path with @p bytes durably: write and fsync `<path>.tmp`,
 * rename it over @p path, then fsync the directory. On failure @p path
 * is untouched. When @p tearSite is given and fires (base/fault.h), the
 * temp file is truncated to half its bytes and left behind between the
 * write and the rename, and DataLoss is returned: a simulated power
 * loss mid-save.
 */
Status writeFileAtomic(const std::string &path, std::string_view bytes,
                       const char *tearSite = nullptr);

/**
 * Exclusive, non-blocking lock on a file: flock(LOCK_EX | LOCK_NB) on
 * an O_CLOEXEC descriptor (so exec'ed children never inherit it). Locks
 * are per open file, so a second FileLock in the same process is
 * refused too. unlock() unlinks the file while still holding it, and
 * tryLock() re-checks that the path still names the inode it locked,
 * so a contender that opened the file just before an unlink retries on
 * the new one instead of holding a lock nobody else can see.
 */
class FileLock {
  public:
    FileLock() = default;
    ~FileLock() { unlock(); }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /**
     * Take the lock at @p path (created if absent). True when this
     * object now holds it, false when another holder does; an error
     * only when the file cannot be opened or locked at all.
     */
    Result<bool> tryLock(const std::string &path);

    bool held() const { return fd_ >= 0; }

    /** Unlink the lock file and release (idempotent; run by the dtor). */
    void unlock();

  private:
    int fd_ = -1;
    std::string path_;
};

} // namespace dsa
