#include "base/files.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/fault.h"
#include "base/logging.h"

namespace dsa {

namespace {

/** errnoStatus for the call on @p path that just failed. */
Status lastError(const char *op, const std::string &path)
{
    int err = errno; // before building the message can disturb it
    return errnoStatus(std::string(op) + " '" + path + "'", err);
}

/** fsync the directory holding @p path, so a rename into it is durable. */
Status syncParentDir(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? "."
                      : slash == 0               ? "/"
                                                 : path.substr(0, slash);
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return lastError("open", dir);
    Status s;
    if (::fsync(fd) != 0)
        s = lastError("fsync", dir);
    ::close(fd);
    return s;
}

} // namespace

Status errnoStatus(std::string_view site, int err)
{
    return Status::internal(std::string(site) + ": " + std::strerror(err) +
                            " (errno " + std::to_string(err) + ")");
}

Status writeAll(int fd, std::string_view bytes, std::string_view site)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus(site, errno);
        }
        off += static_cast<size_t>(n);
    }
    return Status();
}

Result<std::string> readFile(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        bool missing = errno == ENOENT;
        Status s = lastError("open", path);
        return missing ? Status::notFound(s.message()) : s;
    }
    std::string data;
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            Status s = lastError("read", path);
            ::close(fd);
            return s;
        }
        if (n == 0)
            break;
        data.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return data;
}

Status makeDirs(const std::string &path)
{
    // Create each prefix in turn. EEXIST is the normal case for the
    // leading components; ENOTDIR (a prefix is a file) falls through
    // to the directory check below.
    for (size_t i = 1; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/')
            continue;
        std::string prefix = path.substr(0, i);
        if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST &&
            errno != ENOTDIR)
            return lastError("mkdir", prefix);
    }
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        return Status::invalidArgument("'" + path + "' is not a directory");
    return Status();
}

Status writeFileAtomic(const std::string &path, std::string_view bytes,
                       const char *tearSite)
{
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
    if (fd < 0)
        return lastError("open", tmp);
    Status s = writeAll(fd, bytes, "write '" + tmp + "'");
    if (s.ok() && tearSite && fault::shouldFire(tearSite)) {
        (void)::ftruncate(fd, static_cast<off_t>(bytes.size() / 2));
        ::close(fd);
        return Status::dataLoss("fault-injected torn write to '" + tmp + "'");
    }
    // The rename only yields a durable file if the data reaches disk
    // first: otherwise a power loss can promote an empty temp file.
    if (s.ok() && ::fsync(fd) != 0)
        s = lastError("fsync", tmp);
    if (::close(fd) != 0 && s.ok())
        s = lastError("close", tmp);
    if (s.ok() && ::rename(tmp.c_str(), path.c_str()) != 0)
        s = lastError("rename", tmp);
    if (!s.ok()) {
        ::unlink(tmp.c_str());
        return s;
    }
    // The new name lives in the directory, which has its own write-back
    // cache; fsync it so the rename survives a power loss.
    return syncParentDir(path);
}

Result<bool> FileLock::tryLock(const std::string &path)
{
    DSA_ASSERT(!held(), "FileLock::tryLock on a held lock: ", path_);
    for (;;) {
        int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
        if (fd < 0)
            return lastError("open", path);
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            if (errno == EWOULDBLOCK) {
                ::close(fd);
                return false; // held by someone else
            }
            Status s = lastError("flock", path);
            ::close(fd);
            return s;
        }
        // The previous holder unlinks the file before releasing it. If
        // that happened between our open and flock, we hold a lock on
        // an orphaned inode: drop it and contend for the current file.
        struct stat mine, named;
        if (::fstat(fd, &mine) == 0 && ::stat(path.c_str(), &named) == 0 &&
            mine.st_dev == named.st_dev && mine.st_ino == named.st_ino) {
            fd_ = fd;
            path_ = path;
            return true;
        }
        ::close(fd);
    }
}

void FileLock::unlock()
{
    if (fd_ < 0)
        return;
    // Unlink while still holding: nobody else can hold this inode, and
    // whoever opened it meanwhile fails the inode check and retries.
    ::unlink(path_.c_str());
    ::close(fd_);
    fd_ = -1;
    path_.clear();
}

} // namespace dsa
