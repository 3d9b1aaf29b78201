#include "base/subprocess.h"

#include <cerrno>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/files.h"
#include "base/logging.h"

extern char **environ;

namespace dsa {

namespace {

// Frame header: 4 magic bytes + u32 little-endian payload length.
constexpr char kMagic[4] = {'D', 'S', 'A', 'F'};
constexpr size_t kHeaderSize = 8;
// A frame carries at most one candidate batch (ADG texts + an encoded
// repair cache); 256 MiB is far past any legitimate payload and catches
// a corrupted length field before it turns into an allocation bomb.
constexpr uint32_t kMaxFrameBytes = 256u << 20;

void ignoreSigpipeOnce()
{
    // A write into a pipe whose reader died must surface as EPIPE (a
    // Status the coordinator's retry ladder handles), not kill the
    // coordinator with SIGPIPE.
    static std::once_flag once;
    std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

/** Read exactly @p len bytes, polling so the deadline can interrupt. */
Status readAll(int fd, char *data, size_t len, const Deadline &deadline,
               const char *site)
{
    size_t off = 0;
    while (off < len) {
        if (deadline.expired())
            return Status::deadlineExceeded(std::string(site) +
                                            ": timed out waiting for frame");
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        int64_t waitMs = deadline.unlimited()
                             ? 1000
                             : std::min<int64_t>(deadline.remainingMs(), 1000);
        int pr = ::poll(&pfd, 1, static_cast<int>(waitMs));
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus(site, errno);
        }
        if (pr == 0)
            continue; // poll tick; loop re-checks the deadline
        ssize_t n = ::read(fd, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            return errnoStatus(site, errno);
        }
        if (n == 0)
            return Status::dataLoss(std::string(site) +
                                    ": pipe closed mid-frame (peer died?)");
        off += static_cast<size_t>(n);
    }
    return Status();
}

} // namespace

Status writeFrameFd(int fd, const std::string &payload)
{
    ignoreSigpipeOnce();
    if (payload.size() > kMaxFrameBytes)
        return Status::invalidArgument("frame payload too large (" +
                                       std::to_string(payload.size()) +
                                       " bytes)");
    std::string buf;
    buf.reserve(kHeaderSize + payload.size());
    buf.append(kMagic, sizeof(kMagic));
    uint32_t len = static_cast<uint32_t>(payload.size());
    char lenBytes[4] = {static_cast<char>(len & 0xff),
                        static_cast<char>((len >> 8) & 0xff),
                        static_cast<char>((len >> 16) & 0xff),
                        static_cast<char>((len >> 24) & 0xff)};
    buf.append(lenBytes, sizeof(lenBytes));
    buf.append(payload);
    return writeAll(fd, buf, "subprocess.write");
}

Result<std::string> readFrameFd(int fd, const Deadline &deadline)
{
    char header[kHeaderSize];
    Status s = readAll(fd, header, kHeaderSize, deadline, "subprocess.read");
    if (!s.ok())
        return s;
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
        return Status::dataLoss("subprocess.read: bad frame magic");
    uint32_t len = (static_cast<uint32_t>(static_cast<unsigned char>(header[4]))) |
                   (static_cast<uint32_t>(static_cast<unsigned char>(header[5])) << 8) |
                   (static_cast<uint32_t>(static_cast<unsigned char>(header[6])) << 16) |
                   (static_cast<uint32_t>(static_cast<unsigned char>(header[7])) << 24);
    if (len > kMaxFrameBytes)
        return Status::dataLoss("subprocess.read: frame length " +
                                std::to_string(len) + " exceeds limit");
    std::string payload(len, '\0');
    if (len > 0) {
        s = readAll(fd, &payload[0], len, deadline, "subprocess.read");
        if (!s.ok())
            return s;
    }
    return payload;
}

std::string Subprocess::ExitStatus::describe() const
{
    if (running)
        return "running";
    if (exited)
        return "exited with code " + std::to_string(code);
    if (signaled)
        return "killed by signal " + std::to_string(sig) + " (" +
               ::strsignal(sig) + ")";
    return "unknown state";
}

Result<std::unique_ptr<Subprocess>> Subprocess::spawn(Options opts)
{
    if (opts.argv.empty())
        return Status::invalidArgument("subprocess.spawn: empty argv");
    ignoreSigpipeOnce();

    // Everything the child touches between fork() and exec must be
    // async-signal-safe: the parent is multithreaded (coordinator
    // thread pool, worker restarts mid-run), so another thread can
    // hold the malloc lock at fork time and any allocation — or
    // setenv — in the child would deadlock before exec. Build argv
    // and a merged envp up front, so the child only dup2s and execs.
    std::vector<std::string> envStore;
    for (char **e = environ; e && *e; ++e) {
        const char *kv = *e;
        const char *eq = std::strchr(kv, '=');
        bool overridden = false;
        if (eq) {
            size_t keyLen = static_cast<size_t>(eq - kv) + 1; // "KEY="
            for (const std::string &extra : opts.extraEnv)
                if (extra.compare(0, keyLen, kv, keyLen) == 0) {
                    overridden = true;
                    break;
                }
        }
        if (!overridden)
            envStore.emplace_back(kv);
    }
    for (const std::string &kv : opts.extraEnv) {
        size_t eq = kv.find('=');
        if (eq != std::string::npos && eq != 0)
            envStore.push_back(kv);
    }
    std::vector<char *> envp;
    envp.reserve(envStore.size() + 1);
    for (std::string &s : envStore)
        envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<char *> argvp;
    argvp.reserve(opts.argv.size() + 1);
    for (std::string &a : opts.argv)
        argvp.push_back(a.data());
    argvp.push_back(nullptr);

    int inPipe[2];  // parent writes [1] -> child reads [0] as stdin
    int outPipe[2]; // child writes [1] as stdout -> parent reads [0]
    if (::pipe2(inPipe, O_CLOEXEC) != 0)
        return errnoStatus("subprocess.pipe", errno);
    if (::pipe2(outPipe, O_CLOEXEC) != 0) {
        int err = errno;
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        return errnoStatus("subprocess.pipe", err);
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        int err = errno;
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        return errnoStatus("subprocess.fork", err);
    }

    if (pid == 0) {
        // Child. dup2 clears O_CLOEXEC on the stdio copies; the
        // originals (and every other CLOEXEC fd, e.g. sibling workers'
        // pipes) close at exec, so a dead sibling's pipe still EOFs.
        if (::dup2(inPipe[0], STDIN_FILENO) < 0 ||
            ::dup2(outPipe[1], STDOUT_FILENO) < 0)
            ::_exit(127);
        ::execvpe(argvp[0], argvp.data(), envp.data());
        ::_exit(127);
    }

    // Parent.
    ::close(inPipe[0]);
    ::close(outPipe[1]);
    std::unique_ptr<Subprocess> proc(new Subprocess);
    proc->pid_ = pid;
    proc->inFd_ = inPipe[1];
    proc->outFd_ = outPipe[0];
    proc->last_.running = true;
    return proc;
}

std::string Subprocess::selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "/proc/self/exe"; // execvp on the link itself still works
    buf[n] = '\0';
    return buf;
}

Subprocess::~Subprocess()
{
    closePipes();
    if (!reaped_ && pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int st = 0;
        while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
        }
    }
}

Status Subprocess::writeFrame(const std::string &payload)
{
    if (inFd_ < 0)
        return Status::internal("subprocess.write: pipe already closed");
    return writeFrameFd(inFd_, payload);
}

Result<std::string> Subprocess::readFrame(const Deadline &deadline)
{
    if (outFd_ < 0)
        return Status::internal("subprocess.read: pipe already closed");
    return readFrameFd(outFd_, deadline);
}

Subprocess::ExitStatus Subprocess::poll()
{
    if (reaped_ || pid_ <= 0)
        return last_;
    int st = 0;
    pid_t r = ::waitpid(pid_, &st, WNOHANG);
    if (r == pid_) {
        reaped_ = true;
        last_.running = false;
        if (WIFEXITED(st)) {
            last_.exited = true;
            last_.code = WEXITSTATUS(st);
        } else if (WIFSIGNALED(st)) {
            last_.signaled = true;
            last_.sig = WTERMSIG(st);
        }
    }
    return last_;
}

Subprocess::ExitStatus Subprocess::wait(const Deadline &deadline)
{
    for (;;) {
        ExitStatus st = poll();
        if (!st.running || deadline.expired())
            return st;
        ::usleep(2000);
    }
}

void Subprocess::kill(int sig)
{
    if (!reaped_ && pid_ > 0)
        ::kill(pid_, sig);
}

void Subprocess::closePipes()
{
    if (inFd_ >= 0) {
        ::close(inFd_);
        inFd_ = -1;
    }
    if (outFd_ >= 0) {
        ::close(outFd_);
        outFd_ = -1;
    }
}

} // namespace dsa
