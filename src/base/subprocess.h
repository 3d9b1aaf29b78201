#pragma once

// Supervised child processes with a length-framed pipe protocol.
//
// Subprocess::spawn() forks and execs a program with its stdin/stdout
// attached to a pair of pipes; the parent then exchanges frames (a fixed
// magic + little-endian length header followed by an opaque payload) and
// reaps the child's exit or signal status. Reads honor a Deadline so a
// hung child turns into a DeadlineExceeded status the caller can act on
// (kill + retry elsewhere) instead of a wedged coordinator.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "base/deadline.h"
#include "base/status.h"

namespace dsa {

/** Write one `DSAF` frame to @p fd (used by workers on their own pipe). */
Status writeFrameFd(int fd, const std::string &payload);

/**
 * Read one frame from @p fd, waiting at most until @p deadline.
 * DeadlineExceeded on timeout, DataLoss on EOF or a corrupt header.
 */
Result<std::string> readFrameFd(int fd, const Deadline &deadline);

class Subprocess {
  public:
    struct Options {
        /** argv[0] is the program to exec (searched via PATH if relative). */
        std::vector<std::string> argv;
        /** Extra `KEY=VALUE` environment entries set in the child. */
        std::vector<std::string> extraEnv;
    };

    /** How (or whether) the child ended. */
    struct ExitStatus {
        bool running = false;
        bool exited = false;
        int code = 0; ///< exit code when exited
        bool signaled = false;
        int sig = 0; ///< terminating signal when signaled
        std::string describe() const;
    };

    /** Fork + exec @p opts.argv with stdin/stdout piped to the parent. */
    static Result<std::unique_ptr<Subprocess>> spawn(Options opts);

    /** Path of the currently running executable (for self-exec workers). */
    static std::string selfExe();

    ~Subprocess(); ///< kills (SIGKILL) and reaps a still-running child

    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;

    pid_t pid() const { return pid_; }

    /** Send one frame to the child's stdin. */
    Status writeFrame(const std::string &payload);

    /** Receive one frame from the child's stdout. */
    Result<std::string> readFrame(const Deadline &deadline);

    /** Non-blocking reap: current run/exit/signal state. */
    ExitStatus poll();

    /** Reap the child, polling until @p deadline (then reports running). */
    ExitStatus wait(const Deadline &deadline);

    /** Send @p sig to the child if it has not been reaped yet. */
    void kill(int sig);

    /** Close the protocol pipes (EOF for the child's stdin). */
    void closePipes();

  private:
    Subprocess() = default;

    pid_t pid_ = -1;
    int inFd_ = -1;  ///< parent writes -> child stdin
    int outFd_ = -1; ///< parent reads <- child stdout
    ExitStatus last_;
    bool reaped_ = false;
};

} // namespace dsa
