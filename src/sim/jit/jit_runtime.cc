#include "sim/jit/jit_runtime.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <vector>

#include <dlfcn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/fault.h"
#include "base/files.h"
#include "base/hashing.h"
#include "base/logging.h"

namespace dsa::sim::jit {

namespace {

constexpr const char *kCompileFlags =
    "-O2 -fPIC -shared -std=c++17 -w";

/** Run @p cmd through the shell, capturing combined output; true on
 *  exit status 0. */
bool
runCommand(const std::string &cmd, std::string &out)
{
    out.clear();
    FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return false;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    int st = ::pclose(p);
    return st != -1 && WIFEXITED(st) && WEXITSTATUS(st) == 0;
}

std::string
firstLine(const std::string &s)
{
    size_t eol = s.find('\n');
    std::string line = eol == std::string::npos ? s : s.substr(0, eol);
    if (line.size() > 200)
        line.resize(200);
    return line;
}

std::string
shellQuote(const std::string &s)
{
    std::string q = "'";
    for (char c : s) {
        if (c == '\'')
            q += "'\\''";
        else
            q += c;
    }
    q += "'";
    return q;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

struct JitRuntime::Impl
{
    struct Entry
    {
        KernelFn fn = nullptr; ///< null: the build failed, see diag
        std::string diag;
    };

    std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
    JitStats stats;
    uint64_t objects = 0; ///< objects built so far (names each one)
    bool cxxProbed = false;
    std::string cxx; ///< compiler command ("" = none usable)

    void
    probeCompilerLocked()
    {
        if (cxxProbed)
            return;
        cxxProbed = true;
        std::vector<std::string> cands;
        if (const char *e = std::getenv("DSA_JIT_CXX"); e && *e)
            cands.push_back(e);
        if (const char *e = std::getenv("CXX"); e && *e)
            cands.push_back(e);
        cands.push_back("c++");
        cands.push_back("g++");
        cands.push_back("clang++");
        for (const std::string &c : cands) {
            std::string out;
            if (runCommand(shellQuote(c) + " --version 2>/dev/null",
                           out) &&
                !firstLine(out).empty()) {
                cxx = c;
                return;
            }
        }
    }

    /** Load obj at @p path, honoring the dlopen fault site. Never
     *  dlclose: kernels must outlive every machine using them. */
    bool
    loadObject(const std::string &path, KernelFn &fn, std::string &diag)
    {
        if (fault::shouldFire("jit.dlopen.fail")) {
            diag = "fault-injected dlopen failure";
            return false;
        }
        void *h = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (!h) {
            const char *e = ::dlerror();
            diag = std::string("dlopen: ") + (e ? e : "unknown error");
            return false;
        }
        void *sym = ::dlsym(h, kKernelSymbol);
        if (!sym) {
            const char *e = ::dlerror();
            diag = std::string("dlsym: ") + (e ? e : "symbol missing");
            return false;
        }
        fn = reinterpret_cast<KernelFn>(sym);
        return true;
    }

    /** Compile and load the kernel for @p source in a private
     *  directory, then delete the directory. Called with mu held. */
    Entry
    build(const std::string &source)
    {
        Entry out;
        auto fail = [&](const char *kind, const std::string &why,
                        int64_t JitStats::*ctr) {
            stats.*ctr += 1;
            out.diag = std::string(kind) + ": " + why;
            DSA_WARN("jit: ", out.diag, "; staying on interpreted replay");
            return out;
        };

        if (fault::shouldFire("jit.compile.fail"))
            return fail("compile", "fault-injected compile failure",
                        &JitStats::compileFailures);
        probeCompilerLocked();
        if (cxx.empty())
            return fail("compile", "no working C++ compiler found",
                        &JitStats::compileFailures);

        const char *tmp = std::getenv("TMPDIR");
        std::string dir =
            std::string(tmp && *tmp ? tmp : "/tmp") + "/dsagen-jit-XXXXXX";
        if (!::mkdtemp(dir.data()))
            return fail("compile",
                        errnoStatus("jit.mkdtemp", errno).toString(),
                        &JitStats::compileFailures);
        // glibc's dlopen() returns the already-loaded object for a
        // pathname it has seen, so every object gets a new one. The
        // mapping keeps the deleted file's inode alive, so its device
        // and inode (glibc's other identity check) are never reused.
        const std::string src = dir + "/kernel.cc";
        const std::string obj =
            dir + "/kernel-" + std::to_string(++objects) + ".so";
        std::string log = "cannot write the kernel source";
        bool compiled = false;
        std::ofstream file(src, std::ios::binary);
        file << source;
        file.close();
        if (file)
            compiled = runCommand(shellQuote(cxx) + " " + kCompileFlags +
                                      " " + shellQuote(src) + " -o " +
                                      shellQuote(obj) + " 2>&1",
                                  log);
        std::string diag;
        const bool loaded = compiled && loadObject(obj, out.fn, diag);
        ::unlink(src.c_str());
        ::unlink(obj.c_str());
        ::rmdir(dir.c_str());
        if (!compiled)
            return fail("compile", firstLine(log),
                        &JitStats::compileFailures);
        ++stats.compiles;
        if (!loaded)
            return fail("dlopen", diag, &JitStats::dlopenFailures);
        return out;
    }
};

JitRuntime::JitRuntime() : impl_(new Impl) {}

JitRuntime &
JitRuntime::instance()
{
    static JitRuntime rt;
    return rt;
}

bool
JitRuntime::hostSupported()
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    return true;
#else
    // Generated kernels assume little-endian memcpy element access.
    return false;
#endif
}

bool
JitRuntime::hasCompiler()
{
    std::lock_guard<std::mutex> g(impl_->mu);
    impl_->probeCompilerLocked();
    return !impl_->cxx.empty();
}

uint64_t
JitRuntime::keyOf(const std::string &source)
{
    return xxhash64(source.data(), source.size(), /*seed=*/0x1515);
}

KernelFn
JitRuntime::acquire(uint64_t key, const std::string &source,
                    bool allowCompile)
{
    if (!hostSupported())
        return nullptr;
    std::lock_guard<std::mutex> g(impl_->mu);
    ++impl_->stats.requests;
    auto it = impl_->entries.find(key);
    if (it == impl_->entries.end()) {
        if (!allowCompile)
            return nullptr;
        const double t0 = nowMs();
        Impl::Entry built = impl_->build(source);
        impl_->stats.compileMs += nowMs() - t0;
        it = impl_->entries.emplace(key, std::move(built)).first;
    }
    if (it->second.fn)
        ++impl_->stats.memHits;
    return it->second.fn;
}

std::string
JitRuntime::diagnostic(uint64_t key)
{
    std::lock_guard<std::mutex> g(impl_->mu);
    auto it = impl_->entries.find(key);
    return it == impl_->entries.end() ? std::string() : it->second.diag;
}

JitStats
JitRuntime::stats() const
{
    std::lock_guard<std::mutex> g(impl_->mu);
    return impl_->stats;
}

extern "C" void
dsaJitTrap(int site)
{
    DSA_PANIC("jit kernel out-of-bounds trap (site ", site, ")");
}

} // namespace dsa::sim::jit
