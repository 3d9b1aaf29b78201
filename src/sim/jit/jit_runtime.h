/**
 * @file
 * Process-wide JIT runtime for the simulation tier: turns generated
 * kernel source into callable native functions, asynchronously.
 *
 * acquire() is the only entry point the simulator uses. It is
 * non-blocking by design: the first call for a key registers it and
 * hands the heavy work (cache probe, compiler invocation, dlopen) to
 * a single background worker thread, returning nullptr; the armed
 * region keeps replaying through the interpreted loop until a later
 * call finds the kernel Ready. When anything on the native path fails
 * — no compiler on the host, a compile error, a dlopen failure, an
 * injected fault — the entry parks in Failed with a diagnostic and
 * the simulation permanently (and silently, beyond a log line)
 * continues on the interpreted replay tier: bit-identical results,
 * just slower.
 *
 * Keys are content-addressed — hash(source text, compiler identity,
 * kernel ABI version, sim-options hash) — so every design whose armed
 * period lowers to the same source shares one object, in memory and
 * on disk. The on-disk side is `jit_cache`: one process per key holds
 * the compile claim (a FileLock from base/files.h, released by the
 * kernel if that process dies), the others wait for its published
 * object. Loaded objects are never dlclose()d (kernels may be
 * executing on other threads at exit; the bounded leak is deliberate).
 *
 * Env knobs:
 *   DSA_SIM_JIT_DIR    object cache directory override
 *   DSA_SIM_JIT_SYNC   =1: acquire() blocks until the kernel is
 *                      terminal (Ready/Failed) — deterministic tests
 *   DSA_JIT_CXX        compiler override (else $CXX, c++, g++, clang++)
 *
 * Fault sites (DSA_FAULT): jit.compile.fail, jit.dlopen.fail, and —
 * in jit_cache — jit.object.corrupt.
 */

#ifndef DSA_SIM_JIT_JIT_RUNTIME_H
#define DSA_SIM_JIT_JIT_RUNTIME_H

#include <cstdint>
#include <functional>
#include <string>

#include "sim/jit/jit_emit.h"
#include "sim/jit/jit_stats.h"

namespace dsa::sim::jit {

class JitRuntime
{
  public:
    static JitRuntime &instance();

    /** Static host gate: little-endian with dlopen support. */
    static bool hostSupported();

    /**
     * Compiler identity line (e.g. the first line of `$CXX
     * --version`), discovered once per process; empty when no working
     * compiler exists — callers may still acquire(): cached objects
     * built elsewhere remain loadable.
     */
    const std::string &compilerId();

    /** Content-addressed cache key for a generated kernel. */
    static std::string makeKey(const std::string &source,
                               const std::string &compilerId,
                               uint64_t optionsHash);

    /**
     * Fetch-or-start the kernel for @p key. Returns the callable
     * function when Ready, nullptr otherwise. @p allowCompile gates
     * invoking the compiler (the hot-threshold upgrade); a previous
     * probe-only request is upgraded by a later allowCompile call.
     * With DSA_SIM_JIT_SYNC=1 the call blocks until terminal.
     *
     * @p fingerprint is invoked at most once, and only when this call
     * starts a new background job for the key: the ADG fingerprint is
     * informational manifest metadata, and computing it costs tens of
     * microseconds — warm acquires (memory hits, repeat requests)
     * must not pay that on every Machine.
     */
    KernelFn acquire(const std::string &dir, const std::string &key,
                     const std::string &source,
                     const std::function<std::string()> &fingerprint,
                     bool allowCompile);

    /** Last recorded failure diagnostic for @p key ("" when none). */
    std::string diagnostic(const std::string &dir,
                           const std::string &key);

    JitStats stats() const;

    ~JitRuntime();

  private:
    JitRuntime() = default;
    struct Impl;
    Impl *impl();

    Impl *impl_ = nullptr;
};

/** Kernel OOB trap callback: logs the site and aborts (the native
 *  analogue of the interpreter's always-on bounds DSA_ASSERT). */
extern "C" void dsaJitTrap(int site);

} // namespace dsa::sim::jit

#endif // DSA_SIM_JIT_JIT_RUNTIME_H
