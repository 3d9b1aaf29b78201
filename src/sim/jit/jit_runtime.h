/**
 * @file
 * Process-wide JIT runtime for the simulation tier: turns generated
 * kernel source into callable native functions, synchronously and in
 * process.
 *
 * acquire() is the only entry point the simulator uses. It looks the
 * kernel up in a process-wide registry keyed by a content hash of the
 * generated source, so every design whose armed period lowers to the
 * same source shares one kernel. On a miss where compiling is allowed,
 * the calling thread compiles the source in a private mkdtemp(3)
 * directory under $TMPDIR, dlopen()s the object and deletes the files
 * before acquire() returns, all under the registry's one mutex. When
 * anything on the native path fails — no compiler on the host, a
 * compile error, a dlopen failure, an injected fault — the kernel parks
 * in Failed with a diagnostic and the simulation continues on the
 * interpreted replay tier: bit-identical results, just slower.
 *
 * Nothing persists between processes: the runtime starts no thread and
 * reads no file that it did not just write, so each process pays its
 * own compiles. Loaded objects are never dlclose()d (kernels may be
 * executing on other threads at exit; the bounded leak is deliberate).
 *
 * Env knob:
 *   DSA_JIT_CXX        compiler override (else $CXX, c++, g++, clang++)
 *
 * Fault sites (DSA_FAULT): jit.compile.fail, jit.dlopen.fail.
 */

#ifndef DSA_SIM_JIT_JIT_RUNTIME_H
#define DSA_SIM_JIT_JIT_RUNTIME_H

#include <cstdint>
#include <string>

#include "sim/jit/jit_emit.h"
#include "sim/jit/jit_stats.h"

namespace dsa::sim::jit {

class JitRuntime
{
  public:
    static JitRuntime &instance();

    JitRuntime(const JitRuntime &) = delete;
    JitRuntime &operator=(const JitRuntime &) = delete;

    /** Static host gate: little-endian with dlopen support. */
    static bool hostSupported();

    /** True when a working C++ compiler was found (probed once per
     *  process). */
    bool hasCompiler();

    /** Registry key of a generated kernel: a hash of its source. */
    static uint64_t keyOf(const std::string &source);

    /**
     * The kernel for @p source (whose keyOf() is @p key), or nullptr.
     * A registered kernel is returned at once; a failed one returns
     * nullptr without retrying. On a miss, @p allowCompile (the
     * hot-threshold gate) decides: false returns nullptr and registers
     * nothing, true compiles and loads the kernel before returning.
     */
    KernelFn acquire(uint64_t key, const std::string &source,
                     bool allowCompile);

    /** Failure diagnostic recorded for @p key ("" when none). */
    std::string diagnostic(uint64_t key);

    JitStats stats() const;

  private:
    JitRuntime();
    struct Impl;
    Impl *impl_; ///< never freed: kernels outlive every machine
};

/** Kernel OOB trap callback: logs the site and aborts (the native
 *  analogue of the interpreter's always-on bounds DSA_ASSERT). */
extern "C" void dsaJitTrap(int site);

} // namespace dsa::sim::jit

#endif // DSA_SIM_JIT_JIT_RUNTIME_H
