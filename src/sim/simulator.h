/**
 * @file
 * Cycle-level simulator of a scheduled decoupled program on an ADG
 * (§VII "Simulation"). Models stream engines with per-memory bandwidth
 * and banked indirect throughput, vector ports (sync elements) with
 * buffering and reuse, static/dynamic PEs with stream-join control and
 * accumulator registers, routed-path latencies from the spatial
 * schedule, shared-PE temporal multiplexing, control-core command
 * overhead and re-issue sequencing, on-fabric recurrences, and
 * producer-consumer forwards (direct or via-memory with a phase
 * barrier). Serialized (control-core fallback) regions execute
 * functionally with their serial dependence latency.
 *
 * The simulator both *times* the execution and *performs* it: all
 * stores land in the MemImage, which tests compare against the golden
 * interpreter's output.
 */

#ifndef DSA_SIM_SIMULATOR_H
#define DSA_SIM_SIMULATOR_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adg/adg.h"
#include "base/deadline.h"
#include "base/status.h"
#include "dfg/program.h"
#include "mapper/schedule.h"
#include "sim/memory_image.h"

namespace dsa::sim {

/**
 * Simulator engines, slowest to fastest. Each produces a bit-identical
 * SimResult and byte-identical MemImage to the one before it, on every
 * path including aborts (enforced by tests/test_sim_{sparse,compiled,
 * jit}.cc); only wall-clock time and the SimResult engine accounting
 * differ. The slower engines stay as the oracles the faster ones are
 * checked against.
 */
enum class Engine
{
    /** The original time-stepped loop: every component every cycle. */
    Dense,
    /**
     * Event-driven loop: tick only regions/streams/forwards with live
     * work, and when a whole cycle produces no activity and no state
     * transition, jump time straight to the next event (stream
     * throttles, pipe arrivals, command-issue and reconfiguration
     * deadlines, quiesce windows, the progress-watchdog horizon).
     */
    Sparse,
    /**
     * Sparse plus compiled steady state: at sim-build time each
     * region's dataflow is lowered to a flattened compute plan, and
     * whenever the machine is in steady state (no controller
     * movement, no region lifecycle transition) whole cycles run as
     * straight-line plan execution or as replay of a recorded
     * steady-state period. Any reconfiguration, drain, stall, or
     * lifecycle event falls back to the interpreted tick.
     */
    Compiled,
    /**
     * Compiled plus runtime code generation: once a machine has
     * replayed jitHotCycles cycles, an armed period program is lowered
     * to C++, compiled to a shared object on the simulating thread,
     * dlopen()ed, and whole replay chunks then run natively. Kernels
     * are registered per process by a hash of their source
     * (sim/jit/jit_runtime.h), so every machine in the process that
     * arms the same program shares one compile; nothing is cached
     * across processes. Degrades silently to Compiled when the host
     * has no compiler, compilation fails, or a fault site fires.
     */
    Jit,
};

/** Lower-case engine name: "dense", "sparse", "compiled" or "jit". */
const char *engineName(Engine e);

/** Parse an engineName(); InvalidArgument listing the accepted names
 *  (with a did-you-mean suggestion) otherwise. */
Result<Engine> parseEngine(const std::string &name);

/**
 * Default for SimOptions::engine: Jit, unless the environment variable
 * DSA_SIM_ENGINE names another engine (read once per process). CI uses
 * it to run whole behavioural suites on a slower engine so those paths
 * cannot rot. An unrecognised value is a fatal configuration error.
 */
Engine defaultEngine();

/** Simulation knobs. */
struct SimOptions
{
    /** Abort (with error) if the program exceeds this many cycles. */
    int64_t maxCycles = 200'000'000;
    /** Cycles per element for scalar-issued fallback streams. */
    int scalarElementInterval = 4;
    /**
     * Deadlock watchdog: abort when no global progress — no port
     * fire, instruction fire, stream element, or region state change
     * anywhere in the machine — happens for this many consecutive
     * cycles. The error names the stalled regions, their ports, and
     * FIFO occupancies, instead of silently burning maxCycles. Must
     * stay well above legitimate quiet spells (quiesce windows,
     * command issue, reconfiguration — all well under 10^4 cycles);
     * 0 disables the check.
     */
    int64_t progressWindow = 1'000'000;
    /**
     * Cooperative wall-clock cap (default: unlimited), polled every
     * few thousand cycles; on expiry the run aborts with
     * DeadlineExceeded and partial stats. Which wall cycle expiry is
     * noticed on is nondeterministic, so this is the one abort path
     * on which two engines may legitimately disagree.
     */
    Deadline deadline;
    /** Engine that runs the simulation (see defaultEngine()). */
    Engine engine = defaultEngine();
    /**
     * Oracle cross-check: also run this reference engine on a copy of
     * the memory image, compare the two SimResults bit-exactly and
     * both address spaces byte-exactly, and turn the first divergence
     * into an Internal error naming the field. The returned result and
     * image are `engine`'s. Do not combine with a limited deadline.
     */
    std::optional<Engine> checkAgainst;
    /**
     * Jit compile threshold: invoke the compiler only once a machine
     * has replayed at least this many cycles (a kernel another machine
     * in the process already compiled is used regardless). 0 compiles
     * eagerly at arm.
     */
    int64_t jitHotCycles = 65536;
};

/** Per-region outcome. */
struct RegionSimStats
{
    int64_t fires = 0;       ///< input-vector pops (DFG instances)
    int64_t endCycle = 0;    ///< completion time (last cycle on abort)
    bool complete = false;   ///< region retired all issues
    /** Lifecycle state at the end of the run ("complete", "running",
     *  "wait-dep", ... — diagnostic on aborted runs). */
    std::string state;
};

/** Whole-run outcome. */
struct SimResult
{
    bool ok = false;
    std::string error;
    /** Structured abort reason: ResourceExhausted (cycle limit),
     *  Deadlock (progress window), DeadlineExceeded (wall clock). */
    Status status;
    int64_t cycles = 0;
    /** Per-region stats; populated on aborts too (partial, with the
     *  abort-time state) so failures are diagnosable. */
    std::vector<RegionSimStats> regions;
    /** Firing counts per PE (utilization reporting). */
    std::map<adg::NodeId, int64_t> peFires;
    /** Bytes moved per memory node. */
    std::map<adg::NodeId, int64_t> memBytes;
    /// @name Engine accounting (which loop executed each wall cycle;
    /// diagnostic only — deliberately excluded from the cross-engine
    /// equivalence checks, since the split differs by construction)
    /// @{
    int64_t cyclesCompiled = 0;  ///< compiled steady-state cycles
    int64_t cyclesGeneric = 0;   ///< interpreted (dense or sparse) cycles
    int64_t cyclesSkipped = 0;   ///< idle cycles jumped over wholesale
    /** Of cyclesCompiled, cycles executed by period replay (a recorded
     *  steady-state period's trace re-run with no gate evaluation). */
    int64_t cyclesReplayed = 0;
    /** Of cyclesReplayed, cycles executed by a jit-compiled native
     *  kernel rather than the interpreted replay loop. */
    int64_t cyclesJit = 0;
    /// @}
};

/**
 * Simulate @p prog (as mapped by @p sched) on @p adg over @p mem.
 * @p mem is mutated: all stream writes land in it.
 */
SimResult simulate(const dfg::DecoupledProgram &prog,
                   const mapper::Schedule &sched, const adg::Adg &adg,
                   MemImage &mem, const SimOptions &opts = {});

/**
 * First field that differs between a reference run and a checked run,
 * named with both values where they are short ("" when bit-identical).
 * Covers everything except the engine accounting counters: status,
 * error text, cycles, every region's stats, the PE/memory maps, and
 * both address spaces of the two memory images.
 */
std::string firstDivergence(const SimResult &ref, const SimResult &got,
                            const MemImage &refMem, const MemImage &gotMem);

} // namespace dsa::sim

#endif // DSA_SIM_SIMULATOR_H
