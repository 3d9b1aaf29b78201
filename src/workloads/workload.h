/**
 * @file
 * Workload registry: every kernel of Table I (MachSuite, Sparse, DSP,
 * PolyBench suites), the DenseNN set (conv / pool / classifier), the
 * SparseCNN workload (outer-product multiply + re-sparsification), and
 * a producer-consumer demo — each as a loop-nest-IR kernel with a
 * deterministic input initializer and declared output arrays for
 * validation against the interpreter.
 */

#ifndef DSA_WORKLOADS_WORKLOAD_H
#define DSA_WORKLOADS_WORKLOAD_H

#include <functional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "ir/interp.h"
#include "ir/stmt.h"

namespace dsa::workloads {

/** One benchmark kernel. */
struct Workload
{
    std::string name;
    std::string suite;
    ir::KernelSource kernel;
    /** Arrays checked against the golden interpreter run. */
    std::vector<std::string> outputs;
    /** Relative FP tolerance for output checks (0 = bit exact). */
    double tolerance = 1e-9;
    /**
     * The hand-designed accelerator this workload targets in the
     * paper's Fig. 10 comparison (prebuilt ADG name: softbrain, maeri,
     * triggered, spu, revel).
     */
    std::string fig10Target = "softbrain";
    /** Fill the input arrays deterministically. */
    std::function<void(ir::ArrayStore &, Rng &)> init;
};

/** All registered workloads (stable order). */
const std::vector<Workload> &allWorkloads();

/** Lookup by name; NotFound (with a did-you-mean suggestion) if
 *  unknown. */
Result<const Workload *> findWorkload(const std::string &name);

/** findWorkload for names known to exist; fatal if unknown. */
const Workload &workload(const std::string &name);

/** All workloads of one suite. */
std::vector<const Workload *> suiteWorkloads(const std::string &suite);

/**
 * Run the golden interpreter on a freshly initialized store.
 * @return the post-run store and dynamic op statistics.
 */
struct GoldenRun
{
    ir::ArrayStore initial;  ///< inputs before execution
    ir::ArrayStore final;    ///< expected memory after execution
    ir::InterpStats stats;
};
GoldenRun runGolden(const Workload &w, uint64_t seed = 12345);

/**
 * Compare @p got against @p expect on the workload's output arrays.
 * @return empty string on success, else a description of the first
 *         mismatch.
 */
std::string checkOutputs(const Workload &w, const ir::ArrayStore &expect,
                         const ir::ArrayStore &got);

} // namespace dsa::workloads

#endif // DSA_WORKLOADS_WORKLOAD_H
