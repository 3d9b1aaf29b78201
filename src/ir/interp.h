/**
 * @file
 * Reference interpreter for the loop-nest IR. It is the golden model
 * the simulator's results are validated against, and its operation
 * counts drive the scalar host-core baseline model (the GCC -O3 Xeon
 * stand-in of §VII).
 */

#ifndef DSA_IR_INTERP_H
#define DSA_IR_INTERP_H

#include <map>
#include <string>
#include <vector>

#include "ir/stmt.h"

namespace dsa::ir {

/** Named arrays backing one kernel execution (64-bit canonical). */
class ArrayStore
{
  public:
    /** Allocate every array declared by @p kernel (zero-filled). */
    explicit ArrayStore(const KernelSource &kernel);
    ArrayStore() = default;

    bool has(const std::string &name) const;
    std::vector<Value> &data(const std::string &name);
    const std::vector<Value> &data(const std::string &name) const;

    Value get(const std::string &name, int64_t idx) const;
    void set(const std::string &name, int64_t idx, Value v);

  private:
    std::map<std::string, std::vector<Value>> arrays_;
};

/** Dynamic operation counts from one interpreted execution. */
struct InterpStats
{
    int64_t arithOps = 0;   ///< scalar ALU/FPU operations
    int64_t loads = 0;
    int64_t stores = 0;
    int64_t branches = 0;   ///< if / merge-loop decisions
    int64_t loopIters = 0;  ///< loop iterations entered
};

/**
 * Execute @p kernel over @p store. The kernel is resolved once per
 * call (arrays to data pointers, loop ids and scalars to dense slots,
 * params to constants, opcodes to OpFn), then run over those tables.
 * An out-of-bounds access or an unbound name aborts when executed.
 * @return dynamic statistics of the run.
 */
InterpStats interpret(const KernelSource &kernel, ArrayStore &store);

} // namespace dsa::ir

#endif // DSA_IR_INTERP_H
