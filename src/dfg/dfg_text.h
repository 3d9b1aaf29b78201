/**
 * @file
 * Textual dataflow-graph format, in the spirit of the original
 * framework's `.dfg` files: a human-readable serialization of a Region
 * (computation DFG + stream bindings) so the graphs the compiler
 * lowers can be inspected. It is an output format only; nothing parses
 * it back.
 *
 * Grammar (one statement per line, `#` comments):
 *
 *   input  <name> [lanes=N] [width=B] [reuse=R]
 *   output <name> = <src>[,<src>...] [every=N] [width=B]
 *   <name> = <op> <operand>[, <operand>...]
 *            [acc init=V reset=N] [ctrl=self|op<K> pop0=M pop1=M emit=M]
 *   stream <kind> port=<name> [key=value...]
 *
 * Operands are `name`, `name.lane`, or `#imm`.
 */

#ifndef DSA_DFG_DFG_TEXT_H
#define DSA_DFG_DFG_TEXT_H

#include <string>

#include "dfg/program.h"

namespace dsa::dfg {

/** Serialize a region (DFG + streams) to the textual format. */
std::string regionToText(const Region &region);

} // namespace dsa::dfg

#endif // DSA_DFG_DFG_TEXT_H
