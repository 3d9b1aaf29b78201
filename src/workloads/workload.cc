#include "workloads/workload.h"

#include <cmath>

#include "base/logging.h"
#include "base/strings.h"
#include "workloads/suites.h"

namespace dsa::workloads {

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> v;
        addMachsuite(v);
        addSparse(v);
        addDsp(v);
        addPolybench(v);
        addDenseNn(v);
        addSparseCnn(v);
        addExtra(v);
        return v;
    }();
    return all;
}

Result<const Workload *>
findWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads())
        if (w.name == name)
            return &w;
    std::vector<std::string> valid;
    for (const auto &w : allWorkloads())
        valid.push_back(w.name);
    return Status::notFound("unknown workload '" + name + "'" +
                            suggestName(name, valid));
}

const Workload &
workload(const std::string &name)
{
    auto w = findWorkload(name);
    if (!w.ok())
        DSA_FATAL(w.status().message());
    return **w;
}

std::vector<const Workload *>
suiteWorkloads(const std::string &suite)
{
    std::vector<const Workload *> out;
    for (const auto &w : allWorkloads())
        if (w.suite == suite)
            out.push_back(&w);
    return out;
}

GoldenRun
runGolden(const Workload &w, uint64_t seed)
{
    GoldenRun run;
    run.initial = ir::ArrayStore(w.kernel);
    Rng rng(seed);
    if (w.init)
        w.init(run.initial, rng);
    run.final = run.initial;
    run.stats = ir::interpret(w.kernel, run.final);
    return run;
}

std::string
checkOutputs(const Workload &w, const ir::ArrayStore &expect,
             const ir::ArrayStore &got)
{
    for (const auto &name : w.outputs) {
        const auto &decl = w.kernel.arrayDecl(name);
        const auto &e = expect.data(name);
        const auto &g = got.data(name);
        for (size_t i = 0; i < e.size(); ++i) {
            if (decl.isFloat && w.tolerance > 0) {
                double ev = valueAsF64(e[i]);
                double gv = valueAsF64(g[i]);
                double err = std::fabs(gv - ev) /
                             std::max(1.0, std::fabs(ev));
                if (err > w.tolerance || std::isnan(gv)) {
                    return name + "[" + std::to_string(i) + "]: got " +
                           std::to_string(gv) + ", expect " +
                           std::to_string(ev);
                }
            } else if (e[i] != g[i]) {
                return name + "[" + std::to_string(i) + "]: got " +
                       std::to_string(static_cast<int64_t>(g[i])) +
                       ", expect " +
                       std::to_string(static_cast<int64_t>(e[i]));
            }
        }
    }
    return "";
}

} // namespace dsa::workloads
