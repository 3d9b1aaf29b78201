/**
 * @file
 * Concurrency tests, written to run under ThreadSanitizer (build with
 * -DDSA_SANITIZE=thread; scripts/tier1.sh does this automatically).
 * They exercise the two parallel axes of the DSE — the (kernel,
 * unroll) grid fan-out and batched candidate evaluation — plus the
 * thread pool itself under contention, with workloads kept small so
 * the TSan run stays fast.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "adg/prebuilt.h"
#include "base/thread_pool.h"
#include "dse/explorer.h"

namespace dsa {
namespace {

TEST(Concurrency, PoolStressManySmallJobs)
{
    ThreadPool pool(4);
    std::atomic<long> total{0};
    for (int round = 0; round < 200; ++round)
        pool.parallelFor(16, [&](size_t i) {
            total.fetch_add(static_cast<long>(i) + 1);
        });
    EXPECT_EQ(total.load(), 200L * 16 * 17 / 2);
}

TEST(Concurrency, PoolConcurrentIssuers)
{
    // Two external threads race to issue jobs into one pool; issuing
    // is serialized internally and every index must run exactly once.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(2 * 500);
    std::vector<std::thread> issuers;
    for (int t = 0; t < 2; ++t)
        issuers.emplace_back([&, t] {
            for (int round = 0; round < 10; ++round)
                pool.parallelFor(50, [&, t](size_t i) {
                    hits[static_cast<size_t>(t) * 500 +
                         static_cast<size_t>(round) * 50 + i]
                        .fetch_add(1);
                });
        });
    for (auto &th : issuers)
        th.join();
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Concurrency, NestedParallelForOnAnotherPoolRunsOnTheCallingThread)
{
    // The nested-call guard is per thread, not per pool: a parallelFor
    // on pool B issued from a pool-A task runs every index inline on
    // the task's thread. So a chain pool handed to schedulers that run
    // as pool tasks would run nothing (the Explorer makes one only at
    // threads 1).
    ThreadPool a(4);
    ThreadPool b(4);
    std::atomic<int> ran{0};
    std::atomic<int> elsewhere{0};
    a.parallelFor(4, [&](size_t) {
        const std::thread::id caller = std::this_thread::get_id();
        b.parallelFor(4, [&](size_t) {
            ran.fetch_add(1);
            if (std::this_thread::get_id() != caller)
                elsewhere.fetch_add(1);
        });
    });
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(elsewhere.load(), 0);
}

TEST(Concurrency, ParallelGridEvaluation)
{
    // Fans the (kernel, unroll) grid out over 4 workers; under TSan
    // this flushes any sharing between concurrent SpatialScheduler
    // instances or the model singletons.
    dse::DseOptions opts;
    opts.threads = 4;
    opts.unrollFactors = {1, 4};
    opts.initSchedIters = 120;
    opts.schedIters = 20;
    dse::Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    dse::ScheduleCache cache;
    auto out = ex.evaluateDesign(adg::buildDseInitial(), cache, true);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    ex.replayEvalEntry(*out.entry, cache);
    EXPECT_GT(out.entry->objective, 0.0);
    EXPECT_GT(out.entry->perf, 0.0);
    EXPECT_FALSE(cache.empty());
}

TEST(Concurrency, ParallelBatchedExploration)
{
    dse::DseOptions opts;
    opts.threads = 4;
    opts.candidateBatch = 4;
    opts.maxIters = 10;
    opts.noImproveExit = 10;
    opts.initSchedIters = 120;
    opts.schedIters = 15;
    opts.unrollFactors = {1};
    opts.seed = 5;
    dse::Explorer ex(workloads::suiteWorkloads("PolyBench"), opts);
    auto res = ex.run(adg::buildDseInitial());
    EXPECT_GE(res.history.size(), 2u);
    EXPECT_GT(res.initialObjective, 0.0);
}

} // namespace
} // namespace dsa
