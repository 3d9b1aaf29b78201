/** @file Unit tests for base utilities (table, strings, bits, rng,
 *  thread pool, durable files and file locks). */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/bits.h"
#include "base/files.h"
#include "base/rng.h"
#include "base/strings.h"
#include "base/table.h"
#include "base/thread_pool.h"

namespace dsa {
namespace {

TEST(Bits, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_TRUE(isPow2(64));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(6));
    EXPECT_FALSE(isPow2(63));
}

TEST(Bits, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0);
    EXPECT_EQ(log2Ceil(2), 1);
    EXPECT_EQ(log2Ceil(3), 2);
    EXPECT_EQ(log2Ceil(4), 2);
    EXPECT_EQ(log2Ceil(5), 3);
    EXPECT_EQ(log2Ceil(1024), 10);
    EXPECT_EQ(log2Ceil(1025), 11);
}

TEST(Bits, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0);
    EXPECT_EQ(log2Floor(2), 1);
    EXPECT_EQ(log2Floor(3), 1);
    EXPECT_EQ(log2Floor(1024), 10);
    EXPECT_EQ(log2Floor(2047), 10);
}

TEST(Bits, NextPow2AndDivCeil)
{
    EXPECT_EQ(nextPow2(1), 1u);
    EXPECT_EQ(nextPow2(3), 4u);
    EXPECT_EQ(nextPow2(64), 64u);
    EXPECT_EQ(nextPow2(65), 128u);
    EXPECT_EQ(divCeil(7, 2), 4);
    EXPECT_EQ(divCeil(8, 2), 4);
    EXPECT_EQ(divCeil(1, 8), 1);
}

TEST(Strings, SplitTrimJoin)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(trim("  hi \n"), "hi");
    EXPECT_EQ(trim("   "), "");
    EXPECT_TRUE(startsWith("node 3", "node"));
    EXPECT_FALSE(startsWith("no", "node"));
    EXPECT_EQ(join({"x", "y", "z"}, ","), "x,y,z");
    EXPECT_EQ(join({}, ","), "");
}

TEST(Table, RenderAligned)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "12345"});
    std::string out = t.render();
    EXPECT_NE(out.find("| alpha |"), std::string::npos);
    EXPECT_NE(out.find("| 12345 |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = r.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
        double d = r.uniformReal(0.5, 1.5);
        EXPECT_GE(d, 0.5);
        EXPECT_LT(d, 1.5);
    }
}

TEST(Rng, PickAndShuffle)
{
    Rng r(11);
    std::vector<int> v{1, 2, 3, 4, 5};
    for (int i = 0; i < 50; ++i) {
        int p = r.pick(v);
        EXPECT_GE(p, 1);
        EXPECT_LE(p, 5);
    }
    auto copy = v;
    r.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, v);
}

TEST(Rng, Splitmix64KnownValues)
{
    // Reference values from the splitmix64 test vector (seed 0
    // produces this well-known first output).
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
    EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(Rng, MixSeedAvoidsAdditiveCollisions)
{
    // The old additive scheme seed + k*131 + u collides, e.g.
    // (k=0,u=131) vs (k=1,u=0). The hash mix must not.
    std::set<uint64_t> seen;
    for (uint64_t k = 0; k < 64; ++k)
        for (uint64_t u = 0; u < 200; ++u)
            seen.insert(mixSeed(1, k, u));
    EXPECT_EQ(seen.size(), 64u * 200u);
}

TEST(Rng, MixSeedDecorrelatesStreams)
{
    // Streams seeded from adjacent coordinates must differ from the
    // first draw.
    Rng a(mixSeed(7, 3, 1)), b(mixSeed(7, 3, 2)), c(mixSeed(7, 4, 1));
    bool allEqual = true;
    for (int i = 0; i < 8; ++i) {
        int64_t va = a.uniformInt(0, 1 << 30);
        int64_t vb = b.uniformInt(0, 1 << 30);
        int64_t vc = c.uniformInt(0, 1 << 30);
        allEqual &= va == vb && vb == vc;
    }
    EXPECT_FALSE(allEqual);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallelFor(hits.size(),
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<long> sum{0};
        pool.parallelFor(64, [&](size_t i) {
            sum.fetch_add(static_cast<long>(i));
        });
        EXPECT_EQ(sum.load(), 64 * 63 / 2);
    }
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(8 * 16);
    pool.parallelFor(8, [&](size_t outer) {
        // Inner call from a worker must execute inline, serially,
        // without deadlocking on the pool's own queue.
        pool.parallelFor(16, [&](size_t inner) {
            hits[outer * 16 + inner].fetch_add(1);
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // Pool must stay usable after an exceptional job.
    std::atomic<int> n{0};
    pool.parallelFor(10, [&](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, EmptyAndSingleJobs)
{
    ThreadPool pool(3);
    pool.parallelFor(0, [&](size_t) { FAIL() << "must not run"; });
    std::atomic<int> n{0};
    pool.parallelFor(1, [&](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 1);
    EXPECT_EQ(pool.threads(), 3);
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

/** Fresh scratch directory (not yet created) in the working directory. */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = "base_files_" + tag + "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

bool
exists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

TEST(Files, WriteAtomicReadRoundTripLeavesNoTemp)
{
    std::string dir = scratchDir("rt");
    ASSERT_TRUE(makeDirs(dir).ok());
    std::string path = dir + "/data.bin";
    // Binary, and larger than one read chunk.
    std::string bytes;
    for (int i = 0; i < 200000; ++i)
        bytes.push_back(static_cast<char>(i * 7));
    ASSERT_TRUE(writeFileAtomic(path, bytes).ok());
    auto back = readFile(path);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(*back, bytes);
    // Replacing with fewer bytes leaves exactly the new content.
    ASSERT_TRUE(writeFileAtomic(path, "short").ok());
    EXPECT_EQ(readFile(path).value(), "short");
    EXPECT_FALSE(exists(path + ".tmp"));
    EXPECT_EQ(readFile(dir + "/missing").status().code(),
              StatusCode::NotFound);
    std::filesystem::remove_all(dir);
}

TEST(Files, MakeDirsNestedAndOnRegularFile)
{
    std::string dir = scratchDir("mk");
    std::string nested = dir + "/a/b/c";
    ASSERT_TRUE(makeDirs(nested).ok());
    struct stat st;
    ASSERT_EQ(::stat(nested.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    EXPECT_TRUE(makeDirs(nested).ok()); // already there: fine
    std::string file = dir + "/file";
    ASSERT_TRUE(writeFileAtomic(file, "x").ok());
    EXPECT_EQ(makeDirs(file).code(), StatusCode::InvalidArgument);
    EXPECT_EQ(makeDirs(file + "/sub").code(), StatusCode::InvalidArgument);
    std::filesystem::remove_all(dir);
}

TEST(Files, LockRefusesSecondHolderAndUnlockRemovesFile)
{
    std::string dir = scratchDir("lock");
    ASSERT_TRUE(makeDirs(dir).ok());
    std::string path = dir + "/x.lock";
    FileLock a, b;
    auto first = a.tryLock(path);
    ASSERT_TRUE(first.ok() && *first) << first.status().toString();
    EXPECT_TRUE(a.held());
    // Locks are per open file, so a second holder in this same
    // process is refused — without an error.
    auto second = b.tryLock(path);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_FALSE(*second);
    EXPECT_FALSE(b.held());
    a.unlock();
    EXPECT_FALSE(a.held());
    EXPECT_FALSE(exists(path));
    auto third = b.tryLock(path);
    EXPECT_TRUE(third.ok() && *third);
    b.unlock();
    EXPECT_FALSE(exists(path));
    std::filesystem::remove_all(dir);
}

TEST(Files, LockOfKilledHolderDoesNotBlock)
{
    std::string dir = scratchDir("killed");
    ASSERT_TRUE(makeDirs(dir).ok());
    std::string path = dir + "/x.lock";
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        FileLock held;
        auto got = held.tryLock(path);
        char c = got.ok() && *got ? '1' : '0';
        (void)::write(ready[1], &c, 1);
        for (;;)
            ::pause(); // hold until killed
    }
    ::close(ready[1]);
    char c = 0;
    ASSERT_EQ(::read(ready[0], &c, 1), 1);
    ::close(ready[0]);
    ASSERT_EQ(c, '1');

    FileLock mine;
    auto whileAlive = mine.tryLock(path);
    ASSERT_TRUE(whileAlive.ok()) << whileAlive.status().toString();
    EXPECT_FALSE(*whileAlive); // a live holder in another process
    ::kill(child, SIGKILL);
    int ws = 0;
    ASSERT_EQ(::waitpid(child, &ws, 0), child);
    EXPECT_TRUE(exists(path)); // killed before it could unlink
    auto afterDeath = mine.tryLock(path);
    EXPECT_TRUE(afterDeath.ok() && *afterDeath);
    mine.unlock();
    EXPECT_FALSE(exists(path));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dsa
