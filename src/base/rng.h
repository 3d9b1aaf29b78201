/**
 * @file
 * Deterministic random-number utilities.
 *
 * Every stochastic component in the framework (scheduler, DSE, synthesis
 * oracle noise) draws from an explicitly seeded Rng so that experiments
 * are reproducible run-to-run.
 */

#ifndef DSA_BASE_RNG_H
#define DSA_BASE_RNG_H

#include <algorithm>
#include <cstdint>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.h"

namespace dsa {

/**
 * splitmix64 (Steele/Lea/Flood) finalizer: a cheap, high-quality
 * 64-bit mixing function. Used to derive independent per-task seeds
 * from (base seed, task coordinates) so that parallel workers get
 * uncorrelated, order-independent random streams.
 */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Hash a base seed with up to two task coordinates into a fresh seed.
 * Unlike additive schemes (seed + a*P + b), distinct (a, b) pairs
 * cannot collide in practice and the resulting streams are
 * uncorrelated across coordinates.
 */
inline uint64_t
mixSeed(uint64_t seed, uint64_t a, uint64_t b = 0)
{
    uint64_t h = splitmix64(seed);
    h = splitmix64(h ^ (a + 0x9e3779b97f4a7c15ull));
    h = splitmix64(h ^ (b + 0xc2b2ae3d27d4eb4full));
    return h;
}

/** A seeded pseudo-random generator with convenience draws. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0) : engine_(seed) {}

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        DSA_ASSERT(lo <= hi, "bad range [", lo, ", ", hi, "]");
        std::uniform_int_distribution<int64_t> d(lo, hi);
        return d(engine_);
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo = 0.0, double hi = 1.0)
    {
        std::uniform_real_distribution<double> d(lo, hi);
        return d(engine_);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        std::bernoulli_distribution d(p);
        return d(engine_);
    }

    /** Gaussian draw. */
    double
    gaussian(double mean, double stddev)
    {
        std::normal_distribution<double> d(mean, stddev);
        return d(engine_);
    }

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        DSA_ASSERT(!v.empty(), "pick from empty vector");
        return v[static_cast<size_t>(uniformInt(0, int64_t(v.size()) - 1))];
    }

    /** Shuffle a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        std::shuffle(v.begin(), v.end(), engine_);
    }

    /** Fork a child generator (e.g. one per DSE worker). */
    Rng fork() { return Rng(engine_()); }

    /**
     * Serialize the exact engine state (checkpointing). The textual
     * form round-trips bit-identically through loadState, so a resumed
     * exploration draws the same stream an uninterrupted run would.
     */
    std::string
    saveState() const
    {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os << engine_;
        return os.str();
    }

    /**
     * Restore a state from saveState(); false on malformed input and
     * on any text saveState() would not write back (trailing text,
     * extra spaces, leading zeros), so a loaded state re-saves to
     * exactly @p state.
     */
    bool
    loadState(const std::string &state)
    {
        std::istringstream is(state);
        is.imbue(std::locale::classic());
        Rng restored;
        is >> restored.engine_;
        if (is.fail() || restored.saveState() != state)
            return false;
        engine_ = restored.engine_;
        return true;
    }

    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace dsa

#endif // DSA_BASE_RNG_H
