/**
 * @file
 * Zero steady-state allocations: once warm, a simulation performs no
 * heap allocation, whichever driver runs it.
 *
 * A global operator new/delete hook counts every allocation in the
 * process. The simulator's measurement-phase hooks bracket exactly the
 * measurement window, so construction, warmup and drain are excluded.
 * The count inside the window must be 0 for the classic cycle loop,
 * the event-driven loop and the sharded loop alike: flit rings live in
 * one arena, packet slots recycle through preallocated free lists and
 * per-shard pools, and every per-cycle scratch vector keeps its
 * capacity across cycles.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/simulator.hh"
#include "sweep/router_factory.hh"

namespace {

/** Allocations made by any thread since process start. */
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace ebda;

/** Heap allocations inside the measurement window of one run on the
 *  8x8 mesh (2 VCs per dimension, fig7b, uniform traffic). */
std::uint64_t
steadyStateAllocs(sim::SchedMode mode, int shards, double rate)
{
    const auto net = topo::Network::mesh({8, 8}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    EXPECT_TRUE(rel != nullptr);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.injectionRate = rate;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 20000;
    cfg.drainCycles = 50000;
    cfg.watchdogCycles = 5000;
    cfg.seed = 2024;
    cfg.schedMode = mode;
    cfg.shards = shards;

    sim::Simulator simulator(net, *rel, gen, cfg);
    std::uint64_t at_start = 0;
    std::uint64_t at_end = 0;
    bool started = false;
    bool ended = false;
    simulator.setMeasurePhaseHooks(
        [&] {
            started = true;
            at_start = g_allocs.load(std::memory_order_relaxed);
        },
        [&] {
            at_end = g_allocs.load(std::memory_order_relaxed);
            ended = true;
        });
    const auto result = simulator.run();
    EXPECT_TRUE(started && ended) << "measurement hooks did not fire";
    EXPECT_TRUE(result.drained);
    EXPECT_FALSE(result.deadlocked);
    return at_end - at_start;
}

TEST(ZeroAlloc, CycleLoop)
{
    for (const double rate : {0.01, 0.05, 0.10})
        EXPECT_EQ(steadyStateAllocs(sim::SchedMode::Cycle, 1, rate), 0u)
            << "rate " << rate;
}

TEST(ZeroAlloc, EventLoop)
{
    for (const double rate : {0.005, 0.02})
        EXPECT_EQ(steadyStateAllocs(sim::SchedMode::Event, 1, rate), 0u)
            << "rate " << rate;
}

TEST(ZeroAlloc, ShardedLoop)
{
    for (const int shards : {2, 4})
        for (const double rate : {0.01, 0.02, 0.10})
            EXPECT_EQ(steadyStateAllocs(sim::SchedMode::Cycle, shards,
                                        rate),
                      0u)
                << shards << " shards, rate " << rate;
}

} // namespace
