/**
 * @file
 * Pinned outputs of the sharded backend.
 *
 * tests/test_shard_equiv.cc checks that a sharded run is a pure
 * function of (config, shard count) and that it conserves the classic
 * run's packet counts, but it compares sharded runs only with other
 * sharded runs. A change that altered every sharded result the same
 * way would still pass there. This suite pins the exact result: each
 * row stores fnv1a64 of the full `sim::toJson(SimResult)` a sharded
 * run produces, so any drift in arbitration, credit lag, packet
 * numbering or statistics folding fails here.
 *
 * The rows span the axes the sharded pipeline branches on: shard
 * count, torus wrap links across cuts, skewed traffic, dragonfly
 * partitions, a watchdog deadlock with forensics, every selection
 * policy, atomic VC allocation, the three switching modes and a
 * deeper router pipeline.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/catalog.hh"
#include "core/torus.hh"
#include "routing/baselines.hh"
#include "routing/dragonfly.hh"
#include "routing/ebda_routing.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"
#include "sweep/sweep_spec.hh"

namespace {

using namespace ebda;

sim::SimConfig
baseConfig()
{
    sim::SimConfig cfg;
    cfg.seed = 2017;
    cfg.injectionRate = 0.15;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    cfg.drainCycles = 20000;
    cfg.watchdogCycles = 2000;
    cfg.schedMode = sim::SchedMode::Cycle;
    return cfg;
}

/** Run sharded and return the content hash of the full result JSON. */
std::uint64_t
shardedHash(const topo::Network &net,
            const cdg::RoutingRelation &routing,
            const sim::TrafficGenerator &gen, sim::SimConfig cfg,
            int shards)
{
    cfg.shards = shards;
    sim::Simulator s(net, routing, gen, cfg);
    const std::string json = sim::toJson(s.run());
    return sweep::fnv1a64(json);
}

std::string
hex(std::uint64_t h)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

#define EXPECT_HASH(expected, actual)                                  \
    EXPECT_EQ(hex(expected), hex(actual))

struct Mesh8
{
    topo::Network net = topo::Network::mesh({8, 8}, {1, 2});
    routing::EbDaRouting router{net, core::schemeFig7b()};
    sim::TrafficGenerator uniform{net, sim::TrafficPattern::Uniform};
};

TEST(ShardGoldenPinned, Mesh8x8Fig7bTwoAndFourShards)
{
    const Mesh8 m;
    EXPECT_HASH(0x43035a536da37b43ull,
                shardedHash(m.net, m.router, m.uniform, baseConfig(), 2));
    EXPECT_HASH(0xe12a44f37c2a1848ull,
                shardedHash(m.net, m.router, m.uniform, baseConfig(), 4));
}

TEST(ShardGoldenPinned, Torus4x4WrapLinksCut)
{
    const auto net = topo::Network::torus({4, 4}, {2, 2});
    const routing::EbDaRouting router(
        net, core::torusAdaptiveScheme2d(), {},
        routing::EbDaRouting::Mode::ShortestState);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    EXPECT_HASH(0x2d10c7a9e8b33280ull,
                shardedHash(net, router, gen, baseConfig(), 2));
    EXPECT_HASH(0xd7392818bbc1f7f7ull,
                shardedHash(net, router, gen, baseConfig(), 4));
}

TEST(ShardGoldenPinned, TransposeTraffic)
{
    const Mesh8 m;
    const sim::TrafficGenerator gen(m.net,
                                    sim::TrafficPattern::Transpose);
    sim::SimConfig cfg = baseConfig();
    cfg.injectionRate = 0.08;
    EXPECT_HASH(0xd620081fdc814b01ull,
                shardedHash(m.net, m.router, gen, cfg, 4));
}

TEST(ShardGoldenPinned, Dragonfly422)
{
    const auto net = topo::Network::dragonfly(4, 2, 2);
    const routing::DragonflyMinRouting router(net, 4);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg = baseConfig();
    cfg.seed = 23;
    cfg.injectionRate = 0.05;
    EXPECT_HASH(0x38586f7aeacc2c7dull,
                shardedHash(net, router, gen, cfg, 3));
}

TEST(ShardGoldenPinned, DeadlockedTorus)
{
    const auto net = topo::Network::torus({4, 4}, {1, 1});
    const routing::MinimalAdaptiveRouting router(net);
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg = baseConfig();
    cfg.injectionRate = 0.6;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2000;
    cfg.watchdogCycles = 500;
    EXPECT_HASH(0x836d4ef7257725e6ull,
                shardedHash(net, router, gen, cfg, 2));
}

TEST(ShardGoldenPinned, EverySelectionPolicy)
{
    const Mesh8 m;
    sim::SimConfig cfg = baseConfig();
    cfg.selection = sim::SelectionPolicy::MaxCredits;
    EXPECT_HASH(0x43035a536da37b43ull,
                shardedHash(m.net, m.router, m.uniform, cfg, 2));
    cfg.selection = sim::SelectionPolicy::RoundRobin;
    EXPECT_HASH(0x71e4d9aad8ef2a18ull,
                shardedHash(m.net, m.router, m.uniform, cfg, 2));
    cfg.selection = sim::SelectionPolicy::Random;
    EXPECT_HASH(0x4edb346ed074a5a4ull,
                shardedHash(m.net, m.router, m.uniform, cfg, 2));
    cfg.selection = sim::SelectionPolicy::FirstCandidate;
    EXPECT_HASH(0xd07f349555a666d0ull,
                shardedHash(m.net, m.router, m.uniform, cfg, 2));
}

TEST(ShardGoldenPinned, AtomicVcAllocation)
{
    const Mesh8 m;
    sim::SimConfig cfg = baseConfig();
    cfg.atomicVcAllocation = true;
    EXPECT_HASH(0xc4cd7e09225babd6ull,
                shardedHash(m.net, m.router, m.uniform, cfg, 2));
}

TEST(ShardGoldenPinned, VirtualCutThroughAndStoreAndForward)
{
    const Mesh8 m;
    sim::SimConfig cfg = baseConfig();
    cfg.vcDepth = cfg.packetLength;
    cfg.switching = sim::SwitchingMode::VirtualCutThrough;
    EXPECT_HASH(0xea42abd91808f876ull,
                shardedHash(m.net, m.router, m.uniform, cfg, 2));
    cfg.switching = sim::SwitchingMode::StoreAndForward;
    EXPECT_HASH(0x04caf325cd90c429ull,
                shardedHash(m.net, m.router, m.uniform, cfg, 2));
}

TEST(ShardGoldenPinned, RouterLatencyTwo)
{
    const Mesh8 m;
    sim::SimConfig cfg = baseConfig();
    cfg.routerLatency = 2;
    EXPECT_HASH(0x276151f5a1724748ull,
                shardedHash(m.net, m.router, m.uniform, cfg, 2));
}

} // namespace
