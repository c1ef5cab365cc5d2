/**
 * @file
 * Unit tests for the exact adaptiveness measurement — including the
 * paper's headline claims: the Section 4 minimum-channel constructions
 * are *fully* adaptive, deterministic XY scores exactly one path per
 * pair, and partitioning coarseness monotonically trades adaptiveness.
 */

#include <gtest/gtest.h>

#include "cdg/adaptivity.hh"
#include "core/catalog.hh"
#include "core/minimal.hh"

namespace ebda::cdg {
namespace {

TEST(PathCounting, MultinomialValues)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 1});
    const auto a = net.node({0, 0});
    EXPECT_DOUBLE_EQ(countMinimalPaths(net, a, net.node({3, 0})), 1.0);
    EXPECT_DOUBLE_EQ(countMinimalPaths(net, a, net.node({1, 1})), 2.0);
    EXPECT_DOUBLE_EQ(countMinimalPaths(net, a, net.node({2, 2})), 6.0);
    EXPECT_NEAR(countMinimalPaths(net, a, net.node({7, 7})), 3432.0,
                1e-6);
    EXPECT_DOUBLE_EQ(countMinimalPaths(net, a, a), 1.0);
}

TEST(PathCounting, ThreeDimensional)
{
    const auto net = topo::Network::mesh({3, 3, 3}, {1, 1, 1});
    // (1,1,1) offset: 3! = 6 orderings.
    EXPECT_NEAR(countMinimalPaths(net, net.node({0, 0, 0}),
                                  net.node({1, 1, 1})),
                6.0, 1e-9);
}

TEST(Adaptiveness, XyIsDeterministic)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto report =
        measureAdaptiveness(net, core::schemeFig6P1());
    EXPECT_FALSE(report.fullyAdaptive);
    EXPECT_FALSE(report.disconnectedMinimal);
    // Exactly one allowed path per pair.
    const double pairs = 16.0 * 15.0;
    EXPECT_NEAR(report.allowedPaths, pairs, 1e-6);
    EXPECT_GT(report.totalPaths, report.allowedPaths);
}

TEST(Adaptiveness, MinimumChannelSchemesAreFullyAdaptive)
{
    // The core Section 4 claim, machine-checked: both Figure 7 designs
    // realise every minimal path of every pair with 6 channels.
    const auto net = topo::Network::mesh({5, 5}, {2, 2});
    for (const auto &scheme : {core::schemeFig7b(), core::schemeFig7c()}) {
        const auto report = measureAdaptiveness(net, scheme);
        EXPECT_TRUE(report.fullyAdaptive) << scheme.toString();
        EXPECT_DOUBLE_EQ(report.averageFraction, 1.0);
        EXPECT_DOUBLE_EQ(report.minFraction, 1.0);
    }
}

TEST(Adaptiveness, MergedScheme3dFullyAdaptive)
{
    const auto net = topo::Network::mesh({3, 3, 3}, {2, 2, 4});
    const auto report = measureAdaptiveness(net, core::mergedScheme(3));
    EXPECT_TRUE(report.fullyAdaptive);
}

TEST(Adaptiveness, RegionScheme2dFullyAdaptive)
{
    const auto net = topo::Network::mesh({4, 4}, {2, 2});
    const auto report = measureAdaptiveness(net, core::regionScheme(2));
    EXPECT_TRUE(report.fullyAdaptive);
}

TEST(Adaptiveness, PartialOrderOfTurnModels)
{
    // West-First and North-Last (6 turns) beat XY (4 turns); none reach
    // full adaptiveness with 4 channels.
    const auto net = topo::Network::mesh({5, 5}, {1, 1});
    const auto xy = measureAdaptiveness(net, core::schemeFig6P1());
    const auto wf = measureAdaptiveness(net, core::schemeFig6P3());
    const auto nl = measureAdaptiveness(net, core::schemeNorthLast());
    const auto nf = measureAdaptiveness(net, core::schemeFig6P4());
    EXPECT_GT(wf.averageFraction, xy.averageFraction);
    EXPECT_GT(nl.averageFraction, xy.averageFraction);
    EXPECT_GT(nf.averageFraction, xy.averageFraction);
    EXPECT_FALSE(wf.fullyAdaptive);
    // Every pair must still be minimally routable.
    for (const auto &r : {xy, wf, nl, nf}) {
        EXPECT_FALSE(r.disconnectedMinimal);
        EXPECT_GT(r.minFraction, 0.0);
    }
}

TEST(Adaptiveness, OddEvenComparableToWestFirst)
{
    // Section 6.2: Odd-Even offers "the same level of adaptiveness as
    // those of the west-first routing algorithm".
    const auto net = topo::Network::mesh({6, 6}, {1, 1});
    const auto oe = measureAdaptiveness(net, core::schemeOddEven());
    const auto wf = measureAdaptiveness(net, core::schemeFig6P3());
    EXPECT_FALSE(oe.disconnectedMinimal);
    EXPECT_NEAR(oe.averageFraction, wf.averageFraction, 0.12);
}

TEST(Adaptiveness, OddEvenIsMoreEvenThanWestFirst)
{
    // Chiu's motivation, quantified: West-First is fully deterministic
    // for westbound pairs and fully adaptive eastbound — a huge spread;
    // Odd-Even distributes its (comparable) adaptiveness more evenly.
    const auto net = topo::Network::mesh({6, 6}, {1, 1});
    const auto oe = measureAdaptiveness(net, core::schemeOddEven());
    const auto wf = measureAdaptiveness(net, core::schemeFig6P3());
    EXPECT_LT(oe.fractionStddev, wf.fractionStddev);
}

TEST(Adaptiveness, VcsInsideOnePartitionAddNothing)
{
    // Figure 6(e): P5's extra Y VCs leave minimal-path adaptiveness
    // exactly at the West-First level.
    const auto net = topo::Network::mesh({5, 5}, {1, 2});
    const auto p3 = measureAdaptiveness(net, core::schemeFig6P3());
    const auto p5 = measureAdaptiveness(net, core::schemeFig6P5());
    EXPECT_DOUBLE_EQ(p3.averageFraction, p5.averageFraction);
}

TEST(Adaptiveness, MoreVcsInOnePartitionStillNotFullyAdaptive)
{
    const auto net = topo::Network::mesh({4, 4}, {1, 2});
    const auto report = measureAdaptiveness(net, core::schemeFig6P5());
    EXPECT_FALSE(report.fullyAdaptive);
}

TEST(Adaptiveness, RejectsTorus)
{
    const auto net = topo::Network::torus({4, 4}, {1, 1});
    EXPECT_DEATH(measureAdaptiveness(net, core::schemeFig6P1()),
                 "mesh network");
}

TEST(Adaptiveness, RejectsPartialMesh3d)
{
    // Vertical links exist only at the elevators, so the path count is
    // no longer a function of the offset alone.
    const auto net =
        topo::Network::partialMesh3d({3, 3, 2}, {1, 2, 1}, {{0, 0}});
    EXPECT_DEATH(measureAdaptiveness(net, core::schemePartial3d()),
                 "complete mesh network");
}

TEST(Adaptiveness, RejectsFaultedMesh)
{
    // A withoutLinks() copy keeps the Mesh kind but not every hop.
    const auto net = topo::Network::mesh({4, 4}, {1, 1}).withoutLinks(
        {{0, 1}});
    EXPECT_DEATH(measureAdaptiveness(net, core::schemeFig6P1()),
                 "complete mesh network");
}

} // namespace
} // namespace ebda::cdg
