/**
 * @file
 * The paper's adaptiveness figures as exact checks. Each test names the
 * figure or table it pins; EXPERIMENTS.md points back at these tests.
 * Adaptiveness values are deterministic (exact path counts), so they
 * are pinned to the four decimals EXPERIMENTS.md reports, and equality
 * claims are checked bitwise.
 */

#include <gtest/gtest.h>

#include "cdg/adaptivity.hh"
#include "core/catalog.hh"
#include "core/derivation.hh"
#include "core/enumerate.hh"

namespace ebda::cdg {
namespace {

/** Tolerance for a value reported to four decimals. */
constexpr double kFourDecimals = 5e-5;

TEST(PaperAdaptiveness, Fig5NorthLastOn8x8)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 1});
    const auto nl = measureAdaptiveness(net, core::schemeNorthLast());
    EXPECT_NEAR(nl.averageFraction, 0.6686, kFourDecimals);
    EXPECT_FALSE(nl.disconnectedMinimal);
}

TEST(PaperAdaptiveness, Fig6TurnModelsAndP5On8x8)
{
    // West-First (P3) and Negative-First (P4) reach the 6-turn maximum;
    // P5's extra Y VCs inside one partition add exactly nothing.
    const auto net = topo::Network::mesh({8, 8}, {1, 2});
    const auto p3 = measureAdaptiveness(net, core::schemeFig6P3());
    const auto p4 = measureAdaptiveness(net, core::schemeFig6P4());
    const auto p5 = measureAdaptiveness(net, core::schemeFig6P5());
    EXPECT_NEAR(p3.averageFraction, 0.6686, kFourDecimals);
    EXPECT_NEAR(p4.averageFraction, 0.6686, kFourDecimals);
    EXPECT_EQ(p5.averageFraction, p3.averageFraction);
    EXPECT_EQ(p5.allowedPaths, p3.allowedPaths);
    EXPECT_FALSE(p5.fullyAdaptive);
}

TEST(PaperAdaptiveness, Fig7NoFourOrFiveChannelSchemeIsFullyAdaptive)
{
    const auto net4 = topo::Network::mesh({5, 5}, {1, 1});
    const auto four = core::enumerateSchemes(core::classes2d());
    EXPECT_EQ(four.size(), 74u);
    for (const auto &s : four)
        EXPECT_FALSE(measureAdaptiveness(net4, s).fullyAdaptive)
            << s.toString();

    core::ClassList five_classes = core::classes2d();
    five_classes.push_back(core::makeClass(1, core::Sign::Pos, 1));
    const auto net5 = topo::Network::mesh({5, 5}, {1, 2});
    const auto five = core::enumerateSchemes(five_classes);
    EXPECT_EQ(five.size(), 536u);
    for (const auto &s : five)
        EXPECT_FALSE(measureAdaptiveness(net5, s).fullyAdaptive)
            << s.toString();
}

TEST(PaperAdaptiveness, Table2ThreePartitionOptionsSitBetween)
{
    // Two, three and four partitions of the four 2D classes on 8x8:
    // 0.6686 / 0.5029 / 0.3372 (also the Section 5.3.2 ablation).
    const auto net = topo::Network::mesh({8, 8}, {1, 1});
    const double nf =
        measureAdaptiveness(net, core::schemeFig6P4()).averageFraction;
    const double xy =
        measureAdaptiveness(net, core::schemeFig6P1()).averageFraction;
    EXPECT_NEAR(nf, 0.6686, kFourDecimals);
    EXPECT_NEAR(xy, 0.3372, kFourDecimals);

    core::EnumerationOptions opts;
    opts.exactPartitions = 3;
    const auto schemes = core::enumerateSchemes(core::classes2d(), opts);
    EXPECT_EQ(schemes.size(), 36u);
    std::size_t listed = 0;
    for (const auto &s : schemes) {
        const std::string name = s.toString(false);
        if (name != "{X+ Y+} -> {X-} -> {Y-}"
            && name != "{X+ Y-} -> {X-} -> {Y+}"
            && name != "{X- Y+} -> {X+} -> {Y-}"
            && name != "{X- Y-} -> {X+} -> {Y+}")
            continue;
        ++listed;
        const double a = measureAdaptiveness(net, s).averageFraction;
        EXPECT_NEAR(a, 0.5029, kFourDecimals) << name;
        EXPECT_LT(xy, a) << name;
        EXPECT_LT(a, nf) << name;
    }
    EXPECT_EQ(listed, 4u);
}

TEST(PaperAdaptiveness, Table4OddEvenAgainstWestFirstOn8x8)
{
    const auto net = topo::Network::mesh({8, 8}, {1, 1});
    const auto oe = measureAdaptiveness(net, core::schemeOddEven());
    const auto wf = measureAdaptiveness(net, core::schemeFig6P3());
    EXPECT_NEAR(oe.averageFraction, 0.5715, kFourDecimals);
    EXPECT_NEAR(wf.averageFraction, 0.6686, kFourDecimals);
    EXPECT_FALSE(oe.disconnectedMinimal);
}

TEST(PaperAdaptiveness, Derive222YieldsAllOrderedSchemes)
{
    core::DerivationOptions opts;
    opts.permuteTransitionOrders = true;
    opts.maxSchemes = 4096;
    EXPECT_EQ(core::deriveAll({2, 2, 2}, opts).size(), 2304u);
}

} // namespace
} // namespace ebda::cdg
