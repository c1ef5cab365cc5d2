/**
 * @file
 * Equivalence of the offset-keyed adaptiveness DP with the
 * per-destination reference (adaptivity_oracle.hh): every field of the
 * report bitwise, over a sample of the (2,2,2) derivations, the 2D
 * catalog on even and odd radices, the parity-class schemes on mixed
 * radices, and meshes carrying VCs no class uses.
 */

#include <gtest/gtest.h>

#include "adaptivity_oracle.hh"
#include "core/catalog.hh"
#include "core/derivation.hh"
#include "core/enumerate.hh"
#include "core/minimal.hh"

namespace ebda::cdg {
namespace {

using oracle::expectMatchesOracle;

std::vector<core::PartitionScheme>
catalog2d()
{
    return {core::schemeFig6P1(),     core::schemeFig6P2(),
            core::schemeFig6P3(),     core::schemeFig6P4(),
            core::schemeFig6P5(),     core::schemeNorthLast(),
            core::schemeFig7b(),      core::schemeFig7c(),
            core::schemeOddEven(),    core::schemeHamiltonian(),
            core::regionScheme(2),    core::mergedScheme(2)};
}

/** Mesh of the given radices with the VCs the scheme needs. */
topo::Network
meshFor(const std::vector<int> &dims, const core::PartitionScheme &scheme)
{
    std::vector<int> vcs = core::vcsRequired(scheme);
    vcs.resize(dims.size(), 1);
    return topo::Network::mesh(dims, vcs);
}

TEST(AdaptivenessEquiv, EveryTwelfthDerived222SchemeOn4x4x4)
{
    core::DerivationOptions opts;
    opts.permuteTransitionOrders = true;
    opts.maxSchemes = 4096;
    const auto schemes = core::deriveAll({2, 2, 2}, opts);
    ASSERT_EQ(schemes.size(), 2304u);
    const auto net = topo::Network::mesh({4, 4, 4}, {2, 2, 2});
    for (std::size_t i = 0; i < schemes.size(); i += 12)
        expectMatchesOracle(net, schemes[i], "#" + std::to_string(i));
}

TEST(AdaptivenessEquiv, Catalog2dOn8x8And5x5)
{
    for (const auto &scheme : catalog2d()) {
        expectMatchesOracle(meshFor({8, 8}, scheme), scheme, "8x8");
        expectMatchesOracle(meshFor({5, 5}, scheme), scheme, "5x5");
    }
}

TEST(AdaptivenessEquiv, ParityClassSchemesOnMixedRadices)
{
    // Odd-Even splits Y classes by column parity, Hamiltonian splits X
    // classes by row parity: the DP key must carry the source parity.
    for (const auto &scheme :
         {core::schemeOddEven(), core::schemeHamiltonian()}) {
        for (const std::vector<int> &dims :
             {std::vector<int>{8, 8}, {5, 5}, {7, 6}, {6, 7}, {2, 5},
              {5, 2}}) {
            expectMatchesOracle(meshFor(dims, scheme), scheme,
                                std::to_string(dims[0]) + "x"
                                    + std::to_string(dims[1]));
        }
    }
}

TEST(AdaptivenessEquiv, Fig6P5WithTwoYVcs)
{
    const auto scheme = core::schemeFig6P5();
    for (const std::vector<int> &dims :
         {std::vector<int>{8, 8}, {5, 5}, {4, 4}}) {
        expectMatchesOracle(topo::Network::mesh(dims, {1, 2}), scheme,
                            "(1,2) " + std::to_string(dims[0]));
    }
}

TEST(AdaptivenessEquiv, UnclassifiedVcsAndThreeDimensionalCatalog)
{
    // VCs beyond those the scheme names are unclassified channels the
    // walk must skip.
    expectMatchesOracle(topo::Network::mesh({5, 4}, {2, 3}),
                        core::schemeFig6P1(), "(2,3)");
    expectMatchesOracle(topo::Network::mesh({4, 4}, {2, 2}),
                        core::schemeOddEven(), "(2,2)");
    for (const auto &scheme :
         {core::schemeFig9b(), core::schemeFig9c(),
          core::schemePlanarAdaptive3d(), core::schemePartial3d(),
          core::mergedScheme(3)}) {
        expectMatchesOracle(meshFor({3, 4, 3}, scheme), scheme, "3x4x3");
    }
}

TEST(AdaptivenessEquiv, ExplicitTurnSetOverClassList)
{
    // The turn-model enumerator's path: a bare class list and an
    // explicit transition list, here West-First minus one turn.
    const auto classes = core::classes2d();
    std::vector<std::pair<core::ChannelClass, core::ChannelClass>> allowed;
    const core::TurnSet wf = core::TurnSet::extract(core::schemeFig6P3());
    for (const auto &from : classes)
        for (const auto &to : classes)
            if (from != to && wf.allows(from, to))
                allowed.emplace_back(from, to);
    allowed.pop_back();
    const auto set = core::TurnSet::fromExplicit(classes, allowed);
    const auto net = topo::Network::mesh({6, 5}, {1, 1});
    const ClassMap map(net, classes);
    oracle::expectBitIdentical(measureAdaptiveness(net, map, set),
                               oracle::measure(net, map, set),
                               "explicit West-First minus one turn");
}

} // namespace
} // namespace ebda::cdg
