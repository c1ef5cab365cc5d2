/**
 * @file
 * Full equivalence sweep: every (2,2,2) derivation measured on a 4x4x4
 * mesh by the offset-keyed DP and by the per-destination reference
 * (adaptivity_oracle.hh), every report field compared bitwise. Most of
 * its run time is the reference; test_adaptivity_equiv covers a
 * twelfth of these schemes in the tier-1 gate.
 */

#include <gtest/gtest.h>

#include "adaptivity_oracle.hh"
#include "core/derivation.hh"

namespace ebda::cdg {
namespace {

TEST(AdaptivenessSweep, AllDerived222SchemesOn4x4x4)
{
    core::DerivationOptions opts;
    opts.permuteTransitionOrders = true;
    opts.maxSchemes = 4096;
    const auto schemes = core::deriveAll({2, 2, 2}, opts);
    ASSERT_EQ(schemes.size(), 2304u);
    const auto net = topo::Network::mesh({4, 4, 4}, {2, 2, 2});
    for (std::size_t i = 0; i < schemes.size(); ++i)
        oracle::expectMatchesOracle(net, schemes[i],
                                    "#" + std::to_string(i));
}

} // namespace
} // namespace ebda::cdg
