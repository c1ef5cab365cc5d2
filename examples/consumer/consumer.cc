// Links ebda_cdg from an outside project: West-First on a 4x4 mesh must
// verify deadlock-free and partially adaptive.

#include <iostream>

#include "cdg/adaptivity.hh"
#include "cdg/turn_cdg.hh"
#include "core/catalog.hh"

int
main()
{
    using namespace ebda;
    const auto net = topo::Network::mesh({4, 4}, {1, 1});
    const auto scheme = core::schemeFig6P3();
    const bool free = cdg::checkDeadlockFree(net, scheme).deadlockFree;
    const double adapt = cdg::measureAdaptiveness(net, scheme).averageFraction;
    std::cout << scheme.toString() << ": deadlock-free " << free
              << ", adaptiveness " << adapt << '\n';
    return free && adapt > 0.0 && adapt < 1.0 ? 0 : 1;
}
