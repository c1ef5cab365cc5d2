/**
 * @file
 * Independent computations the benchmark checks the library's outputs
 * against. None of them calls the code it checks: distances come from
 * enumerating coordinates, load bounds from the binomial model of the
 * generator's Bernoulli draws, the channel count from its closed form.
 */

#ifndef PERFBENCH_ORACLES_HH
#define PERFBENCH_ORACLES_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/simconfig.hh"
#include "sim/traffic.hh"

namespace perfbench {

/** Mean and variance of the hop distance of one packet. */
struct DistanceMoments
{
    double mean = 0.0;
    double variance = 0.0;
};

/**
 * Manhattan-distance moments of the packets `pattern` generates on a
 * mesh with radices `dims`: uniform draws any destination but the
 * source; transpose reverses the coordinate vector, and sources on the
 * diagonal send nothing. Only uniform and transpose are supported.
 */
DistanceMoments meshDistanceMoments(const std::vector<int> &dims,
                                    ebda::sim::TrafficPattern pattern);

/**
 * Probability that a generation draw yields a packet: uniform discards
 * the 1/n draws that name the source; transpose has no traffic from
 * the k diagonal nodes of a k x k mesh. `dims` may be empty for
 * non-grid fabrics (uniform only).
 */
double sendingFraction(const std::vector<int> &dims, std::size_t nodes,
                       ebda::sim::TrafficPattern pattern);

/** Below the knee: drained, not deadlocked, and mean latency within
 *  three times the zero-load estimate (hops + packet length + 2). */
bool belowKnee(const ebda::sim::SimResult &r,
               const ebda::sim::SimConfig &c);

/** Offered load within six binomial standard deviations of
 *  rate x sendingFraction over every generating cycle. Empty when the
 *  check holds, else the reason. */
std::string checkOfferedLoad(const ebda::sim::SimResult &r,
                             const ebda::sim::SimConfig &c,
                             std::size_t nodes, double sending);

/** Accepted load equals offered load within six binomial standard
 *  deviations of the measurement window, plus the packets that can be
 *  in flight across its two edges. Only meaningful below the knee. */
std::string checkAcceptedLoad(const ebda::sim::SimResult &r,
                              const ebda::sim::SimConfig &c,
                              std::size_t nodes, double sending);

/** Mean hop count within six standard errors of the analytic mean
 *  distance (minimal routers, drained runs). */
std::string checkMeanHops(const ebda::sim::SimResult &r,
                          const DistanceMoments &m);

/** The paper's minimum channel count (n+1) * 2^(n-1) for fully
 *  adaptive routing in n dimensions. */
std::size_t minimumChannels(unsigned n);

} // namespace perfbench

#endif // PERFBENCH_ORACLES_HH
