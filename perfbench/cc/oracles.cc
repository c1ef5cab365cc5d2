#include "oracles.hh"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr double kSigmas = 6.0;

std::vector<int>
coordOf(std::size_t node, const std::vector<int> &dims)
{
    std::vector<int> c(dims.size());
    for (std::size_t d = 0; d < dims.size(); ++d) {
        c[d] = static_cast<int>(node % static_cast<std::size_t>(dims[d]));
        node /= static_cast<std::size_t>(dims[d]);
    }
    return c;
}

std::size_t
nodeCount(const std::vector<int> &dims)
{
    std::size_t n = 1;
    for (const int k : dims)
        n *= static_cast<std::size_t>(k);
    return n;
}

std::string
outside(const char *what, double got, double want, double tolerance)
{
    std::ostringstream os;
    os << what << " " << got << " is " << std::abs(got - want)
       << " from " << want << " (tolerance " << tolerance << ")";
    return os.str();
}

} // namespace

DistanceMoments
meshDistanceMoments(const std::vector<int> &dims,
                    ebda::sim::TrafficPattern pattern)
{
    using ebda::sim::TrafficPattern;
    const std::size_t n = nodeCount(dims);
    double count = 0.0, sum = 0.0, sumSq = 0.0;
    const auto add = [&](double dist) {
        count += 1.0;
        sum += dist;
        sumSq += dist * dist;
    };
    if (pattern == TrafficPattern::Uniform) {
        // Per dimension the distance |a - b| is independent of the
        // other dimensions, but excluding src == dst couples them, so
        // enumerate whole pairs.
        std::vector<std::vector<int>> coords(n);
        for (std::size_t s = 0; s < n; ++s)
            coords[s] = coordOf(s, dims);
        for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t t = 0; t < n; ++t) {
                if (t == s)
                    continue;
                int dist = 0;
                for (std::size_t d = 0; d < dims.size(); ++d)
                    dist += std::abs(coords[s][d] - coords[t][d]);
                add(dist);
            }
        }
    } else if (pattern == TrafficPattern::Transpose) {
        for (std::size_t s = 0; s < n; ++s) {
            const auto c = coordOf(s, dims);
            int dist = 0;
            for (std::size_t d = 0; d < dims.size(); ++d)
                dist += std::abs(c[d] - c[dims.size() - 1 - d]);
            if (dist > 0)
                add(dist);
        }
    } else {
        throw std::invalid_argument("distance oracle: unsupported pattern");
    }
    DistanceMoments m;
    m.mean = sum / count;
    m.variance = sumSq / count - m.mean * m.mean;
    return m;
}

double
sendingFraction(const std::vector<int> &dims, std::size_t nodes,
                ebda::sim::TrafficPattern pattern)
{
    using ebda::sim::TrafficPattern;
    if (pattern == TrafficPattern::Uniform)
        return static_cast<double>(nodes - 1) / static_cast<double>(nodes);
    if (pattern != TrafficPattern::Transpose || dims.empty())
        throw std::invalid_argument("sending oracle: unsupported pattern");
    std::size_t senders = 0;
    for (std::size_t s = 0; s < nodes; ++s) {
        const auto c = coordOf(s, dims);
        for (std::size_t d = 0; d < dims.size(); ++d) {
            if (c[d] != c[dims.size() - 1 - d]) {
                ++senders;
                break;
            }
        }
    }
    return static_cast<double>(senders) / static_cast<double>(nodes);
}

bool
belowKnee(const ebda::sim::SimResult &r, const ebda::sim::SimConfig &c)
{
    const double zeroLoad = r.avgHops + c.packetLength + 2.0;
    return r.drained && !r.deadlocked && r.packetsMeasured > 0
           && r.avgLatency <= 3.0 * zeroLoad;
}

std::string
checkOfferedLoad(const ebda::sim::SimResult &r,
                 const ebda::sim::SimConfig &c, std::size_t nodes,
                 double sending)
{
    // Every node draws Bernoulli(rate / L) each generating cycle and
    // keeps the packet with probability `sending`; generation runs on
    // every executed cycle, so the packet count is binomial over
    // nodes x cycles trials.
    const double L = c.packetLength;
    const double q = c.injectionRate / L * sending;
    const double trials =
        static_cast<double>(nodes) * static_cast<double>(r.cycles + 1);
    const double want = c.injectionRate * sending;
    const double tol = kSigmas * L * std::sqrt(q * (1.0 - q) / trials);
    if (std::abs(r.offeredRate - want) <= tol)
        return {};
    return outside("offered load", r.offeredRate, want, tol);
}

std::string
checkAcceptedLoad(const ebda::sim::SimResult &r,
                  const ebda::sim::SimConfig &c, std::size_t nodes,
                  double sending)
{
    const double L = c.packetLength;
    const double q = c.injectionRate / L * sending;
    const double window = static_cast<double>(c.measureCycles);
    const double trials = static_cast<double>(nodes) * window;
    // In steady state the window ejects what was generated one mean
    // latency earlier; the flits in flight at either edge can shift
    // the count by at most offered x latency each.
    const double edges = 2.0 * r.offeredRate * r.avgLatency / window;
    const double tol =
        kSigmas * L * std::sqrt(q * (1.0 - q) / trials) + edges;
    if (std::abs(r.acceptedRate - r.offeredRate) <= tol)
        return {};
    return outside("accepted load", r.acceptedRate, r.offeredRate, tol);
}

std::string
checkMeanHops(const ebda::sim::SimResult &r, const DistanceMoments &m)
{
    if (r.packetsMeasured == 0)
        return "no measured packets";
    // Given the packet count, each packet's source is uniform over the
    // sending nodes, so hop counts are i.i.d. draws of the distance.
    const double tol = kSigmas
                       * std::sqrt(m.variance
                                   / static_cast<double>(r.packetsMeasured))
                       + 1e-9;
    if (std::abs(r.avgHops - m.mean) <= tol)
        return {};
    return outside("mean hops", r.avgHops, m.mean, tol);
}

std::size_t
minimumChannels(unsigned n)
{
    return static_cast<std::size_t>(n + 1) << (n - 1);
}

} // namespace perfbench
