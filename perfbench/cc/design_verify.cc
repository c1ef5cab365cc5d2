/**
 * @file
 * The design-verify workload: no simulation.
 *
 * Design is `ebda_tool design --all`: core::deriveAll for a 3D VC
 * budget, then adaptiveness and the turn-CDG check per scheme on a
 * 4x4x4 mesh. Verify is the Dally relation-CDG, Mendlovic–Matias and
 * connectivity verdicts over a catalog of fabrics, each with a
 * deadlock-prone negative control.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>

#include "bench.hh"
#include "oracles.hh"

#include "cdg/adaptivity.hh"
#include "cdg/mm_check.hh"
#include "cdg/relation_cdg.hh"
#include "cdg/turn_cdg.hh"
#include "core/derivation.hh"
#include "core/minimal.hh"
#include "sweep/router_factory.hh"
#include "topo/network.hh"

namespace perfbench {

namespace {

using ebda::topo::Network;

/** One catalog router and the verdict every checker must reach. */
struct CatalogRouter
{
    std::string spec;
    bool deadlockFree;
};

struct CatalogFabric
{
    std::string name;
    std::function<Network()> build;
    std::vector<CatalogRouter> routers;
};

/** The verification catalog. `minimal`, `dragonfly-noescape` and
 *  `fullmesh-naive` are the negative controls; the mesh is 8x8 because
 *  every checker is quadratic in its node count and a 16x16 mesh takes
 *  about 20 s for the five relations. */
std::vector<CatalogFabric>
catalog(std::uint64_t seed, bool tiny)
{
    const int k = tiny ? 4 : 8;
    const auto mesh = [k] { return Network::mesh({k, k}, {2, 2}); };
    const auto torus = [k] { return Network::torus({k, k}, {1, 1}); };
    const auto dragonfly = [tiny] {
        return tiny ? Network::dragonfly(2, 1, 1)
                    : Network::dragonfly(6, 3, 3);
    };
    const auto fullmesh = [tiny] {
        return Network::fullMesh(tiny ? 6 : 16, 1);
    };
    const std::string updown = "updown:" + std::to_string(seed % (k * k));
    return {
        {"mesh",
         mesh,
         {{"xy", true},
          {"west-first", true},
          {"odd-even", true},
          {"fig7b", true},
          {"minimal", false}}},
        {"torus", torus, {{updown, true}, {"minimal", false}}},
        {"dragonfly",
         dragonfly,
         {{"dragonfly-min", true}, {"dragonfly-noescape", false}}},
        {"fullmesh",
         fullmesh,
         {{"fullmesh-2hop", true}, {"fullmesh-naive", false}}},
    };
}

/** Networks and relations of one round, built in its set-up. The
 *  relations keep references to their networks, hence the pointers. */
struct Fixture
{
    std::unique_ptr<Network> designNet;
    std::vector<std::unique_ptr<Network>> fabrics;
    struct Item
    {
        std::string what;
        bool deadlockFree;
        std::unique_ptr<ebda::cdg::RoutingRelation> relation;
    };
    std::vector<Item> items;
};

struct Sizes
{
    std::vector<int> vcs;
    std::vector<int> designDims;
    /** One scheme out of each run of `stride` consecutive derived
     *  schemes gets the adaptivity and turn checks, the seed picking
     *  which. Consecutive schemes differ in cost, so a fixed offset
     *  would give each seed a different amount of work; one pick per
     *  run gives every seed the same mix. */
    std::size_t stride;
};

Sizes
sizes(bool tiny)
{
    if (tiny)
        return {{1, 1, 2}, {3, 3, 3}, 4};
    return {{2, 2, 2}, {4, 4, 4}, 12};
}

Fixture
setUp(const RunConfig &cfg, const Sizes &sz, Tracer &tracer)
{
    Tracer::Scope span(tracer, "setup");
    Fixture fx;
    {
        Tracer::Scope s(tracer, "topo.build");
        fx.designNet = std::make_unique<Network>(
            Network::mesh(sz.designDims, sz.vcs));
    }
    for (const CatalogFabric &f : catalog(cfg.seed, cfg.tiny)) {
        {
            Tracer::Scope s(tracer, "topo.build");
            fx.fabrics.push_back(std::make_unique<Network>(f.build()));
        }
        for (const CatalogRouter &r : f.routers) {
            Tracer::Scope s(tracer, "routing.relation_build");
            std::string err;
            auto rel = ebda::sweep::makeRouter(*fx.fabrics.back(), r.spec,
                                               &err);
            if (!rel)
                throw std::runtime_error(r.spec + " on " + f.name + ": "
                                         + err);
            fx.items.push_back(
                {r.spec + " on " + f.name, r.deadlockFree, std::move(rel)});
        }
    }
    return fx;
}

/** What one round produced. */
struct Round
{
    double setupSeconds = 0.0;
    double designSeconds = 0.0;
    double verifySeconds = 0.0;
    double cpuSeconds = 0.0;
    std::vector<double> jobWalls;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mmStates = 0;
};

/** Runs one library call as an operation: an exception is a failed
 *  operation, counted and failing a check. */
template <typename Fn>
bool
attempt(Round &round, Checks &checks, const std::string &what, Fn &&fn)
{
    ++round.attempted;
    try {
        fn();
        return true;
    } catch (const std::exception &e) {
        ++round.failed;
        checks.expect(false, what + " did not complete: " + e.what());
        return false;
    }
}

void
designPhase(const RunConfig &cfg, const Sizes &sz, const Fixture &fx,
            Tracer &tracer, Checks &checks, Round &round)
{
    Tracer::Scope phase(tracer, "design");
    std::vector<ebda::core::PartitionScheme> schemes;
    attempt(round, checks, "deriveAll", [&] {
        Tracer::Scope span(tracer, "core.derive");
        ebda::core::DerivationOptions opts;
        opts.permuteTransitionOrders = true;
        opts.maxSchemes = 4096;
        schemes = ebda::core::deriveAll(sz.vcs, opts);
    });
    checks.expect(!schemes.empty(), "deriveAll produced no scheme");
    std::mt19937_64 pick(cfg.seed);
    for (std::size_t base = 0; base < schemes.size(); base += sz.stride) {
        const std::size_t i =
            base + pick() % std::min(sz.stride, schemes.size() - base);
        const auto &scheme = schemes[i];
        Tracer::Scope job(tracer, "design.scheme",
                          static_cast<std::int64_t>(i));
        const double t0 = nowSeconds();
        ebda::cdg::AdaptivenessReport adapt;
        ebda::cdg::CdgReport turns;
        const bool ok = attempt(round, checks, scheme.toString(), [&] {
            {
                Tracer::Scope span(tracer, "cdg.adaptivity");
                adapt = ebda::cdg::measureAdaptiveness(*fx.designNet, scheme);
            }
            Tracer::Scope span(tracer, "cdg.turn_check");
            turns = ebda::cdg::checkDeadlockFree(*fx.designNet, scheme);
        });
        round.jobWalls.push_back(nowSeconds() - t0);
        if (!ok)
            continue;
        checks.expect(turns.deadlockFree,
                      scheme.toString() + ": turn CDG is cyclic");
        checks.expect(adapt.averageFraction > 0.0
                          && adapt.averageFraction <= 1.0,
                      scheme.toString() + ": adaptiveness out of (0, 1]");
    }
    for (const auto &scheme : schemes)
        checks.expect(scheme.validate().ok,
                      scheme.toString() + ": fails validate()");
}

void
verifyPhase(Fixture &fx, Tracer &tracer, Checks &checks, Round &round)
{
    Tracer::Scope phase(tracer, "verify");
    for (std::size_t i = 0; i < fx.items.size(); ++i) {
        const Fixture::Item &item = fx.items[i];
        Tracer::Scope job(tracer, "verify.item",
                          static_cast<std::int64_t>(i));
        const double t0 = nowSeconds();
        ebda::cdg::CdgReport dally;
        ebda::cdg::MmReport mm;
        ebda::cdg::ConnectivityReport conn;
        const bool ok = attempt(round, checks, item.what, [&] {
            {
                Tracer::Scope span(tracer, "cdg.dally");
                dally = ebda::cdg::checkDeadlockFree(*item.relation);
            }
            {
                Tracer::Scope span(tracer, "cdg.mm");
                mm = ebda::cdg::checkMendlovicMatias(*item.relation);
            }
            Tracer::Scope span(tracer, "cdg.connectivity");
            conn = ebda::cdg::checkConnectivity(*item.relation);
        });
        round.jobWalls.push_back(nowSeconds() - t0);
        if (!ok)
            continue;
        round.mmStates += mm.numStates;
        checks.expect(dally.deadlockFree == mm.deadlockFree,
                      item.what + ": Dally and Mendlovic-Matias disagree");
        checks.expect(dally.deadlockFree == item.deadlockFree,
                      item.what + (item.deadlockFree
                                       ? ": Dally finds a cycle"
                                       : ": negative control is acyclic"));
        if (item.deadlockFree)
            checks.expect(conn.connected, item.what + ": not connected");
    }
}

/** The closed-form minimum channel count against the library's formula
 *  and its merged construction. */
void
checkMinimumChannels(Checks &checks)
{
    for (unsigned n = 2; n <= 5; ++n) {
        const auto dims = static_cast<std::uint8_t>(n);
        const auto scheme = ebda::core::mergedScheme(dims);
        const std::string what = std::to_string(n) + "D minimum channels";
        checks.expect(ebda::core::minFullyAdaptiveChannels(dims)
                          == minimumChannels(n),
                      what + ": formula");
        checks.expect(ebda::core::channelCount(scheme) == minimumChannels(n),
                      what + ": merged construction");
        checks.expect(scheme.validate().ok, what + ": validate()");
    }
}

Round
runRound(const RunConfig &cfg, const Sizes &sz, Tracer &tracer,
         Checks &checks)
{
    Round round;
    const double s0 = nowSeconds();
    Fixture fx = setUp(cfg, sz, tracer);
    round.setupSeconds = nowSeconds() - s0;
    const double c0 = processCpuSeconds();
    const double t0 = nowSeconds();
    designPhase(cfg, sz, fx, tracer, checks, round);
    const double t1 = nowSeconds();
    verifyPhase(fx, tracer, checks, round);
    round.designSeconds = t1 - t0;
    round.verifySeconds = nowSeconds() - t1;
    round.cpuSeconds = processCpuSeconds() - c0;
    return round;
}

} // namespace

Outcome
runDesignVerify(const RunConfig &cfg, Tracer &tracer, Checks &checks)
{
    const Sizes sz = sizes(cfg.tiny);
    checkMinimumChannels(checks);
    Tracer off(false);
    Outcome out;
    std::vector<Round> plain;
    std::vector<double> overhead;
    std::map<std::string, std::vector<double>> layers;
    const double deadline = nowSeconds() + cfg.seconds;
    while (true) {
        const double r0 = nowSeconds();
        plain.push_back(runRound(cfg, sz, off, checks));
        const Round &u = plain.back();
        out.attempted += u.attempted;
        out.failed += u.failed;
        if (cfg.trace) {
            const std::size_t mark = tracer.mark();
            const Round t = runRound(cfg, sz, tracer, checks);
            out.attempted += t.attempted;
            out.failed += t.failed;
            checks.expect(t.mmStates == u.mmStates,
                          "traced round explored other MM states");
            overhead.push_back(t.designSeconds + t.verifySeconds
                               - u.designSeconds - u.verifySeconds);
            for (const auto &[name, s] :
                 tracer.selfSeconds(mark, tracer.mark()))
                layers[name].push_back(s);
        }
        if (nowSeconds() + (nowSeconds() - r0) > deadline)
            break;
    }

    std::vector<double> setup, wall, cpu, design, verify;
    std::vector<std::vector<double>> jobWalls;
    for (const Round &r : plain) {
        out.roundSeconds.push_back(r.designSeconds + r.verifySeconds);
        setup.push_back(r.setupSeconds);
        wall.push_back(r.designSeconds + r.verifySeconds);
        cpu.push_back(r.cpuSeconds);
        design.push_back(r.designSeconds);
        verify.push_back(r.verifySeconds);
        jobWalls.push_back(r.jobWalls);
    }
    Metrics &m = out.metrics;
    if (!cfg.trace) {
        m["setup_s"] = {median(setup), "s"};
        m["wall_s"] = {median(wall), "s"};
        m["cpu_s"] = {median(cpu), "s"};
        m["job_p50_s"] = {jobMedian(jobWalls), "s"};
        m["peak_rss_mb"] = {peakRssMiB(), "MiB"};
        return out;
    }
    out.notEntered = {
        "sweep.expand_s",        "sweep.store_open_s",
        "sim.construct_s",       "routing.table_compile_s",
        "routing.table_bytes",   "routing.table_fallback_jobs",
        "sim.sharded_jobs",      "routing.route_calls",
        "sim.run_s",             "sim.wakeups",
        "sim.event_jobs",        "sim.fault_checks",
        "sweep.serialize_s",     "sweep.store_s",
        "sweep.store_bytes",     "sweep.cache_blocked_s",
        "sweep.worker_idle_s",   "node_cycles_per_s"};
    const auto layer = [&](const char *span) {
        return median(layers[span]);
    };
    m["topo.build_s"] = {layer("topo.build"), "s"};
    m["routing.relation_build_s"] = {layer("routing.relation_build"), "s"};
    m["core.derive_s"] = {layer("core.derive"), "s"};
    m["cdg.adaptivity_s"] = {layer("cdg.adaptivity"), "s"};
    m["cdg.turn_check_s"] = {layer("cdg.turn_check"), "s"};
    m["cdg.dally_s"] = {layer("cdg.dally"), "s"};
    m["cdg.mm_s"] = {layer("cdg.mm"), "s"};
    m["cdg.connectivity_s"] = {layer("cdg.connectivity"), "s"};
    m["cdg.mm_states"] = {static_cast<double>(plain.front().mmStates),
                          "count"};
    m["design_s"] = {median(design), "s"};
    m["verify_s"] = {median(verify), "s"};
    m["trace.overhead_s"] = {median(overhead), "s"};
    return out;
}

} // namespace perfbench
