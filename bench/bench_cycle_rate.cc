/**
 * @file
 * Whole-sim-loop throughput benchmark for the arena-backed flit fabric:
 * one fixed latency point (8x8 mesh, 2 VCs/dim, fig7b, uniform 0.10
 * flits/node/cycle) timed over exactly the measurement window via the
 * simulator's measurement-phase hooks. The zero-steady-state-allocation
 * contract over the same window is the tier-1 test
 * tests/test_zero_alloc.cc.
 *
 * This binary exits non-zero when
 *  - a committed baseline is supplied via EBDA_SIM_BASELINE_JSON and
 *    the measured cycles/s regresses: against a baseline that already
 *    carries a `sim_loop` object, more than 25% below its
 *    cycles_per_sec; against a pre-arena baseline (route-compute
 *    schema only), below 1.5x its sweep.table_cycles_per_sec, or
 *  - the run fails to drain, deadlocks, or the hooks never fire.
 *
 * The regression gate is a wall-clock verdict, so it is skipped (with
 * a visible NOTICE, and reported as regression_gate_skipped_noisy in
 * the JSON) when the three identical reps spread more than 15% — a
 * noisy CI host cannot support the verdict either way.
 *
 * Machine-readable output: the JSON summary is printed to stdout and,
 * when EBDA_CYCLE_BENCH_JSON is set, written to that path (CI uploads
 * it as an artifact; scripts/perf_baseline.sh merges it into
 * BENCH_sim.json as the `sim_loop` member).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "sim/simulator.hh"
#include "sweep/router_factory.hh"
#include "util/json.hh"

namespace ebda {
namespace {

using Clock = std::chrono::steady_clock;

/** Figures of the committed BENCH_sim.json relevant to the gate. */
struct Baseline
{
    bool loaded = false;
    /** sim_loop.cycles_per_sec when present (arena-era schema). */
    double simLoopCyclesPerSec = 0.0;
    /** sweep.table_cycles_per_sec (route-compute-era schema). */
    double sweepTableCyclesPerSec = 0.0;
};

Baseline
loadBaseline(const char *path)
{
    Baseline base;
    std::ifstream in(path);
    if (!in) {
        std::cerr << "baseline " << path << " unreadable; gate skipped\n";
        return base;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto doc = parseJson(buf.str(), &err);
    if (!doc || !doc->isObject()) {
        std::cerr << "baseline " << path << " unparseable (" << err
                  << "); gate skipped\n";
        return base;
    }
    if (const JsonValue *loop = doc->find("sim_loop")) {
        if (const JsonValue *cps = loop->find("cycles_per_sec"))
            base.simLoopCyclesPerSec = cps->asDouble();
    }
    if (const JsonValue *sweep = doc->find("sweep")) {
        if (const JsonValue *cps = sweep->find("table_cycles_per_sec"))
            base.sweepTableCyclesPerSec = cps->asDouble();
    }
    base.loaded = true;
    return base;
}

/** One timed run: flit moves and wall clock at the first measurement
 *  cycle and at the first post-measurement cycle. */
struct RepResult
{
    /** Hooks fired, run drained, no deadlock or abort. */
    bool clean = false;
    double cyclesPerSec = 0.0;
    double flitMovesPerSec = 0.0;
    std::size_t packetTableSlots = 0;
    std::uint64_t packetsEjected = 0;
};

RepResult
runOnce(const topo::Network &net, const cdg::RoutingRelation &rel,
        const sim::TrafficGenerator &gen, const sim::SimConfig &cfg)
{
    sim::Simulator simulator(net, rel, gen, cfg);

    struct Window
    {
        bool started = false;
        bool ended = false;
        std::uint64_t moves0 = 0, moves1 = 0;
        Clock::time_point t0, t1;
    } w;
    simulator.setMeasurePhaseHooks(
        [&] {
            w.started = true;
            w.moves0 = simulator.flitMoves();
            w.t0 = Clock::now();
        },
        [&] {
            w.t1 = Clock::now();
            w.moves1 = simulator.flitMoves();
            w.ended = true;
        });

    const auto result = simulator.run();

    RepResult rep;
    rep.clean = w.started && w.ended && !result.deadlocked
        && result.drained && !result.aborted;
    if (!rep.clean) {
        std::cerr << "run did not cover the measurement window cleanly"
                  << " (started=" << w.started << " ended=" << w.ended
                  << " deadlocked=" << result.deadlocked
                  << " drained=" << result.drained << ")\n";
    }
    const double seconds =
        std::chrono::duration<double>(w.t1 - w.t0).count();
    rep.cyclesPerSec = seconds > 0
        ? static_cast<double>(cfg.measureCycles) / seconds
        : 0.0;
    rep.flitMovesPerSec = seconds > 0
        ? static_cast<double>(w.moves1 - w.moves0) / seconds
        : 0.0;
    rep.packetTableSlots = simulator.fabric().packets.size();
    rep.packetsEjected = result.packetsEjected;
    return rep;
}

int
benchMain()
{
    const auto net = topo::Network::mesh({8, 8}, {2, 2});
    const auto rel = sweep::makeRouter(net, "fig7b");
    if (!rel) {
        std::cerr << "makeRouter(fig7b) failed\n";
        return 1;
    }
    const sim::TrafficGenerator gen(net, sim::TrafficPattern::Uniform);
    sim::SimConfig cfg;
    cfg.injectionRate = 0.10;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 20000;
    cfg.drainCycles = 50000;
    cfg.watchdogCycles = 5000;
    cfg.seed = 2024;
    cfg.routeTable = true;

    // Identical deterministic runs; the best wall-clock window is the
    // throughput figure (the others differ only by scheduler noise on
    // a shared box).
    constexpr int kReps = 3;
    bool pass = true;
    double slowestRate = 0.0;
    RepResult best;
    for (int r = 0; r < kReps; ++r) {
        const RepResult rep = runOnce(net, *rel, gen, cfg);
        if (!rep.clean)
            pass = false;
        std::fprintf(stderr, "  rep %d: %.0f cycles/s\n", r,
                     rep.cyclesPerSec);
        if (r == 0 || rep.cyclesPerSec < slowestRate)
            slowestRate = rep.cyclesPerSec;
        if (rep.cyclesPerSec > best.cyclesPerSec)
            best = rep;
    }

    const double cyclesPerSec = best.cyclesPerSec;
    const double flitMovesPerSec = best.flitMovesPerSec;

    // Per-rep spread: (best - worst) / best. On a quiet host the three
    // identical deterministic runs land within a few percent; a large
    // spread means a noisy neighbour, and a best-of-3 figure from such
    // a host cannot support a regression verdict either way.
    const double repSpread = cyclesPerSec > 0
        ? (cyclesPerSec - slowestRate) / cyclesPerSec
        : 0.0;
    constexpr double kMaxTrustedSpread = 0.15;
    const bool hostNoisy = repSpread > kMaxTrustedSpread;

    std::printf("sim loop (fig7b, uniform 0.10, mesh 8x8, 2 VCs/dim):\n"
                "  %.0f cycles/s, %.0f flit-moves/s over %llu measured "
                "cycles (best of %d)\n  packet table high-water %zu "
                "slots (%llu packets ejected)\n",
                cyclesPerSec, flitMovesPerSec,
                static_cast<unsigned long long>(cfg.measureCycles),
                kReps, best.packetTableSlots,
                static_cast<unsigned long long>(best.packetsEjected));
    std::printf("  per-rep spread %.1f%% (worst %.0f cycles/s)\n",
                100.0 * repSpread, slowestRate);
    if (hostNoisy)
        std::printf("  NOTICE: spread exceeds %.0f%% — noisy host, "
                    "regression gate SKIPPED\n",
                    100.0 * kMaxTrustedSpread);

    // Regression gates against the committed baseline. Skipped (with
    // the notice above) when the reps disagree too much to trust a
    // wall-clock verdict.
    double baselineCyclesPerSec = 0.0;
    if (const char *path = std::getenv("EBDA_SIM_BASELINE_JSON");
        !hostNoisy && path && *path) {
        const Baseline base = loadBaseline(path);
        if (base.loaded && base.simLoopCyclesPerSec > 0) {
            baselineCyclesPerSec = base.simLoopCyclesPerSec;
            const double floor = 0.75 * base.simLoopCyclesPerSec;
            std::printf("  baseline sim_loop %.0f cycles/s -> floor "
                        "%.0f (25%% regression gate): %s\n",
                        base.simLoopCyclesPerSec, floor,
                        cyclesPerSec >= floor ? "ok" : "REGRESSED");
            if (cyclesPerSec < floor)
                pass = false;
        } else if (base.loaded && base.sweepTableCyclesPerSec > 0) {
            // Pre-arena baseline: the arena fabric must clear 1.5x the
            // whole-run sweep figure the route-table era recorded.
            baselineCyclesPerSec = base.sweepTableCyclesPerSec;
            const double floor = 1.5 * base.sweepTableCyclesPerSec;
            std::printf("  baseline sweep %.0f cycles/s -> floor %.0f "
                        "(1.5x arena gate): %s\n",
                        base.sweepTableCyclesPerSec, floor,
                        cyclesPerSec >= floor ? "ok" : "TOO SLOW");
            if (cyclesPerSec < floor)
                pass = false;
        }
    }

    std::ostringstream json;
    json << "{\"bench\":\"cycle_rate\",\"network\":\"mesh8x8_vc2\""
         << ",\"router\":\"fig7b\",\"injection_rate\":0.1"
         << ",\"measure_cycles\":" << cfg.measureCycles
         << ",\"reps\":" << kReps
         << ",\"cycles_per_sec\":" << cyclesPerSec
         << ",\"flit_moves_per_sec\":" << flitMovesPerSec
         << ",\"packet_table_slots\":" << best.packetTableSlots
         << ",\"rep_spread\":" << repSpread
         << ",\"regression_gate_skipped_noisy\":"
         << (hostNoisy ? "true" : "false")
         << ",\"baseline_cycles_per_sec\":" << baselineCyclesPerSec
         << ",\"pass\":" << (pass ? "true" : "false") << "}";

    std::cout << "\nCYCLE_BENCH_JSON: " << json.str() << '\n';
    if (const char *path = std::getenv("EBDA_CYCLE_BENCH_JSON");
        path && *path) {
        std::ofstream out(path);
        out << json.str() << '\n';
    }
    return pass ? 0 : 1;
}

} // namespace
} // namespace ebda

int
main()
{
    return ebda::benchMain();
}
