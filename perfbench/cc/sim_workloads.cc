/**
 * @file
 * The three simulation workloads: curve-mesh16, mesh32, sparse-mixed.
 *
 * A round is one fixed batch of sweep jobs. The untraced round runs it
 * exactly as `ebda_sweep run` does: parse and expand the spec, open a
 * fresh ResultCache, sweep::runSweep, write the JSONL rows. The traced
 * round replays the same jobs stage by stage (build, relation, traffic,
 * Simulator constructor, run, store, rows) under spans, and its rows
 * must be byte-identical to the untraced ones.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "bench.hh"
#include "oracles.hh"

#include "cdg/relation_cdg.hh"
#include "sim/shard_partition.hh"
#include "sim/sim_json.hh"
#include "sim/simulator.hh"
#include "sweep/result_cache.hh"
#include "sweep/router_factory.hh"
#include "sweep/runner.hh"
#include "sweep/sweep_spec.hh"
#include "sweep/thread_pool.hh"
#include "util/json.hh"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using ebda::sim::SchedMode;
using ebda::sim::SimResult;
using ebda::sweep::JobOutcome;
using ebda::sweep::ResultCache;
using ebda::sweep::SweepJob;

/** One sweep spec of a workload and what its checks may assume. */
struct SpecDef
{
    std::string json;
    /** Jobs at or below this injection rate must run below the knee. */
    double kneeFloor = 0.0;
};

struct SimParams
{
    int warmup, measure, drain, watchdog;
};

std::string
simJson(std::uint64_t seed, const SimParams &p, const std::string &extra)
{
    std::ostringstream os;
    os << "{\"seed\":" << seed << ",\"warmupCycles\":" << p.warmup
       << ",\"measureCycles\":" << p.measure
       << ",\"drainCycles\":" << p.drain
       << ",\"watchdogCycles\":" << p.watchdog << extra << "}";
    return os.str();
}

std::string
specJson(const std::string &name, const std::string &topology,
         const std::string &routers, const std::string &patterns,
         const std::string &rates, const std::string &sim)
{
    return "{\"name\":\"" + name + "\",\"topologies\":[" + topology
           + "],\"routers\":[" + routers + "],\"patterns\":[" + patterns
           + "],\"rates\":[" + rates + "],\"sim\":" + sim + "}";
}

std::string
mesh(int k)
{
    return "{\"type\":\"mesh\",\"dims\":[" + std::to_string(k) + ","
           + std::to_string(k) + "],\"vcs\":[2,2]}";
}

/**
 * The workloads' inputs. The seed is the specs' master seed (every
 * job's traffic stream derives from it); the grids themselves are
 * fixed, so every seed does the same amount of work.
 */
std::vector<SpecDef>
workloadSpecs(const RunConfig &cfg)
{
    const bool tiny = cfg.tiny;
    const std::uint64_t seed = cfg.seed;
    if (cfg.workload == "curve-mesh16") {
        // The paper's comparison: EbDa's fig7b against three turn
        // models, from near-idle to past the knee, on a cold cache.
        const SimParams p = tiny ? SimParams{100, 300, 300, 1000}
                                 : SimParams{400, 1000, 1500, 1500};
        return {{specJson("curve-mesh16", mesh(tiny ? 4 : 16),
                          "\"xy\",\"west-first\",\"odd-even\",\"fig7b\"",
                          "\"uniform\",\"transpose\"",
                          tiny ? "0.02,0.3" : "0.02,0.06,0.12,0.3",
                          simJson(seed, p, "")),
                 0.02}};
    }
    if (cfg.workload == "mesh32") {
        // The only fabric whose route table exceeds the default budget
        // and where Auto asks for the sharded backend.
        const SimParams p = tiny ? SimParams{100, 300, 300, 1000}
                                 : SimParams{400, 1500, 1500, 1500};
        return {{specJson("mesh32", mesh(tiny ? 6 : 32),
                          "\"fig7b\",\"xy\"", "\"uniform\"",
                          tiny ? "0.02,0.04" : "0.01,0.02,0.03,0.04",
                          simJson(seed, p, "")),
                 1.0}};
    }
    if (cfg.workload == "sparse-mixed") {
        // Long windows, so simulation rather than table compile and
        // round overhead dominates these small fabrics.
        const int scale = tiny ? 10 : 1;
        const SimParams idle{1000, 100000 / scale, 2000, 1500};
        const SimParams small{500, 40000 / scale, 2000, 1500};
        const std::string dragonfly =
            "{\"type\":\"dragonfly\",\"params\":{\"a\":4,\"p\":2,\"h\":2,"
            "\"localVcs\":2,\"globalVcs\":1}}";
        const std::string fullmesh =
            "{\"type\":\"fullmesh\",\"params\":{\"nodes\":8,\"vcs\":1}}";
        // Two fixed link faults in the middle of the 8x8 mesh (node
        // ids are row-major: 27 -> 28 and 36 -> 44 are interior links).
        const std::string faults =
            ",\"faults\":{\"events\":["
            "{\"kind\":\"link\",\"cycle\":800,\"src\":27,\"dst\":28},"
            "{\"kind\":\"link\",\"cycle\":1500,\"src\":36,\"dst\":44}]}";
        const std::string protocol =
            ",\"protocol\":{\"requestReply\":true,\"messageClasses\":2}";
        return {
            // Near-idle: Auto resolves to the event backend.
            {specJson("sparse-idle", mesh(tiny ? 4 : 16), "\"xy\",\"fig7b\"",
                      "\"uniform\"", "0.001,0.004", simJson(seed, idle, "")),
             1.0},
            {specJson("sparse-dragonfly", dragonfly, "\"dragonfly-min\"",
                      "\"uniform\"", "0.05,0.15", simJson(seed, small, "")),
             1.0},
            {specJson("sparse-fullmesh", fullmesh, "\"fullmesh-2hop\"",
                      "\"uniform\"", "0.05,0.15", simJson(seed, small, "")),
             1.0},
            {specJson("sparse-faults", mesh(8), "\"fig7b\"", "\"uniform\"",
                      "0.1", simJson(seed, small, faults)),
             0.0},
            {specJson("sparse-protocol", mesh(8), "\"xy\"", "\"uniform\"",
                      "0.08", simJson(seed, small, protocol)),
             0.0},
        };
    }
    throw std::invalid_argument("unknown simulation workload '"
                                + cfg.workload + "'");
}

/** Facts about one job that the checks need, computed before the
 *  rounds from the job's inputs alone. */
struct JobFacts
{
    std::size_t nodes = 0;
    double sending = 0.0;
    /** Set for one-way runs on meshes (all mesh routers here are
     *  minimal). */
    std::optional<DistanceMoments> distance;
};

/** A batch of jobs expanded from the workload's specs. */
struct Batch
{
    std::vector<SweepJob> jobs;
    std::vector<double> kneeFloors;
};

Batch
expandSpecs(const std::vector<SpecDef> &defs, Tracer &tracer)
{
    Tracer::Scope span(tracer, "sweep.expand");
    Batch b;
    for (const SpecDef &d : defs) {
        std::string err;
        const auto spec = ebda::sweep::SweepSpec::parse(d.json, &err);
        if (!spec)
            throw std::runtime_error("bad generated spec: " + err);
        for (SweepJob &j : spec->expand()) {
            b.jobs.push_back(std::move(j));
            b.kneeFloors.push_back(d.kneeFloor);
        }
    }
    return b;
}

/** The set-up part of one round: spec parse and expand, fresh store
 *  open. */
struct Setup
{
    Batch batch;
    std::unique_ptr<ResultCache> cache;
};

Setup
setUp(const std::vector<SpecDef> &defs, const std::string &cacheDir,
      Tracer &tracer)
{
    Setup s;
    s.batch = expandSpecs(defs, tracer);
    Tracer::Scope span(tracer, "sweep.store_open");
    fs::remove_all(cacheDir);
    s.cache = std::make_unique<ResultCache>(cacheDir);
    return s;
}

/** What one round produced. */
struct Round
{
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::vector<JobOutcome> outcomes;
    /** Per-job wall-clock as the store recorded it. */
    std::vector<double> jobWalls;
    std::string rows;
    double cacheBlockedSeconds = 0.0;
    std::uint64_t storeBytes = 0;
};

/** The library's own path, as `ebda_sweep run` drives it. */
Round
sweepRound(const std::vector<SpecDef> &defs, const RunConfig &cfg,
           const std::string &cacheDir)
{
    Tracer off(false);
    Round round;
    const double s0 = nowSeconds();
    Setup s = setUp(defs, cacheDir, off);
    round.setupSeconds = nowSeconds() - s0;

    ebda::sweep::RunOptions opts;
    opts.threads = cfg.workers;
    opts.cache = s.cache.get();
    const double c0 = processCpuSeconds();
    const double t0 = nowSeconds();
    auto report = ebda::sweep::runSweep(s.batch.jobs, opts);
    std::ostringstream rows;
    ebda::sweep::writeResultsJsonl(s.batch.jobs, report.outcomes, rows);
    round.wallSeconds = nowSeconds() - t0;
    round.cpuSeconds = processCpuSeconds() - c0;

    round.rows = rows.str();
    round.outcomes = std::move(report.outcomes);
    round.cacheBlockedSeconds = report.cacheBlockedSeconds;
    for (const SweepJob &j : s.batch.jobs)
        round.jobWalls.push_back(
            s.cache->measuredWallSeconds(j.key).value_or(0.0));
    s.cache.reset();
    round.storeBytes = ResultCache::stats(cacheDir).fileBytes;
    fs::remove_all(cacheDir);
    return round;
}

/** One job replayed stage by stage under spans: sweep::runJob's steps
 *  followed by the runner's store. */
void
replayJob(const SweepJob &job, ResultCache &cache, Tracer &tracer,
          JobOutcome &out, double &wall)
{
    {
        Tracer::Scope span(tracer, "sweep.lookup");
        if (cache.lookupEntry(job.key)) {
            out.ok = false;
            out.error = "a fresh cache served a hit";
            return;
        }
    }
    const double r0 = nowSeconds();
    try {
        const auto net = [&] {
            Tracer::Scope span(tracer, "topo.build");
            return job.topo.build();
        }();
        std::string err;
        const auto router = [&] {
            Tracer::Scope span(tracer, "routing.relation_build");
            return ebda::sweep::makeRouter(net, job.router, &err);
        }();
        if (!router) {
            out.ok = false;
            out.error = err;
            return;
        }
        std::optional<ebda::sim::TrafficGenerator> gen;
        {
            Tracer::Scope span(tracer, "sim.traffic_build");
            gen.emplace(net, job.pattern);
        }
        ebda::sim::SimConfig simCfg = job.cfg;
        simCfg.schedMode = ebda::sim::resolveSchedMode(
            simCfg.schedMode, simCfg.injectionRate, net.numNodes());
        std::optional<ebda::sim::Simulator> sim;
        {
            Tracer::Scope span(tracer, "sim.construct");
            sim.emplace(net, *router, *gen, simCfg);
        }
        Tracer::Scope span(tracer, "sim.run");
        out.result = sim->run();
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
        return;
    }
    wall = nowSeconds() - r0;
    // A tripped run would take the runner's retry and quarantine path;
    // the checks reject it either way.
    if (out.result.deadlocked || out.result.aborted)
        return;
    Tracer::Scope span(tracer, "sweep.store");
    cache.store(job.key, job.canonical, out.result, wall);
}

/** The traced replay of one round. */
Round
tracedRound(const std::vector<SpecDef> &defs, const RunConfig &cfg,
            const std::string &cacheDir, Tracer &tracer)
{
    Round round;
    const double s0 = nowSeconds();
    Setup s = [&] {
        Tracer::Scope span(tracer, "setup");
        return setUp(defs, cacheDir, tracer);
    }();
    round.setupSeconds = nowSeconds() - s0;

    const std::vector<SweepJob> &jobs = s.batch.jobs;
    ResultCache &cache = *s.cache;
    round.outcomes.assign(jobs.size(), JobOutcome{});
    round.jobWalls.assign(jobs.size(), 0.0);
    const double t0 = nowSeconds();
    {
        Tracer::Scope roundSpan(tracer, "sweep.round");
        const std::int64_t parent = roundSpan.id();
        ebda::sweep::ThreadPool pool(cfg.workers);
        pool.parallelForOrdered(
            ebda::sweep::costOrder(jobs, &cache), [&](std::size_t i) {
                Tracer::Scope jobSpan(tracer, "sweep.job",
                                      static_cast<std::int64_t>(i),
                                      parent);
                replayJob(jobs[i], cache, tracer, round.outcomes[i],
                          round.jobWalls[i]);
            });
        {
            Tracer::Scope span(tracer, "sweep.store");
            cache.flush();
        }
        Tracer::Scope span(tracer, "sweep.serialize");
        std::ostringstream rows;
        ebda::sweep::writeResultsJsonl(jobs, round.outcomes, rows);
        round.rows = rows.str();
    }
    round.wallSeconds = nowSeconds() - t0;
    s.cache.reset();
    round.storeBytes = ResultCache::stats(cacheDir).fileBytes;
    fs::remove_all(cacheDir);
    return round;
}

/** The batch plus what the checks need, computed before any round
 *  from the inputs alone. Checks that every router is Dally-clean. */
struct Prepared
{
    Batch batch;
    std::vector<JobFacts> facts;
};

Prepared
prepare(const std::vector<SpecDef> &defs, Tracer &tracer, Checks &checks)
{
    Tracer off(false);
    Prepared p;
    p.batch = expandSpecs(defs, off);
    std::map<std::string, DistanceMoments> moments;
    std::set<std::string> checked;
    for (std::size_t i = 0; i < p.batch.jobs.size(); ++i) {
        const SweepJob &job = p.batch.jobs[i];
        JobFacts f;
        f.nodes = job.topo.build().numNodes();
        const bool isMesh =
            job.topo.kind == ebda::sweep::TopologySpec::Kind::Mesh;
        f.sending = sendingFraction(isMesh ? job.topo.dims
                                           : std::vector<int>{},
                                    f.nodes, job.pattern);
        if (isMesh && job.cfg.faults.empty()
            && !job.cfg.protocol.enabled()) {
            const std::string key = job.topo.toString() + "|"
                                    + ebda::sim::toString(job.pattern);
            if (!moments.count(key))
                moments[key] =
                    meshDistanceMoments(job.topo.dims, job.pattern);
            f.distance = moments[key];
        }
        p.facts.push_back(f);

        // Every router is shown Dally-clean before any round runs it.
        // Meshes are checked at 8 nodes per dimension: the
        // check takes seconds at 16x16 and a minute at 32x32, and the
        // turn rules of these relations repeat across the mesh, so a
        // cycle shows on the 8x8 instance if it shows anywhere.
        ebda::sweep::TopologySpec probe = job.topo;
        if (isMesh)
            for (int &k : probe.dims)
                k = std::min(k, 8);
        const std::string what =
            job.router + " on " + probe.toString();
        if (!checked.insert(what).second)
            continue;
        const auto net = probe.build();
        std::string err;
        const auto router = ebda::sweep::makeRouter(net, job.router, &err);
        if (!checks.expect(router != nullptr, what + ": " + err))
            continue;
        // The benchmark's own check, not a layer of the program.
        Tracer::Scope span(tracer, "oracle.dally");
        checks.expect(ebda::cdg::checkDeadlockFree(*router).deadlockFree,
                      what + " is Dally-clean before it runs");
    }
    return p;
}

std::string
describe(const SweepJob &job)
{
    std::ostringstream os;
    os << job.router << " on " << job.topo.toString() << ", "
       << ebda::sim::toString(job.pattern) << " @ "
       << job.cfg.injectionRate;
    return os.str();
}

/** Checks every job of a round against the oracles; returns the number
 *  of jobs the library failed to complete. A job that failed, was
 *  skipped or was quarantined by the watchdog also fails a check. */
std::uint64_t
checkRound(const Round &round, const Prepared &p, Checks &checks)
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < p.batch.jobs.size(); ++i) {
        const SweepJob &job = p.batch.jobs[i];
        const JobFacts &f = p.facts[i];
        const JobOutcome &o = round.outcomes[i];
        const std::string what = describe(job);
        if (!o.ok || o.skipped || o.quarantined) {
            ++failed;
            checks.expect(false, what + " did not complete: " + o.error);
            continue;
        }
        const SimResult &r = o.result;
        const ebda::sim::SimConfig &c = job.cfg;
        const auto expectEmpty = [&](const std::string &why) {
            checks.expect(why.empty(), what + ": " + why);
        };
        checks.expect(!o.fromCache, what + ": a fresh cache served it");
        checks.expect(!r.deadlocked, what + ": the watchdog tripped");
        const SchedMode want = ebda::sim::resolveSchedMode(
            c.schedMode, c.injectionRate, f.nodes);
        checks.expect(r.schedMode == want,
                      what + ": ran " + ebda::sim::toString(r.schedMode)
                          + ", resolveSchedMode gives "
                          + ebda::sim::toString(want));
        const bool faults = !c.faults.empty();
        const bool protocol = c.protocol.enabled();
        if (!faults)
            expectEmpty(checkOfferedLoad(r, c, f.nodes, f.sending));
        if (f.distance && r.drained)
            expectEmpty(checkMeanHops(r, *f.distance));
        const bool knee = belowKnee(r, c);
        if (knee && !faults && !protocol)
            expectEmpty(checkAcceptedLoad(r, c, f.nodes, f.sending));
        if (c.injectionRate <= p.batch.kneeFloors[i])
            checks.expect(knee, what + ": not below the knee");
        if (faults)
            checks.expect(r.faultChecks > 0
                              && r.faultChecks == r.faultChecksClean,
                          what + ": a degraded relation CDG was cyclic");
        if (protocol)
            checks.expect(r.protocolRequestsDelivered > 0
                              && r.protocolRepliesDelivered
                                     <= r.protocolRequestsDelivered,
                          what + ": more replies than requests");
    }
    return failed;
}

/** Per-batch execution ledger. The totals depend only on the inputs,
 *  except the compile time. */
struct Ledger
{
    std::uint64_t tableFallbackJobs = 0;
    std::uint64_t tableBytes = 0;
    std::uint64_t shardedJobs = 0;
    std::uint64_t eventJobs = 0;
    std::uint64_t routeCalls = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t faultChecks = 0;
    double tableCompileSeconds = 0.0;
    double nodeCycles = 0.0;
};

/** Totals the round's execution ledger; writes one JSON line per job
 *  when `out` is given. */
Ledger
ledgerOf(const Round &round, const Prepared &p, std::ostream *out)
{
    Ledger l;
    for (std::size_t i = 0; i < p.batch.jobs.size(); ++i) {
        const SweepJob &job = p.batch.jobs[i];
        const SimResult &r = round.outcomes[i].result;
        const std::size_t nodes = p.facts[i].nodes;
        // Simulator::run shards only the cycle backend.
        const int shards =
            r.schedMode == SchedMode::Cycle
                ? ebda::sim::resolveShardCount(
                      job.cfg.shards, nodes, r.routeTableCompiled,
                      !job.cfg.faults.empty(), job.cfg.protocol.enabled())
                : 1;
        l.tableFallbackJobs += job.cfg.routeTable && !r.routeTableCompiled;
        l.tableBytes += r.routeTableBytes;
        l.shardedJobs += shards > 1;
        l.eventJobs += r.schedMode == SchedMode::Event;
        l.routeCalls += r.routeComputeCalls;
        l.wakeups += r.wakeups;
        l.faultChecks += r.faultChecks;
        l.tableCompileSeconds +=
            static_cast<double>(r.routeTableCompileNanos) * 1e-9;
        l.nodeCycles +=
            static_cast<double>(nodes) * static_cast<double>(r.cycles);
        if (!out)
            continue;
        ebda::JsonWriter w;
        w.beginObject();
        w.field("key", ebda::sweep::keyToHex(job.key));
        w.field("job", describe(job));
        w.field("schedMode", ebda::sim::toString(r.schedMode));
        w.field("shards", shards);
        w.field("shardThreads",
                shards > 1 ? static_cast<int>(
                                 ebda::sim::shardWorkerThreads(shards))
                           : 1);
        w.field("tableCompiled", r.routeTableCompiled);
        w.field("tablePerSource", r.routeTablePerSource);
        w.field("tableBytes", r.routeTableBytes);
        w.field("tableCompileSeconds",
                static_cast<double>(r.routeTableCompileNanos) * 1e-9, 6);
        w.field("routeCalls", r.routeComputeCalls);
        w.field("cycles", r.cycles);
        w.field("wakeups", r.wakeups);
        w.field("wallSeconds", round.jobWalls[i], 6);
        w.end();
        *out << w.str() << '\n';
    }
    return l;
}

/** Event-mode results must equal a cycle-mode re-run except for the
 *  two execution fields. */
void
checkEventEquivalence(const Round &round, const Prepared &p,
                      Tracer &tracer, Checks &checks)
{
    Tracer::Scope span(tracer, "oracle.cycle_rerun");
    ebda::sweep::RunOptions cycleOpts;
    cycleOpts.schedMode = SchedMode::Cycle;
    for (std::size_t i = 0; i < p.batch.jobs.size(); ++i) {
        SimResult event = round.outcomes[i].result;
        if (event.schedMode != SchedMode::Event)
            continue;
        const auto again = ebda::sweep::runJob(p.batch.jobs[i], cycleOpts);
        SimResult cycle = again.result;
        checks.expect(again.ok && cycle.schedMode == SchedMode::Cycle,
                      describe(p.batch.jobs[i]) + ": cycle re-run failed");
        event.wakeups = cycle.wakeups = 0;
        event.schedMode = cycle.schedMode = SchedMode::Cycle;
        checks.expect(ebda::sim::toJson(event) == ebda::sim::toJson(cycle),
                      describe(p.batch.jobs[i])
                          + ": event result differs from the cycle re-run");
    }
}

} // namespace

bool
isSimWorkload(const std::string &name)
{
    return name == "curve-mesh16" || name == "mesh32"
           || name == "sparse-mixed";
}

Outcome
runSimWorkload(const RunConfig &cfg, Tracer &tracer, Checks &checks)
{
    const auto defs = workloadSpecs(cfg);
    const Prepared p = prepare(defs, tracer, checks);
    const std::string tag =
        cfg.workload + "-seed" + std::to_string(cfg.seed);
    const std::string cacheDir =
        cfg.outDir + "/cache-" + std::to_string(::getpid());

    Outcome out;
    std::vector<Round> plain;
    std::vector<double> overhead, compile;
    std::map<std::string, std::vector<double>> layers;
    const double deadline = nowSeconds() + cfg.seconds;
    while (true) {
        const double r0 = nowSeconds();
        plain.push_back(sweepRound(defs, cfg, cacheDir));
        const Round &u = plain.back();
        out.attempted += p.batch.jobs.size();
        out.failed += checkRound(u, p, checks);
        checks.expect(u.rows == plain.front().rows,
                      "rows differ between rounds of the same batch");
        if (plain.size() == 1) {
            std::ofstream(cfg.outDir + "/rows-" + tag + ".jsonl") << u.rows;
            std::ofstream ledger(cfg.outDir + "/ledger-" + tag + ".jsonl");
            ledgerOf(u, p, &ledger);
        }
        if (cfg.trace) {
            const std::size_t mark = tracer.mark();
            const Round t = tracedRound(defs, cfg, cacheDir, tracer);
            out.attempted += p.batch.jobs.size();
            out.failed += checkRound(t, p, checks);
            checks.expect(t.rows == u.rows,
                          "traced replay rows differ from runSweep rows");
            overhead.push_back(t.wallSeconds - u.wallSeconds);
            for (const auto &[name, s] :
                 tracer.selfSeconds(mark, tracer.mark()))
                layers[name].push_back(s);
            compile.push_back(ledgerOf(t, p, nullptr).tableCompileSeconds);
            if (overhead.size() == 1)
                checkEventEquivalence(t, p, tracer, checks);
        }
        // Start another round only if one more fits in the time left.
        if (nowSeconds() + (nowSeconds() - r0) > deadline)
            break;
    }

    std::vector<double> setup, wall, cpu, idle, blocked, rate;
    std::vector<std::vector<double>> jobWalls;
    for (const Round &r : plain) {
        out.roundSeconds.push_back(r.wallSeconds);
        setup.push_back(r.setupSeconds);
        wall.push_back(r.wallSeconds);
        cpu.push_back(r.cpuSeconds);
        jobWalls.push_back(r.jobWalls);
        double busy = 0.0;
        for (const double w : r.jobWalls)
            busy += w;
        idle.push_back(cfg.workers * r.wallSeconds - busy);
        blocked.push_back(r.cacheBlockedSeconds);
        rate.push_back(ledgerOf(r, p, nullptr).nodeCycles / r.wallSeconds);
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
    out.notEntered = {"core.derive_s",    "cdg.adaptivity_s",
                      "cdg.turn_check_s", "cdg.dally_s",
                      "cdg.mm_s",         "cdg.connectivity_s",
                      "cdg.mm_states",    "design_s",
                      "verify_s"};
    const Ledger l = ledgerOf(plain.front(), p, nullptr);
    const auto layer = [&](const char *span) {
        return median(layers[span]);
    };
    m["topo.build_s"] = {layer("topo.build"), "s"};
    m["sweep.expand_s"] = {layer("sweep.expand"), "s"};
    m["sweep.store_open_s"] = {layer("sweep.store_open"), "s"};
    m["routing.relation_build_s"] = {layer("routing.relation_build"), "s"};
    m["sim.construct_s"] = {layer("sim.construct"), "s"};
    m["routing.table_compile_s"] = {median(compile), "s"};
    m["sim.run_s"] = {layer("sim.run"), "s"};
    m["sweep.serialize_s"] = {layer("sweep.serialize"), "s"};
    m["sweep.store_s"] = {layer("sweep.store"), "s"};
    m["routing.table_bytes"] = {static_cast<double>(l.tableBytes), "bytes"};
    m["routing.table_fallback_jobs"] = {
        static_cast<double>(l.tableFallbackJobs), "count"};
    m["sim.sharded_jobs"] = {static_cast<double>(l.shardedJobs), "count"};
    m["sim.event_jobs"] = {static_cast<double>(l.eventJobs), "count"};
    m["routing.route_calls"] = {static_cast<double>(l.routeCalls), "count"};
    m["sim.wakeups"] = {static_cast<double>(l.wakeups), "count"};
    m["sim.fault_checks"] = {static_cast<double>(l.faultChecks), "count"};
    m["sweep.store_bytes"] = {
        static_cast<double>(plain.front().storeBytes), "bytes"};
    m["sweep.cache_blocked_s"] = {median(blocked), "s"};
    m["sweep.worker_idle_s"] = {median(idle), "s"};
    m["node_cycles_per_s"] = {median(rate), "1/s"};
    m["trace.overhead_s"] = {median(overhead), "s"};
    return out;
}

void
probeCorruptions(const RunConfig &cfg, Checks &probes)
{
    const auto defs = workloadSpecs(cfg);
    Tracer off(false);
    Checks quiet(true);
    const Prepared p = prepare(defs, off, quiet);
    const Round good = sweepRound(
        defs, cfg, cfg.outDir + "/cache-probe-" + std::to_string(::getpid()));
    Checks clean(true);
    checkRound(good, p, clean);
    probes.expect(quiet.failures() == 0 && clean.failures() == 0,
                  "the uncorrupted round fails its checks");
    // Each damage is applied alone to the first job's outcome and must
    // make at least one check fail. The factors exceed the smoke
    // size's binomial tolerances.
    const auto caught = [&](const char *what, auto &&damage) {
        Round bad = good;
        damage(bad.outcomes.front());
        Checks c(true);
        checkRound(bad, p, c);
        probes.expect(c.failures() > 0,
                      std::string("corruption not caught: ") + what);
    };
    caught("mean hops doubled",
           [](JobOutcome &o) { o.result.avgHops *= 2.0; });
    caught("offered load tripled",
           [](JobOutcome &o) { o.result.offeredRate *= 3.0; });
    caught("backend flipped", [](JobOutcome &o) {
        o.result.schedMode = o.result.schedMode == SchedMode::Cycle
                                 ? SchedMode::Event
                                 : SchedMode::Cycle;
    });
    // runSweep quarantines a job whose retries trip the watchdog too.
    caught("watchdog tripped in runSweep", [](JobOutcome &o) {
        o.result.deadlocked = true;
        o.quarantined = true;
        o.error = "watchdog: deadlock declared at cycle "
                  + std::to_string(o.result.cycles);
    });
    caught("watchdog tripped in the traced replay",
           [](JobOutcome &o) { o.result.deadlocked = true; });
}

} // namespace perfbench
