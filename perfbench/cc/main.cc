/**
 * @file
 * ebda_perfbench — the repository's end-to-end benchmark.
 *
 *   ebda_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --out-dir DIR
 *   ebda_perfbench --smoke --out-dir DIR
 *
 * Runs whole rounds of one workload for S seconds and prints, as the
 * last line of standard output, one JSON object with the keys
 * `correct`, `attempted`, `failed` and `metrics`: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. The
 * exit code is 0 only when every correctness check passed. See
 * README.md for the workloads and metrics.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sched.h>
#include <set>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "bench.hh"

#include "util/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct MetricName
{
    const char *name;
    const char *unit;
};

/** Every workload reports all of these in the untraced run. */
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"job_p50_s", "s"},
};

/** The traced run reports all of these; a layer a workload lists as
 *  never entered reads 0. */
constexpr MetricName kPerLayer[] = {
    {"topo.build_s", "s"},
    {"sweep.expand_s", "s"},
    {"sweep.store_open_s", "s"},
    {"routing.relation_build_s", "s"},
    {"sim.construct_s", "s"},
    {"routing.table_compile_s", "s"},
    {"routing.table_bytes", "bytes"},
    {"routing.table_fallback_jobs", "count"},
    {"sim.sharded_jobs", "count"},
    {"routing.route_calls", "count"},
    {"sim.run_s", "s"},
    {"sim.wakeups", "count"},
    {"sim.event_jobs", "count"},
    {"sim.fault_checks", "count"},
    {"sweep.serialize_s", "s"},
    {"sweep.store_s", "s"},
    {"sweep.store_bytes", "bytes"},
    {"sweep.cache_blocked_s", "s"},
    {"sweep.worker_idle_s", "s"},
    {"core.derive_s", "s"},
    {"cdg.adaptivity_s", "s"},
    {"cdg.turn_check_s", "s"},
    {"cdg.dally_s", "s"},
    {"cdg.mm_s", "s"},
    {"cdg.connectivity_s", "s"},
    {"cdg.mm_states", "count"},
    {"node_cycles_per_s", "1/s"},
    {"design_s", "s"},
    {"verify_s", "s"},
    {"trace.overhead_s", "s"},
};

const char *const kWorkloads[] = {"curve-mesh16", "mesh32", "sparse-mixed",
                                  "design-verify"};

int
usage()
{
    std::cerr << "usage: ebda_perfbench --workload "
                 "curve-mesh16|mesh32|sparse-mixed|design-verify\n"
                 "                      --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR\n"
                 "       ebda_perfbench --smoke --out-dir DIR\n";
    return 2;
}

int
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/**
 * Pool workers per workload, capped by the CPUs this process may use;
 * the shard threads of a sharded run get the rest, so pool workers x
 * shard threads never exceeds nproc. The checkers of design-verify
 * are single-threaded.
 */
void
placeThreads(RunConfig &cfg, int nproc)
{
    const int wanted = cfg.workload == "design-verify" ? 1 : 2;
    cfg.workers = std::max(1, std::min(wanted, nproc));
    const int shardThreads = std::max(1, nproc / cfg.workers);
    ::setenv("EBDA_SHARD_THREADS", std::to_string(shardThreads).c_str(), 1);
    // The benchmark measures the library's own backend choice.
    ::unsetenv("EBDA_SCHED_MODE");
}

/** What a run measured on, plus its round times. */
std::string
runRecord(const RunConfig &cfg, int nproc,
          const std::vector<double> &roundSeconds)
{
    ebda::JsonWriter w;
    w.beginObject();
    w.field("workload", cfg.workload);
    w.field("seed", static_cast<std::uint64_t>(cfg.seed));
    w.field("trace", cfg.trace);
    w.field("seconds", cfg.seconds, 6);
    w.field("nproc", nproc);
    w.field("cpuModel", cpuModel());
    w.field("compiler", std::string("g++ ") + __VERSION__);
    w.field("buildType", PERFBENCH_BUILD_TYPE);
    w.field("poolWorkers", cfg.workers);
    w.field("EBDA_SHARD_THREADS", std::getenv("EBDA_SHARD_THREADS"));
    w.beginArray("roundSeconds");
    for (const double s : roundSeconds)
        w.value(s);
    w.end();
    w.end();
    return w.str();
}

/** Runs one workload and completes its metric set: the workload must
 *  report every end-to-end metric, or in the traced run every per-layer
 *  metric except those of layers it lists as never entered, which then
 *  read 0. */
Outcome
runWorkload(const RunConfig &cfg, Tracer &tracer, Checks &checks)
{
    Outcome out = isSimWorkload(cfg.workload)
                      ? runSimWorkload(cfg, tracer, checks)
                      : runDesignVerify(cfg, tracer, checks);
    const std::set<std::string> skip(out.notEntered.begin(),
                                     out.notEntered.end());
    const auto complete = [&](const auto &names) {
        for (const MetricName &m : names) {
            if (!skip.count(m.name))
                checks.expect(out.metrics.count(m.name) == 1,
                              std::string("missing metric ") + m.name);
            else
                checks.expect(out.metrics
                                  .emplace(m.name, Metric{0.0, m.unit})
                                  .second,
                              std::string(m.name)
                                  + " set for a layer never entered");
        }
        checks.expect(out.metrics.size() == std::size(names),
                      "a metric outside the benchmark's list");
    };
    if (cfg.trace)
        complete(kPerLayer);
    else
        complete(kEndToEnd);
    return out;
}

std::string
resultLine(bool correct, const Outcome &out)
{
    ebda::JsonWriter w;
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", out.attempted);
    w.field("failed", out.failed);
    w.beginObject("metrics");
    for (const auto &[name, m] : out.metrics) {
        w.beginObject(name);
        w.field("value", m.value, 17);
        w.field("unit", m.unit);
        w.end();
    }
    w.end();
    w.end();
    return w.str();
}

/** Every workload at smoke size, traced and untraced, then the
 *  corruption probes. */
int
smoke(RunConfig base, int nproc)
{
    bool ok = true;
    for (const char *name : kWorkloads) {
        for (const bool trace : {false, true}) {
            RunConfig cfg = base;
            cfg.workload = name;
            cfg.trace = trace;
            cfg.tiny = true;
            cfg.seconds = 0.0;
            placeThreads(cfg, nproc);
            Tracer tracer(trace);
            Checks checks;
            const Outcome out = runWorkload(cfg, tracer, checks);
            const bool good = checks.failures() == 0 && out.failed == 0
                              && out.attempted > 0;
            std::cerr << (good ? "ok   " : "FAIL ") << name
                      << (trace ? " traced" : "") << ": " << checks.passed()
                      << " checks, " << out.attempted << " operations\n";
            ok = ok && good;
        }
    }
    Checks probes;
    RunConfig cfg = base;
    cfg.workload = "curve-mesh16";
    cfg.tiny = true;
    placeThreads(cfg, nproc);
    probeCorruptions(cfg, probes);
    std::cerr << (probes.failures() == 0 ? "ok   " : "FAIL ")
              << "corrupted results caught: " << probes.passed() << " of "
              << probes.passed() + probes.failures() << '\n';
    ok = ok && probes.failures() == 0;
    std::cout << (ok ? "smoke: ok" : "smoke: FAILED") << std::endl;
    return ok ? 0 : 1;
}

} // namespace

bool
Checks::expect(bool ok, const std::string &what)
{
    if (ok) {
        ++good;
    } else {
        ++failed;
        if (!quiet)
            std::cerr << "CHECK FAILED: " << what << '\n';
    }
    return ok;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double hi = values[mid];
    if (values.size() % 2)
        return hi;
    const double lo =
        *std::max_element(values.begin(), values.begin() + mid);
    return (lo + hi) / 2.0;
}

double
jobMedian(const std::vector<std::vector<double>> &perRound)
{
    if (perRound.empty())
        return 0.0;
    std::vector<double> perJob;
    for (std::size_t j = 0; j < perRound.front().size(); ++j) {
        std::vector<double> rounds;
        for (const auto &r : perRound)
            rounds.push_back(r.at(j));
        perJob.push_back(median(std::move(rounds)));
    }
    return median(std::move(perJob));
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
               + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg;
    bool smokeTest = false;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--smoke") {
                smokeTest = true;
                continue;
            }
            if (i + 1 >= argc)
                return usage();
            const std::string val = argv[++i];
            if (arg == "--workload") {
                cfg.workload = val;
            } else if (arg == "--seed") {
                cfg.seed = std::stoull(val);
                haveSeed = true;
            } else if (arg == "--seconds") {
                cfg.seconds = std::stod(val);
                haveSeconds = cfg.seconds >= 0.0;
            } else if (arg == "--trace") {
                if (val != "0" && val != "1")
                    return usage();
                cfg.trace = val == "1";
                haveTrace = true;
            } else if (arg == "--out-dir") {
                cfg.outDir = val;
            } else {
                return usage();
            }
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "ebda_perfbench: refusing to measure a "
                  << PERFBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }
    if (cfg.outDir.empty())
        return usage();
    std::filesystem::create_directories(cfg.outDir);
    const int nproc = onlineCpus();
    if (smokeTest)
        return smoke(cfg, nproc);

    bool known = false;
    for (const char *name : kWorkloads)
        known = known || cfg.workload == name;
    if (!known || !haveSeed || !haveSeconds || !haveTrace)
        return usage();
    placeThreads(cfg, nproc);
    const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed)
                            + (cfg.trace ? "-traced" : "");

    Tracer tracer(cfg.trace);
    Checks checks;
    Outcome out;
    try {
        out = runWorkload(cfg, tracer, checks);
    } catch (const std::exception &e) {
        std::cerr << "ebda_perfbench: " << e.what() << '\n';
        return 1;
    }
    const std::string record = runRecord(cfg, nproc, out.roundSeconds);
    std::cerr << "run: " << record << '\n';
    std::ofstream(cfg.outDir + "/run-" + tag + ".json") << record << '\n';
    if (cfg.trace) {
        const std::string path = cfg.outDir + "/trace-" + tag + ".json";
        checks.expect(tracer.writeChromeTrace(path), "cannot write " + path);
    }
    const bool correct = checks.failures() == 0 && out.attempted > 0;
    std::cerr << checks.passed() << " checks passed, " << checks.failures()
              << " failed; " << out.failed << " of " << out.attempted
              << " operations failed\n";
    std::cout << resultLine(correct, out) << std::endl;
    return correct ? 0 : 1;
}
