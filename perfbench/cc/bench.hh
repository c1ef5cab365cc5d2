/**
 * @file
 * Types shared by the benchmark's workloads: run settings, metrics,
 * the correctness-check ledger, and process clocks.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hh"

namespace perfbench {

/** One run's settings, from the command line. */
struct RunConfig
{
    std::string workload;
    /** Seeds every generated input; the same seed gives the same
     *  inputs. */
    std::uint64_t seed = 1;
    /** Rounds keep starting until this much time has been measured. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Smoke-test sizes: every input shrunk to run in well under a
     *  second. */
    bool tiny = false;
    /** Where result rows, ledgers, traces and temporary caches go. */
    std::string outDir;
    /** Sweep pool workers; shard threads are nproc / workers. */
    int workers = 1;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Every expectation the run checks; failures are reported on stderr
 *  (unless quiet) and make the run incorrect. */
class Checks
{
  public:
    explicit Checks(bool quiet = false) : quiet(quiet) {}

    /** Record one expectation; returns ok. */
    bool expect(bool ok, const std::string &what);

    std::uint64_t failures() const { return failed; }
    std::uint64_t passed() const { return good; }

  private:
    bool quiet;
    std::uint64_t failed = 0;
    std::uint64_t good = 0;
};

/** What a workload run hands back to main. */
struct Outcome
{
    /** Operations attempted (jobs, scheme checks, verdicts) over every
     *  round, and how many of them the library failed to complete. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
    /** Traced run: the per-layer metrics of layers this workload never
     *  enters. They read 0; every other per-layer metric must be set. */
    std::vector<std::string> notEntered;
    /** Timed part of every untraced round, in seconds, for the run
     *  record. */
    std::vector<double> roundSeconds;
};

/** Median of the values (0 for none). */
double median(std::vector<double> values);

/** Median over jobs of each job's median over rounds; every round
 *  lists the same jobs in the same order. Taking each job's median
 *  first keeps round-to-round noise from moving the job at the
 *  middle rank. */
double jobMedian(const std::vector<std::vector<double>> &perRound);

/** Seconds on the steady clock since an arbitrary origin. */
double nowSeconds();

/** User + system CPU seconds consumed by this process so far. */
double processCpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

bool isSimWorkload(const std::string &name);

Outcome runSimWorkload(const RunConfig &cfg, Tracer &tracer,
                       Checks &checks);

Outcome runDesignVerify(const RunConfig &cfg, Tracer &tracer,
                        Checks &checks);

/** The smoke test's corruption probes: a deliberately damaged result
 *  or row must fail the checks that guard it. */
void probeCorruptions(const RunConfig &cfg, Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
