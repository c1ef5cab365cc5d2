#include "sim/shard_sched.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/shard_partition.hh"
#include "sim/simulator.hh"

namespace ebda::sim {

namespace {

#if defined(__x86_64__) || defined(__i386__)
inline void
cpuRelax()
{
    __builtin_ia32_pause();
}
#elif defined(__aarch64__)
inline void
cpuRelax()
{
    asm volatile("yield" ::: "memory");
}
#else
inline void
cpuRelax()
{
    std::this_thread::yield();
}
#endif

/**
 * Sense-reversing spin barrier. The last arriver runs the completion
 * hook single-threaded while everyone else spins, then releases the
 * generation counter: the release/acquire pair on `gen` (and the
 * acq_rel chain on `arrived`) is what publishes every shard's
 * pre-barrier writes to every other shard — the only synchronisation
 * in the whole scheduler. Spinners yield periodically so
 * oversubscribed runs (more threads than cores, e.g. the determinism
 * tests on one-core CI) make progress.
 */
class SpinBarrier
{
  public:
    void init(unsigned participants) { total = participants; }

    template <typename Hook>
    void
    arrive(Hook &&hook)
    {
        const std::uint64_t my = gen.load(std::memory_order_acquire);
        if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1
            == total) {
            hook();
            arrived.store(0, std::memory_order_relaxed);
            gen.store(my + 1, std::memory_order_release);
            return;
        }
        unsigned spins = 0;
        while (gen.load(std::memory_order_acquire) == my) {
            if (++spins >= 64) {
                std::this_thread::yield();
                spins = 0;
            } else {
                cpuRelax();
            }
        }
    }

  private:
    std::atomic<std::uint64_t> gen{0};
    std::atomic<unsigned> arrived{0};
    unsigned total = 1;
};

} // namespace

/**
 * The whole run: the simulator, the shared Boundary, one Domain per
 * shard and the barrier. Workers step their domains through the
 * simulator's pipeline; the last barrier arriver runs the simulator's
 * end-of-cycle and top-of-cycle bookkeeping for the whole fabric.
 */
struct ShardRun
{
    Simulator &sim;
    SimResult &result;
    Fabric &fab;

    Boundary boundary;
    std::vector<std::unique_ptr<Domain>> domains;
    /** Static shard -> worker-thread assignment (results never depend
     *  on it; it only divides the work). */
    std::vector<std::vector<std::uint16_t>> threadShards;
    SpinBarrier barrier;

    /** Written only by the barrier hook, read by workers after the
     *  barrier releases them — the barrier's release/acquire pair is
     *  the publication. */
    bool stop = false;
    std::uint64_t finalCycle = 0;

    ShardRun(Simulator &s, SimResult &r) : sim(s), result(r), fab(s.fab)
    {
    }

    /** Partition the nodes into domains and give every ordered pair of
     *  domains joined by a cut link a mailbox. */
    void
    build(int shard_count)
    {
        const topo::Network &net = fab.net;
        const auto shardOf = partitionNodes(net, shard_count);
        std::vector<std::vector<topo::NodeId>> nodes(
            static_cast<std::size_t>(shard_count));
        for (topo::NodeId v = 0; v < net.numNodes(); ++v)
            nodes[shardOf[v]].push_back(v);
        domains.reserve(nodes.size());
        for (auto &set : nodes) {
            domains.push_back(std::make_unique<Domain>(
                fab, std::move(set), &boundary));
            // The pool holds at most twice its node count after each
            // top-up (refillPools) plus one slot per node ejected
            // within the cycle: reserve that once, so it never grows.
            Domain &d = *domains.back();
            d.pool.reserve(3 * d.nodes.size());
        }

        // Mailboxes are preallocated to the per-cycle message bound:
        // at most one flit per cut link (the traverse stage moves one
        // flit per output link per cycle) and one credit per cut link
        // (every VC of a link shares its input port, so at most one
        // pop per cycle).
        const std::size_t channels = net.numChannels();
        boundary.sendBoxOf.assign(channels, -1);
        boundary.creditBoxOf.assign(channels, -1);
        boundary.credits.assign(channels, fab.cfg.vcDepth);
        std::vector<Mailbox> &mailboxes = boundary.mailboxes;
        std::map<std::pair<int, int>, std::uint32_t> boxIndex;
        std::vector<std::size_t> cap;
        auto box = [&](int from, int to) -> std::uint32_t {
            const auto [it, added] = boxIndex.emplace(
                std::make_pair(from, to),
                static_cast<std::uint32_t>(mailboxes.size()));
            if (added) {
                mailboxes.push_back(Mailbox{
                    static_cast<std::uint16_t>(from),
                    static_cast<std::uint16_t>(to),
                    {},
                    {}});
                cap.push_back(0);
            }
            ++cap[it->second];
            return it->second;
        };
        for (topo::LinkId l = 0; l < net.numLinks(); ++l) {
            const int a = shardOf[net.link(l).src];
            const int b = shardOf[net.link(l).dst];
            if (a == b)
                continue;
            const auto fwd = static_cast<std::int32_t>(box(a, b));
            const auto rev = static_cast<std::int32_t>(box(b, a));
            const topo::ChannelId base = net.linkChannelBase(l);
            for (int v = 0; v < net.vcsOnLink(l); ++v) {
                boundary.sendBoxOf[base + static_cast<topo::ChannelId>(v)] =
                    fwd;
                boundary
                    .creditBoxOf[base + static_cast<topo::ChannelId>(v)] =
                    rev;
            }
        }
        for (std::size_t m = 0; m < mailboxes.size(); ++m) {
            for (int p = 0; p < 2; ++p) {
                mailboxes[m].flits[p].reserve(cap[m]);
                mailboxes[m].credits[p].reserve(cap[m]);
            }
            domains[mailboxes[m].consumer]->inbox.push_back(
                static_cast<std::uint32_t>(m));
        }
        // Drain order must be deterministic: ascending producer.
        for (auto &d : domains) {
            std::sort(d->inbox.begin(), d->inbox.end(),
                      [&](std::uint32_t x, std::uint32_t y) {
                          return mailboxes[x].producer
                              < mailboxes[y].producer;
                      });
        }
    }

    /** Keep every domain's packet pool at one slot per owned node (the
     *  per-cycle generation bound) and return hoarded excess — slots
     *  migrate from ejecting domains back to injecting ones here,
     *  while the workers are parked, so fab.packets may safely grow. */
    void
    refillPools()
    {
        for (auto &d : domains) {
            const std::size_t target = d->nodes.size();
            auto &pool = d->pool;
            while (pool.size() > 2 * target) {
                fab.pktFreelist.push_back(pool.back());
                pool.pop_back();
            }
            while (pool.size() < target) {
                if (!fab.pktFreelist.empty()) {
                    pool.push_back(fab.pktFreelist.back());
                    fab.pktFreelist.pop_back();
                } else {
                    pool.push_back(static_cast<std::uint32_t>(
                        fab.packets.size()));
                    fab.packets.emplace_back();
                }
            }
        }
    }

    /** Barrier completion for cycle c, run single-threaded while every
     *  worker is parked: pool upkeep, then the simulator's bottom of
     *  cycle c and top of cycle c+1 over the sums of the domains'
     *  counters (modular deltas, exact in sum). */
    void
    hook(std::uint64_t c)
    {
        bool moved = false;
        std::uint64_t in_flight = 0;
        std::uint64_t measured = 0;
        for (const auto &d : domains) {
            moved |= d->moved;
            in_flight += d->inFlight;
            measured += d->measuredInFlight;
        }
        refillPools();
        std::uint64_t next = c + 1;
        if (!sim.endCycle(c, moved, in_flight, measured, result))
            next = c;
        else if (next < sim.hardStop && sim.beginCycle(next))
            return;
        stop = true;
        finalCycle = std::min(next, sim.hardStop);
    }

    void
    workerLoop(unsigned tid)
    {
        const auto &mine = threadShards[tid];
        for (std::uint64_t cycle = 0;; ++cycle) {
            for (const std::uint16_t s : mine) {
                Domain &d = *domains[s];
                d.moved = sim.step(d, cycle, nullptr);
            }
            barrier.arrive([this, cycle] { hook(cycle); });
            if (stop)
                break;
        }
    }

    /** Fold the domains back into the simulator's whole-fabric domain,
     *  in ascending shard order so the merged results are
     *  deterministic. */
    void
    fold()
    {
        Domain &whole = sim.whole;
        for (const auto &d : domains) {
            whole.latencyHist.merge(d->latencyHist);
            whole.latencyStat.merge(d->latencyStat);
            whole.hopsStat.merge(d->hopsStat);
            whole.packetsEjected += d->packetsEjected;
            whole.measuredEjectedFlits += d->measuredEjectedFlits;
            whole.generatedFlits += d->generatedFlits;
            whole.measuredGenerated += d->measuredGenerated;
            whole.flitMoves += d->flitMoves;
            whole.routeCalls += d->routeCalls;
            whole.inFlight += d->inFlight;
            whole.measuredInFlight += d->measuredInFlight;
            for (const std::uint32_t id : d->pool)
                fab.pktFreelist.push_back(id);
        }
        fab.nextPacketSeq = std::max(
            fab.nextPacketSeq,
            (finalCycle + 1)
                * static_cast<std::uint64_t>(fab.net.numNodes()));
    }

    std::uint64_t
    run(int shards)
    {
        if (sim.hardStop == 0)
            return 0;
        build(shards);
        refillPools();
        // Top of cycle 0; the barrier hook runs it for every later
        // cycle.
        if (!sim.beginCycle(0))
            return 0;

        const unsigned threads = shardWorkerThreads(shards);
        barrier.init(threads);
        threadShards.resize(threads);
        for (int s = 0; s < shards; ++s) {
            // Contiguous static assignment: thread t runs shards
            // [t*S/T, (t+1)*S/T) — neighbouring shards, which exchange
            // the most mailbox traffic, share a thread when
            // oversubscribed.
            const auto t = static_cast<std::size_t>(s)
                * static_cast<std::size_t>(threads)
                / static_cast<std::size_t>(shards);
            threadShards[t].push_back(static_cast<std::uint16_t>(s));
        }

        std::vector<std::thread> pool;
        pool.reserve(threads - 1);
        for (unsigned t = 1; t < threads; ++t)
            pool.emplace_back([this, t] { workerLoop(t); });
        workerLoop(0);
        for (std::thread &t : pool)
            t.join();
        fold();
        return finalCycle;
    }
};

std::uint64_t
runSharded(Simulator &sim, int shards, SimResult &result)
{
    return ShardRun(sim, result).run(shards);
}

} // namespace ebda::sim
