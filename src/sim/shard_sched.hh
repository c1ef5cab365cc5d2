/**
 * @file
 * The sharded driver: one big simulation split across cores by spatial
 * domain decomposition. It runs the same per-cycle body as the classic
 * loop (Simulator::beginCycle / step / endCycle), over one Domain
 * (sim/domain.hh) per shard instead of one for the whole fabric.
 *
 * Nodes are partitioned into contiguous spatial shards
 * (sim/shard_partition.hh). A shard's domain runs every pipeline stage
 * that touches state *at* its nodes: packet generation and injection,
 * VC allocation for the input buffers terminating there, traversal of
 * the links leaving there, and ejection. Because each concrete channel
 * (u -> v) splits cleanly — ownership and load on the u side, buffer
 * occupancy on the v side — the only state that crosses a shard
 * boundary is the flits sent over cut links and the credits returned
 * for them. Those travel through preallocated double-buffered
 * mailboxes: a producer appends to the buffer of parity (cycle & 1)
 * during its cycle, the consumer drains the opposite-parity buffer at
 * the top of the next cycle, and one sense-reversing spin barrier per
 * cycle is the entire synchronisation protocol. The barrier's last
 * arriver tops up the shards' packet pools and runs the simulator's
 * end-of-cycle and top-of-cycle bookkeeping; after the workers join,
 * the shards' statistics fold into the whole-fabric domain. That —
 * partitioning, mailboxes, the barrier, pool upkeep and the fold — is
 * all this driver adds.
 *
 * Determinism, the non-negotiable property: no shard ever reads
 * another shard's mutable state except through a drained mailbox, and
 * mailboxes are drained in ascending producer order, so the execution
 * is a pure function of (config, shard count). The worker-thread count
 * (EBDA_SHARD_THREADS, default hardware concurrency) only divides the
 * fixed shard list among executors — oversubscribed, single-threaded
 * and fully parallel runs produce identical results, which is what
 * lets tests/test_shard_equiv.cc and tests/test_shard_golden.cc pin
 * sharded outputs without a reference machine. Cross-shard credit
 * visibility lags one cycle (the mailbox hop), so a sharded run is a
 * slightly different — but equally valid — simulation than the
 * classic loop; shards = 1 always takes the classic loop, bit for bit.
 *
 * Scope: fault plans, the protocol layer and uncompiled route tables
 * run on the classic loop (resolveShardCount in sim/shard_partition.hh
 * documents why); the event driver takes precedence when the load
 * heuristic picks it.
 */

#ifndef EBDA_SIM_SHARD_SCHED_HH
#define EBDA_SIM_SHARD_SCHED_HH

#include <cstdint>

namespace ebda::sim {

class Simulator;
struct SimResult;

/** Run `sim` as `shards` domains (>= 2, already resolved via
 *  resolveShardCount) on worker threads, every cycle in order with a
 *  barrier between cycles. Returns the final cycle. */
std::uint64_t runSharded(Simulator &sim, int shards, SimResult &result);

} // namespace ebda::sim

#endif // EBDA_SIM_SHARD_SCHED_HH
