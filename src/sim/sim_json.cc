#include "sim_json.hh"

#include <limits>
#include <string>

namespace ebda::sim {

namespace {

/** Significant digits that round-trip any double exactly. */
constexpr int kExact = 17;

} // namespace

std::string
toString(SwitchingMode m)
{
    switch (m) {
      case SwitchingMode::Wormhole:
        return "wormhole";
      case SwitchingMode::VirtualCutThrough:
        return "vct";
      case SwitchingMode::StoreAndForward:
        return "saf";
    }
    return "?";
}

std::optional<SwitchingMode>
switchingFromString(const std::string &s)
{
    if (s == "wormhole")
        return SwitchingMode::Wormhole;
    if (s == "vct")
        return SwitchingMode::VirtualCutThrough;
    if (s == "saf")
        return SwitchingMode::StoreAndForward;
    return std::nullopt;
}

std::string
toString(SelectionPolicy p)
{
    switch (p) {
      case SelectionPolicy::MaxCredits:
        return "max-credits";
      case SelectionPolicy::RoundRobin:
        return "round-robin";
      case SelectionPolicy::Random:
        return "random";
      case SelectionPolicy::FirstCandidate:
        return "first";
    }
    return "?";
}

std::optional<SelectionPolicy>
selectionFromString(const std::string &s)
{
    if (s == "max-credits")
        return SelectionPolicy::MaxCredits;
    if (s == "round-robin")
        return SelectionPolicy::RoundRobin;
    if (s == "random")
        return SelectionPolicy::Random;
    if (s == "first")
        return SelectionPolicy::FirstCandidate;
    return std::nullopt;
}

std::string
toString(SchedMode m)
{
    switch (m) {
      case SchedMode::Auto:
        return "auto";
      case SchedMode::Cycle:
        return "cycle";
      case SchedMode::Event:
        return "event";
    }
    return "?";
}

std::optional<SchedMode>
schedModeFromString(const std::string &s)
{
    if (s == "auto")
        return SchedMode::Auto;
    if (s == "cycle")
        return SchedMode::Cycle;
    if (s == "event")
        return SchedMode::Event;
    return std::nullopt;
}

void
jsonFields(JsonWriter &w, const SimConfig &c)
{
    w.field("seed", c.seed);
    w.field("vcDepth", c.vcDepth);
    w.field("packetLength", c.packetLength);
    w.field("switching", toString(c.switching));
    w.field("routerLatency", c.routerLatency);
    w.field("selection", toString(c.selection));
    w.field("injectionRate", c.injectionRate, kExact);
    w.field("injectionVcs", c.injectionVcs);
    w.field("atomicVcAllocation", c.atomicVcAllocation);
    w.field("warmupCycles", c.warmupCycles);
    w.field("measureCycles", c.measureCycles);
    w.field("drainCycles", c.drainCycles);
    w.field("watchdogCycles", c.watchdogCycles);
    w.field("routeTable", c.routeTable);
    w.field("routeTableBudget", c.routeTableBudget);
    // Only when explicitly pinned: the Auto default is omitted so
    // every pre-existing spec keeps its byte-identical canonical form
    // (and with it its sweep cache key), and an Auto run stays
    // cache-compatible with both resolutions — legitimate because the
    // two backends are trace-equivalent.
    if (c.schedMode != SchedMode::Auto)
        w.field("schedMode", toString(c.schedMode));
    // Omitted at the Auto default (0), like schedMode, so every
    // pre-sharding spec keeps its byte-identical cache key. Explicit
    // values — including the forcing-classic 1 — are emitted: a
    // forced shard count changes the per-shard arbitration domains
    // and must therefore be distinguishable from Auto in the cache
    // identity (Auto resolves from the fabric size, which is itself
    // part of the canonical job config, so Auto results stay pure).
    if (c.shards != 0)
        w.field("shards", c.shards);
    // Omitted when disabled (the default), like schedMode: every
    // pre-protocol spec keeps its byte-identical canonical form and
    // sweep cache key.
    if (c.protocol.enabled()) {
        w.beginObject("protocol");
        jsonFields(w, c.protocol);
        w.end();
    }
    // Always emitted (even when empty) so the canonical form — and
    // with it every sweep cache key — is stable.
    w.beginObject("faults");
    jsonFields(w, c.faults);
    w.end();
}

void
jsonFields(JsonWriter &w, const ProtocolConfig &p)
{
    w.field("requestReply", p.requestReply);
    w.field("replyBufferDepth", p.replyBufferDepth);
    w.field("serviceLatency", p.serviceLatency);
    w.field("serviceJitter", p.serviceJitter);
    w.field("messageClasses", p.messageClasses);
    w.field("reserveReplyBuffer", p.reserveReplyBuffer);
}

void
jsonFields(JsonWriter &w, const FaultPlan &p)
{
    w.field("seed", p.seed);
    w.field("randomLinkFaults", p.randomLinkFaults);
    w.field("randomRouterFaults", p.randomRouterFaults);
    w.field("firstCycle", p.firstCycle);
    w.field("spacing", p.spacing);
    w.field("maxRecoveryAttempts", p.maxRecoveryAttempts);
    w.field("maxRetransmits", p.maxRetransmits);
    w.field("retransmitBackoff", p.retransmitBackoff);
    w.field("retransmitBackoffCap", p.retransmitBackoffCap);
    w.field("checkDegradedCdg", p.checkDegradedCdg);
    w.beginArray("events");
    for (const FaultEvent &e : p.events) {
        w.beginObject();
        w.field("cycle", e.cycle);
        w.field("kind", e.router ? "router" : "link");
        if (e.router) {
            w.field("node", static_cast<std::uint64_t>(e.node));
        } else {
            w.field("src", static_cast<std::uint64_t>(e.src));
            w.field("dst", static_cast<std::uint64_t>(e.dst));
        }
        w.end();
    }
    w.end();
}

void
jsonFields(JsonWriter &w, const SimResult &r)
{
    w.field("avgLatency", r.avgLatency, kExact);
    w.field("p50Latency", r.p50Latency);
    w.field("p99Latency", r.p99Latency);
    w.field("maxLatency", r.maxLatency);
    w.field("avgHops", r.avgHops, kExact);
    w.field("acceptedRate", r.acceptedRate, kExact);
    w.field("offeredRate", r.offeredRate, kExact);
    w.field("packetsMeasured", r.packetsMeasured);
    w.field("packetsEjected", r.packetsEjected);
    w.field("deadlocked", r.deadlocked);
    w.field("drained", r.drained);
    w.field("cycles", r.cycles);
    w.field("channelLoadMean", r.channelLoadMean, kExact);
    w.field("channelLoadCv", r.channelLoadCv, kExact);
    w.field("channelLoadMaxRatio", r.channelLoadMaxRatio, kExact);
    w.field("channelsUnused", r.channelsUnused, kExact);
    w.field("stallRouteCompute", r.stallRouteCompute);
    w.field("stallVcStarved", r.stallVcStarved);
    w.field("stallCreditStarved", r.stallCreditStarved);
    w.field("stallSwitchLost", r.stallSwitchLost);
    w.field("hottestRouter", static_cast<std::uint64_t>(r.hottestRouter));
    w.field("hottestRouterStalls", r.hottestRouterStalls);
    w.field("channelOccupancyMean", r.channelOccupancyMean, kExact);
    w.field("channelOccupancyPeak", r.channelOccupancyPeak);
    w.beginArray("deadlockCycle");
    for (std::uint32_t c : r.deadlockCycle)
        w.value(static_cast<std::uint64_t>(c));
    w.end();
    w.field("deadlockCycleInCdg", r.deadlockCycleInCdg);
    w.field("faultEventsApplied", r.faultEventsApplied);
    w.field("packetsDropped", r.packetsDropped);
    w.field("packetsRetransmitted", r.packetsRetransmitted);
    w.field("packetsLost", r.packetsLost);
    w.field("recoveryPasses", r.recoveryPasses);
    w.field("faultChecks", r.faultChecks);
    w.field("faultChecksClean", r.faultChecksClean);
    w.field("deliveredFraction", r.deliveredFraction, kExact);
    w.field("degradedGracefully", r.degradedGracefully);
    w.field("aborted", r.aborted);
    // routeTableCompileNanos is deliberately absent: wall-clock noise
    // would break the byte-identity of serial/parallel/cached sweeps.
    w.field("routeComputeCalls", r.routeComputeCalls);
    w.field("routeTableCompiled", r.routeTableCompiled);
    w.field("routeTablePerSource", r.routeTablePerSource);
    w.field("routeTableBytes", r.routeTableBytes);
    // Protocol counters only for protocol runs: non-protocol results
    // stay byte-identical to the pre-protocol schema.
    if (r.protocolEnabled) {
        w.field("protocolEnabled", r.protocolEnabled);
        w.field("protocolRequestsDelivered",
                r.protocolRequestsDelivered);
        w.field("protocolRepliesInjected", r.protocolRepliesInjected);
        w.field("protocolRepliesDelivered", r.protocolRepliesDelivered);
        w.field("protocolEndpointStalls", r.protocolEndpointStalls);
        w.field("protocolThrottled", r.protocolThrottled);
        w.field("protocolPeakOccupancy", r.protocolPeakOccupancy);
        w.field("protocolDeadlock", r.protocolDeadlock);
    }
    // Scheduling metadata last: equivalence checks strip exactly this
    // tail when diffing cycle- against event-mode result JSON.
    w.field("schedMode", toString(r.schedMode));
    w.field("wakeups", r.wakeups);
}

std::string
toJson(const SimConfig &c)
{
    JsonWriter w;
    w.beginObject();
    jsonFields(w, c);
    w.end();
    return w.str();
}

std::string
toJson(const SimResult &r)
{
    JsonWriter w;
    w.beginObject();
    jsonFields(w, r);
    w.end();
    return w.str();
}

namespace {

/** "an integer in [lo, hi]" for the range of `Int`. */
template <typename Int>
std::string
integerRange()
{
    return "an integer in [" + std::to_string(std::numeric_limits<Int>::min())
        + ", " + std::to_string(std::numeric_limits<Int>::max()) + "]";
}

/** Shared field-by-field reader with error accumulation. */
struct Reader
{
    const JsonValue &v;
    std::string err;

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    bool
    real(const std::string &key, double &out)
    {
        const auto *f = v.find(key);
        if (!f)
            return true;
        if (!f->isNumber())
            return fail("'" + key + "' must be a number");
        out = f->asDouble();
        return true;
    }

    /** An integer field: integral and within the range of `Int`. */
    template <typename Int>
    bool
    integer(const std::string &key, Int &out)
    {
        const auto *f = v.find(key);
        if (!f)
            return true;
        const auto i = f->asInteger<Int>();
        if (!i)
            return fail("'" + key + "' must be " + integerRange<Int>());
        out = *i;
        return true;
    }

    bool
    boolean(const std::string &key, bool &out)
    {
        const auto *f = v.find(key);
        if (!f)
            return true;
        if (!f->isBool())
            return fail("'" + key + "' must be a bool");
        out = f->asBool();
        return true;
    }
};

} // namespace

std::optional<FaultPlan>
faultPlanFromJson(const JsonValue &v, std::string *error)
{
    auto fail = [&](const std::string &what) -> std::optional<FaultPlan> {
        if (error)
            *error = what;
        return std::nullopt;
    };
    if (!v.isObject())
        return fail("faults must be a JSON object");

    static const char *known[] = {
        "seed",          "randomLinkFaults",
        "randomRouterFaults", "firstCycle",
        "spacing",       "maxRecoveryAttempts",
        "maxRetransmits", "retransmitBackoff",
        "retransmitBackoffCap", "checkDegradedCdg",
        "events"};
    for (const auto &[key, val] : v.members()) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok)
            return fail("unknown key 'faults." + key + "'");
    }

    FaultPlan p;
    Reader r{v, {}};
    const bool ok =
        r.integer("seed", p.seed)
        && r.integer("randomLinkFaults", p.randomLinkFaults)
        && r.integer("randomRouterFaults", p.randomRouterFaults)
        && r.integer("firstCycle", p.firstCycle)
        && r.integer("spacing", p.spacing)
        && r.integer("maxRecoveryAttempts", p.maxRecoveryAttempts)
        && r.integer("maxRetransmits", p.maxRetransmits)
        && r.integer("retransmitBackoff", p.retransmitBackoff)
        && r.integer("retransmitBackoffCap", p.retransmitBackoffCap)
        && r.boolean("checkDegradedCdg", p.checkDegradedCdg);
    // Reader errors read "'seed' must be a number"; re-anchor the key
    // at its full path: "'faults.seed' must be a number".
    if (!ok)
        return fail("'faults." + r.err.substr(1));

    if (const auto *events = v.find("events")) {
        if (!events->isArray())
            return fail("'faults.events' must be an array");
        std::size_t i = 0;
        for (const JsonValue &e : events->elements()) {
            const std::string at =
                "faults.events[" + std::to_string(i) + "]";
            if (!e.isObject())
                return fail("'" + at + "' must be an object");
            const auto *kind = e.find("kind");
            if (!kind || !kind->isString()
                || (kind->asString() != "link"
                    && kind->asString() != "router")) {
                return fail("'" + at
                            + ".kind' must be \"link\" or \"router\"");
            }
            FaultEvent ev;
            ev.router = kind->asString() == "router";
            Reader er{e, {}};
            const auto need = [&](const char *name) {
                return e.find(name) != nullptr
                    || er.fail("'" + std::string(name) + "' is missing");
            };
            const bool fields_ok = need("cycle")
                && er.integer("cycle", ev.cycle)
                && (ev.router
                        ? need("node") && er.integer("node", ev.node)
                        : need("src") && need("dst")
                            && er.integer("src", ev.src)
                            && er.integer("dst", ev.dst));
            if (!fields_ok)
                return fail("'" + at + "." + er.err.substr(1));
            for (const auto &[key, val] : e.members()) {
                if (key != "cycle" && key != "kind" && key != "node"
                    && key != "src" && key != "dst")
                    return fail("unknown key '" + at + "." + key + "'");
            }
            p.events.push_back(ev);
            ++i;
        }
    }
    return p;
}

std::optional<ProtocolConfig>
protocolConfigFromJson(const JsonValue &v, std::string *error)
{
    auto fail =
        [&](const std::string &what) -> std::optional<ProtocolConfig> {
        if (error)
            *error = what;
        return std::nullopt;
    };
    if (!v.isObject())
        return fail("protocol must be a JSON object");

    static const char *known[] = {
        "requestReply",   "replyBufferDepth",   "serviceLatency",
        "serviceJitter",  "messageClasses",     "reserveReplyBuffer"};
    for (const auto &[key, val] : v.members()) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok)
            return fail("unknown key 'protocol." + key + "'");
    }

    ProtocolConfig p;
    Reader r{v, {}};
    const bool ok =
        r.boolean("requestReply", p.requestReply)
        && r.integer("replyBufferDepth", p.replyBufferDepth)
        && r.integer("serviceLatency", p.serviceLatency)
        && r.integer("serviceJitter", p.serviceJitter)
        && r.integer("messageClasses", p.messageClasses)
        && r.boolean("reserveReplyBuffer", p.reserveReplyBuffer);
    // Re-anchor the key at its full path, as for faults.
    if (!ok)
        return fail("'protocol." + r.err.substr(1));
    return p;
}

std::optional<SimConfig>
configFromJson(const JsonValue &v, std::string *error)
{
    if (!v.isObject()) {
        if (error)
            *error = "config must be a JSON object";
        return std::nullopt;
    }

    static const char *known[] = {
        "seed",          "vcDepth",       "packetLength",
        "switching",     "routerLatency", "selection",
        "injectionRate", "injectionVcs",  "atomicVcAllocation",
        "warmupCycles",  "measureCycles", "drainCycles",
        "watchdogCycles", "routeTable",   "routeTableBudget",
        "schedMode",     "shards",        "protocol",
        "faults"};
    for (const auto &[key, val] : v.members()) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok) {
            if (error)
                *error = "unknown config key '" + key + "'";
            return std::nullopt;
        }
    }

    SimConfig c;
    Reader r{v, {}};
    bool ok =
        r.integer("seed", c.seed)
        && r.integer("vcDepth", c.vcDepth)
        && r.integer("packetLength", c.packetLength)
        && r.integer("routerLatency", c.routerLatency)
        && r.real("injectionRate", c.injectionRate)
        && r.integer("injectionVcs", c.injectionVcs)
        && r.boolean("atomicVcAllocation", c.atomicVcAllocation)
        && r.integer("warmupCycles", c.warmupCycles)
        && r.integer("measureCycles", c.measureCycles)
        && r.integer("drainCycles", c.drainCycles)
        && r.integer("watchdogCycles", c.watchdogCycles)
        && r.boolean("routeTable", c.routeTable)
        && r.integer("routeTableBudget", c.routeTableBudget)
        && r.integer("shards", c.shards);
    if (ok) {
        if (const auto *f = v.find("switching")) {
            const auto m = f->isString()
                               ? switchingFromString(f->asString())
                               : std::nullopt;
            if (!m)
                ok = r.fail("bad 'switching' value");
            else
                c.switching = *m;
        }
    }
    if (ok) {
        if (const auto *f = v.find("selection")) {
            const auto p = f->isString()
                               ? selectionFromString(f->asString())
                               : std::nullopt;
            if (!p)
                ok = r.fail("bad 'selection' value");
            else
                c.selection = *p;
        }
    }
    if (ok) {
        if (const auto *f = v.find("schedMode")) {
            const auto m = f->isString()
                               ? schedModeFromString(f->asString())
                               : std::nullopt;
            if (!m)
                ok = r.fail("bad 'schedMode' value");
            else
                c.schedMode = *m;
        }
    }
    if (ok) {
        if (const auto *f = v.find("protocol")) {
            std::string perr;
            const auto p = protocolConfigFromJson(*f, &perr);
            if (!p)
                ok = r.fail(perr);
            else
                c.protocol = *p;
        }
    }
    if (ok) {
        if (const auto *f = v.find("faults")) {
            std::string ferr;
            const auto p = faultPlanFromJson(*f, &ferr);
            if (!p)
                ok = r.fail(ferr);
            else
                c.faults = *p;
        }
    }
    if (!ok) {
        if (error)
            *error = r.err;
        return std::nullopt;
    }
    return c;
}

std::optional<SimResult>
resultFromJson(const JsonValue &v, std::string *error)
{
    if (!v.isObject()) {
        if (error)
            *error = "result must be a JSON object";
        return std::nullopt;
    }
    SimResult res;
    Reader r{v, {}};
    const bool ok =
        r.real("avgLatency", res.avgLatency)
        && r.integer("p50Latency", res.p50Latency)
        && r.integer("p99Latency", res.p99Latency)
        && r.integer("maxLatency", res.maxLatency)
        && r.real("avgHops", res.avgHops)
        && r.real("acceptedRate", res.acceptedRate)
        && r.real("offeredRate", res.offeredRate)
        && r.integer("packetsMeasured", res.packetsMeasured)
        && r.integer("packetsEjected", res.packetsEjected)
        && r.boolean("deadlocked", res.deadlocked)
        && r.boolean("drained", res.drained)
        && r.integer("cycles", res.cycles)
        && r.real("channelLoadMean", res.channelLoadMean)
        && r.real("channelLoadCv", res.channelLoadCv)
        && r.real("channelLoadMaxRatio", res.channelLoadMaxRatio)
        && r.real("channelsUnused", res.channelsUnused)
        && r.integer("stallRouteCompute", res.stallRouteCompute)
        && r.integer("stallVcStarved", res.stallVcStarved)
        && r.integer("stallCreditStarved", res.stallCreditStarved)
        && r.integer("stallSwitchLost", res.stallSwitchLost)
        && r.integer("hottestRouter", res.hottestRouter)
        && r.integer("hottestRouterStalls", res.hottestRouterStalls)
        && r.real("channelOccupancyMean", res.channelOccupancyMean)
        && r.integer("channelOccupancyPeak", res.channelOccupancyPeak)
        && r.boolean("deadlockCycleInCdg", res.deadlockCycleInCdg)
        && r.integer("faultEventsApplied", res.faultEventsApplied)
        && r.integer("packetsDropped", res.packetsDropped)
        && r.integer("packetsRetransmitted", res.packetsRetransmitted)
        && r.integer("packetsLost", res.packetsLost)
        && r.integer("recoveryPasses", res.recoveryPasses)
        && r.integer("faultChecks", res.faultChecks)
        && r.integer("faultChecksClean", res.faultChecksClean)
        && r.real("deliveredFraction", res.deliveredFraction)
        && r.boolean("degradedGracefully", res.degradedGracefully)
        && r.boolean("aborted", res.aborted)
        && r.integer("routeComputeCalls", res.routeComputeCalls)
        && r.boolean("routeTableCompiled", res.routeTableCompiled)
        && r.boolean("routeTablePerSource", res.routeTablePerSource)
        && r.integer("routeTableBytes", res.routeTableBytes)
        // Absent in non-protocol results: the defaults stand.
        && r.boolean("protocolEnabled", res.protocolEnabled)
        && r.integer("protocolRequestsDelivered",
                     res.protocolRequestsDelivered)
        && r.integer("protocolRepliesInjected", res.protocolRepliesInjected)
        && r.integer("protocolRepliesDelivered", res.protocolRepliesDelivered)
        && r.integer("protocolEndpointStalls", res.protocolEndpointStalls)
        && r.integer("protocolThrottled", res.protocolThrottled)
        && r.integer("protocolPeakOccupancy", res.protocolPeakOccupancy)
        && r.boolean("protocolDeadlock", res.protocolDeadlock)
        // Absent in pre-schedMode cache entries: the defaults stand.
        && r.integer("wakeups", res.wakeups);
    if (ok) {
        if (const auto *f = v.find("schedMode")) {
            const auto m = f->isString()
                               ? schedModeFromString(f->asString())
                               : std::nullopt;
            if (!m) {
                if (error)
                    *error = "bad 'schedMode' value";
                return std::nullopt;
            }
            res.schedMode = *m;
        }
    }
    if (ok) {
        if (const auto *f = v.find("deadlockCycle")) {
            if (!f->isArray()) {
                if (error)
                    *error = "'deadlockCycle' must be an array";
                return std::nullopt;
            }
            for (const JsonValue &e : f->elements()) {
                const auto c = e.asInteger<std::uint32_t>();
                if (!c) {
                    if (error)
                        *error = "'deadlockCycle["
                            + std::to_string(res.deadlockCycle.size())
                            + "]' must be "
                            + integerRange<std::uint32_t>();
                    return std::nullopt;
                }
                res.deadlockCycle.push_back(*c);
            }
        }
    }
    if (!ok) {
        if (error)
            *error = r.err;
        return std::nullopt;
    }
    return res;
}

} // namespace ebda::sim
