#include "sweep_spec.hh"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "sim/sim_json.hh"
#include "sweep/router_factory.hh"
#include "topo/ascii_map.hh"
#include "util/random.hh"

namespace ebda::sweep {

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x00000100000001b3ULL;
    }
    return h;
}

std::string
keyToHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

std::string
TopologySpec::toString() const
{
    switch (kind) {
    case Kind::Mesh:
    case Kind::Torus: {
        std::string s = kind == Kind::Torus ? "torus " : "mesh ";
        for (std::size_t i = 0; i < dims.size(); ++i)
            s += (i ? "x" : "") + std::to_string(dims[i]);
        s += " vcs ";
        for (std::size_t i = 0; i < vcs.size(); ++i)
            s += (i ? "," : "") + std::to_string(vcs[i]);
        return s;
    }
    case Kind::Dragonfly:
        return "dragonfly a" + std::to_string(a) + " p" + std::to_string(p)
               + " h" + std::to_string(h) + " vcs "
               + std::to_string(localVcs) + ","
               + std::to_string(globalVcs);
    case Kind::FullMesh:
        return "fullmesh " + std::to_string(nodes) + " vcs "
               + std::to_string(nodeVcs);
    case Kind::Ascii:
        // The map itself is unreadable in a label; identify it by its
        // content hash.
        return "ascii map " + keyToHex(fnv1a64(map)).substr(8);
    }
    return "?";
}

std::size_t
TopologySpec::nodeCountEstimate() const
{
    switch (kind) {
    case Kind::Mesh:
    case Kind::Torus: {
        std::size_t n = 1;
        for (const int d : dims)
            n *= static_cast<std::size_t>(d > 0 ? d : 1);
        return n;
    }
    case Kind::Dragonfly: {
        // a routers per group, a*h+1 groups, p hosts hanging off each
        // router.
        const std::size_t routers =
            static_cast<std::size_t>(a > 0 ? a : 1) *
            static_cast<std::size_t>(a * h + 1 > 0 ? a * h + 1 : 1);
        return routers * static_cast<std::size_t>(p > 0 ? p : 1);
    }
    case Kind::FullMesh:
        return static_cast<std::size_t>(nodes > 0 ? nodes : 1);
    case Kind::Ascii: {
        // Node labels are the map's alphanumeric characters.
        std::size_t n = 0;
        for (const char c : map)
            if (std::isalnum(static_cast<unsigned char>(c)))
                ++n;
        return n > 0 ? n : 1;
    }
    }
    return 1;
}

topo::Network
TopologySpec::build() const
{
    switch (kind) {
    case Kind::Mesh:
        return topo::Network::mesh(dims, vcs);
    case Kind::Torus:
        return topo::Network::torus(dims, vcs);
    case Kind::Dragonfly:
        return topo::Network::dragonfly(a, p, h, localVcs, globalVcs);
    case Kind::FullMesh:
        return topo::Network::fullMesh(nodes, nodeVcs);
    case Kind::Ascii:
        return topo::parseAsciiMap(map, topo::AsciiMapOptions{defaultVcs})
            .network;
    }
    throw std::invalid_argument("topology: unknown kind");
}

void
TopologySpec::toJson(JsonWriter &w, const std::string &key) const
{
    w.beginObject(key);
    switch (kind) {
    case Kind::Mesh:
    case Kind::Torus:
        // Legacy flat shape — the bytes of every existing mesh/torus
        // cache key depend on it.
        w.field("type", kind == Kind::Torus ? "torus" : "mesh");
        w.beginArray("dims");
        for (const int d : dims)
            w.value(d);
        w.end();
        w.beginArray("vcs");
        for (const int v : vcs)
            w.value(v);
        w.end();
        break;
    case Kind::Dragonfly:
        w.field("type", "dragonfly");
        w.beginObject("params");
        w.field("a", a);
        w.field("p", p);
        w.field("h", h);
        w.field("localVcs", localVcs);
        w.field("globalVcs", globalVcs);
        w.end();
        break;
    case Kind::FullMesh:
        w.field("type", "fullmesh");
        w.beginObject("params");
        w.field("nodes", nodes);
        w.field("vcs", nodeVcs);
        w.end();
        break;
    case Kind::Ascii:
        w.field("type", "ascii");
        w.beginObject("params");
        w.field("map", map);
        w.field("defaultVcs", defaultVcs);
        w.end();
        break;
    }
    w.end();
}

namespace {

/** Canonical JSON of a job's complete configuration. Key order is
 *  fixed; doubles are exact — this string *is* the cache identity. */
std::string
canonicalJson(const SweepJob &job)
{
    JsonWriter w;
    w.beginObject();
    job.topo.toJson(w, "topology");
    w.field("router", job.router);
    w.field("pattern", sim::toString(job.pattern));
    w.beginObject("config");
    sim::jsonFields(w, job.cfg);
    w.end();
    w.end();
    return w.str();
}

bool
readIntArray(const JsonValue &v, std::vector<int> &out, std::string *err,
             const std::string &path)
{
    if (!v.isArray() || v.size() == 0) {
        if (err)
            *err = path + ": must be a non-empty array";
        return false;
    }
    out.clear();
    for (const auto &e : v.elements()) {
        const auto i = e.asInteger<int>();
        if (!i || *i < 1) {
            if (err)
                *err = path + ": entries must be integers >= 1";
            return false;
        }
        out.push_back(*i);
    }
    return true;
}

/** Read one integer field of a params object, with range check and a
 *  default for absent keys. Returns false (and sets *err) on junk. */
bool
readIntField(const JsonValue &params, const char *key, int min_value,
             int *out, std::string *err, const std::string &path)
{
    const auto *v = params.find(key);
    if (!v)
        return true; // keep the default
    const auto i = v->asInteger<int>();
    if (!i || *i < min_value) {
        if (err)
            *err = path + "." + key + ": must be an integer >= "
                   + std::to_string(min_value);
        return false;
    }
    *out = *i;
    return true;
}

} // namespace

/** Parse one topology object; `path` names it in errors ("topology",
 *  "topologies[2]"). Unknown keys are rejected — a typo here would
 *  silently sweep the wrong grid. */
std::optional<TopologySpec>
TopologySpec::fromJson(const JsonValue &v, std::string *err,
                       const std::string &path)
{
    auto fail = [&](const std::string &what) -> std::optional<TopologySpec> {
        if (err)
            *err = what;
        return std::nullopt;
    };

    if (!v.isObject())
        return fail(path + ": must be an object");
    for (const auto &[key, val] : v.members()) {
        if (key != "type" && key != "kind" && key != "dims" && key != "vcs"
            && key != "params")
            return fail(path + ": unknown key '" + key + "'");
    }

    // The tag: "type", with "kind" accepted as an alias.
    std::string tag = "mesh";
    const auto *type = v.find("type");
    if (!type)
        type = v.find("kind");
    if (type) {
        if (!type->isString())
            return fail(path + ".type: must be a string");
        tag = type->asString();
    }

    // Params may live in a nested object (tagged shape) or, for
    // mesh/torus, flat in the topology object itself (legacy shape).
    const JsonValue *params = v.find("params");
    if (params && !params->isObject())
        return fail(path + ".params: must be an object");
    const std::string ppath = params ? path + ".params" : path;
    const JsonValue &p = params ? *params : v;

    // Reject typos inside a params object too (flat-shape keys are
    // covered by the topology-level check above).
    auto checkKeys = [&](std::initializer_list<const char *> allowed) {
        if (!params)
            return true;
        for (const auto &[key, val] : p.members()) {
            bool ok = false;
            for (const char *k : allowed)
                ok = ok || key == k;
            if (!ok) {
                if (err)
                    *err = ppath + ": unknown key '" + key + "'";
                return false;
            }
        }
        return true;
    };

    TopologySpec t;
    if (tag == "mesh" || tag == "torus") {
        t.kind = tag == "torus" ? Kind::Torus : Kind::Mesh;
        if (!checkKeys({"dims", "vcs"}))
            return std::nullopt;
        const auto *dims = p.find("dims");
        if (!dims || !readIntArray(*dims, t.dims, err, ppath + ".dims"))
            return std::nullopt;
        if (const auto *vcs = p.find("vcs")) {
            if (!readIntArray(*vcs, t.vcs, err, ppath + ".vcs"))
                return std::nullopt;
        } else {
            t.vcs.assign(t.dims.size(), 1);
        }
        if (t.vcs.size() != t.dims.size())
            return fail(ppath + ".vcs: must have one entry per dimension");
        return t;
    }
    if (tag == "dragonfly") {
        t.kind = Kind::Dragonfly;
        if (!params)
            return fail(path + ": dragonfly needs a 'params' object");
        if (!checkKeys({"a", "p", "h", "localVcs", "globalVcs"}))
            return std::nullopt;
        t.a = 2;
        t.p = 1;
        t.h = 1;
        if (!readIntField(p, "a", 2, &t.a, err, ppath)
            || !readIntField(p, "p", 1, &t.p, err, ppath)
            || !readIntField(p, "h", 1, &t.h, err, ppath)
            || !readIntField(p, "localVcs", 1, &t.localVcs, err, ppath)
            || !readIntField(p, "globalVcs", 1, &t.globalVcs, err, ppath))
            return std::nullopt;
        return t;
    }
    if (tag == "fullmesh") {
        t.kind = Kind::FullMesh;
        if (!params)
            return fail(path + ": fullmesh needs a 'params' object");
        if (!checkKeys({"nodes", "vcs"}))
            return std::nullopt;
        t.nodes = 2;
        if (!readIntField(p, "nodes", 2, &t.nodes, err, ppath)
            || !readIntField(p, "vcs", 1, &t.nodeVcs, err, ppath))
            return std::nullopt;
        return t;
    }
    if (tag == "ascii") {
        t.kind = Kind::Ascii;
        if (!params)
            return fail(path + ": ascii needs a 'params' object");
        if (!checkKeys({"map", "defaultVcs"}))
            return std::nullopt;
        const auto *map = p.find("map");
        if (!map || !map->isString() || map->asString().empty())
            return fail(ppath + ".map: must be a non-empty string");
        t.map = map->asString();
        if (!readIntField(p, "defaultVcs", 1, &t.defaultVcs, err, ppath))
            return std::nullopt;
        // Surface DSL syntax errors at parse time, not mid-sweep.
        try {
            topo::parseAsciiMap(t.map,
                                topo::AsciiMapOptions{t.defaultVcs});
        } catch (const std::invalid_argument &e) {
            return fail(ppath + ".map: " + e.what());
        }
        return t;
    }
    return fail(path + ".type: must be \"mesh\", \"torus\", "
                       "\"dragonfly\", \"fullmesh\" or \"ascii\"");
}

void
finalizeJob(SweepJob &job)
{
    job.canonical = canonicalJson(job);
    job.key = fnv1a64(job.canonical);
}

std::optional<SweepSpec>
SweepSpec::parse(const std::string &text, std::string *error)
{
    const auto doc = parseJson(text, error);
    if (!doc)
        return std::nullopt;
    return fromJson(*doc, error);
}

std::optional<SweepSpec>
SweepSpec::fromJson(const JsonValue &v, std::string *error)
{
    auto fail = [&](const std::string &what) -> std::optional<SweepSpec> {
        if (error)
            *error = what;
        return std::nullopt;
    };

    if (!v.isObject())
        return fail("spec must be a JSON object");

    SweepSpec spec;
    if (const auto *name = v.find("name")) {
        if (!name->isString())
            return fail("'name' must be a string");
        spec.name = name->asString();
    }

    // Topologies: "topologies" (array) or "topology" (single object).
    std::string err;
    if (const auto *ts = v.find("topologies")) {
        if (!ts->isArray() || ts->size() == 0)
            return fail("'topologies' must be a non-empty array");
        std::size_t i = 0;
        for (const auto &e : ts->elements()) {
            const auto t = TopologySpec::fromJson(
                e, &err, "topologies[" + std::to_string(i++) + "]");
            if (!t)
                return fail(err);
            spec.topologies.push_back(*t);
        }
    } else if (const auto *t1 = v.find("topology")) {
        const auto t = TopologySpec::fromJson(*t1, &err, "topology");
        if (!t)
            return fail(err);
        spec.topologies.push_back(*t);
    } else {
        return fail("spec needs 'topology' or 'topologies'");
    }

    // Routers (required).
    const auto *routers = v.find("routers");
    if (!routers || !routers->isArray() || routers->size() == 0)
        return fail("'routers' must be a non-empty array");
    std::size_t idx = 0;
    for (const auto &e : routers->elements()) {
        const std::string path = "routers[" + std::to_string(idx++) + "]";
        if (!e.isString())
            return fail(path + ": must be a string");
        if (const auto bad = checkRouterSpec(e.asString()))
            return fail(path + " '" + e.asString() + "': " + *bad);
        spec.routers.push_back(e.asString());
    }

    // Patterns (default uniform).
    if (const auto *ps = v.find("patterns")) {
        if (!ps->isArray() || ps->size() == 0)
            return fail("'patterns' must be a non-empty array");
        idx = 0;
        for (const auto &e : ps->elements()) {
            const std::string path =
                "patterns[" + std::to_string(idx++) + "]";
            if (!e.isString())
                return fail(path + ": must be a string");
            const auto p = sim::patternFromString(e.asString());
            if (!p)
                return fail(path + ": unknown traffic pattern '"
                            + e.asString() + "'");
            spec.patterns.push_back(*p);
        }
    } else {
        spec.patterns.push_back(sim::TrafficPattern::Uniform);
    }

    // Selection policies (default max-credits).
    if (const auto *ss = v.find("selection")) {
        if (!ss->isArray() || ss->size() == 0)
            return fail("'selection' must be a non-empty array");
        idx = 0;
        for (const auto &e : ss->elements()) {
            const std::string path =
                "selection[" + std::to_string(idx++) + "]";
            if (!e.isString())
                return fail(path + ": must be a string");
            const auto p = sim::selectionFromString(e.asString());
            if (!p)
                return fail(path + ": unknown selection policy '"
                            + e.asString() + "'");
            spec.selections.push_back(*p);
        }
    } else {
        spec.selections.push_back(sim::SelectionPolicy::MaxCredits);
    }

    // Base sim config template.
    if (const auto *simv = v.find("sim")) {
        const auto c = sim::configFromJson(*simv, &err);
        if (!c) {
            // Re-anchor quoted key names under "sim." so the message
            // names the full path ("'seed' ..." -> "'sim.seed' ...").
            if (!err.empty() && err.front() == '\'')
                return fail("'sim." + err.substr(1));
            return fail("sim: " + err);
        }
        spec.base = *c;
    }

    // Rates (default: the base config's injection rate).
    if (const auto *rs = v.find("rates")) {
        if (!rs->isArray() || rs->size() == 0)
            return fail("'rates' must be a non-empty array");
        idx = 0;
        for (const auto &e : rs->elements()) {
            const std::string path =
                "rates[" + std::to_string(idx++) + "]";
            if (!e.isNumber() || e.asDouble() <= 0.0)
                return fail(path + ": must be a positive number");
            spec.rates.push_back(e.asDouble());
        }
    } else {
        spec.rates.push_back(spec.base.injectionRate);
    }

    if (const auto *ds = v.find("deriveSeeds")) {
        if (!ds->isBool())
            return fail("'deriveSeeds' must be a bool");
        spec.deriveSeeds = ds->asBool();
    }

    // Reject typos at the top level too.
    static const char *known[] = {"name",     "topology", "topologies",
                                  "routers",  "patterns", "selection",
                                  "rates",    "sim",      "deriveSeeds"};
    for (const auto &[key, val] : v.members()) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok)
            return fail("unknown spec key '" + key + "'");
    }

    return spec;
}

std::size_t
SweepSpec::jobCount() const
{
    return topologies.size() * routers.size() * patterns.size()
           * selections.size() * rates.size();
}

std::vector<SweepJob>
SweepSpec::expand() const
{
    std::vector<SweepJob> jobs;
    jobs.reserve(jobCount());
    for (const auto &topo : topologies) {
        for (const auto &router : routers) {
            for (const auto pattern : patterns) {
                for (const auto selection : selections) {
                    for (const double rate : rates) {
                        SweepJob job;
                        job.topo = topo;
                        job.router = router;
                        job.pattern = pattern;
                        job.cfg = base;
                        job.cfg.selection = selection;
                        job.cfg.injectionRate = rate;
                        if (deriveSeeds) {
                            // Seed from the seedless content so every
                            // grid point gets an independent stream
                            // that only the master seed and the job's
                            // own parameters determine.
                            job.cfg.seed = 0;
                            finalizeJob(job);
                            job.cfg.seed =
                                SplitMix64(base.seed ^ job.key).next();
                        }
                        finalizeJob(job);
                        jobs.push_back(std::move(job));
                    }
                }
            }
        }
    }
    return jobs;
}

} // namespace ebda::sweep
