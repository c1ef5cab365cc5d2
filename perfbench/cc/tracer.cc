#include "tracer.hh"

#include <atomic>
#include <fstream>

#include "util/json.hh"

namespace perfbench {

namespace {

/** The innermost open span on this thread (-1 = none). */
thread_local std::int64_t openSpan = -1;

int
threadNumber()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

} // namespace

std::int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::int64_t job,
                     std::int64_t parent)
{
    if (!tracer.on)
        return;
    owner = &tracer;
    enclosing = openSpan;
    if (parent == kInherit)
        parent = enclosing;
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(tracer.mtx);
    if (job < 0 && parent >= 0)
        job = tracer.spans[static_cast<std::size_t>(parent)].job;
    index = tracer.spans.size();
    tracer.spans.push_back({name, start, start, parent, job, threadNumber()});
    openSpan = static_cast<std::int64_t>(index);
}

Tracer::Scope::~Scope()
{
    if (!owner)
        return;
    const std::int64_t end = nowNs();
    openSpan = enclosing;
    std::lock_guard<std::mutex> lock(owner->mtx);
    owner->spans[index].endNs = end;
}

std::size_t
Tracer::mark() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return spans.size();
}

std::map<std::string, double>
Tracer::selfSeconds(std::size_t from, std::size_t to) const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::vector<std::int64_t> self(to - from);
    for (std::size_t i = from; i < to; ++i)
        self[i - from] += spans[i].endNs - spans[i].startNs;
    for (std::size_t i = from; i < to; ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= static_cast<std::int64_t>(from))
            self[static_cast<std::size_t>(p) - from] -=
                spans[i].endNs - spans[i].startNs;
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < to; ++i)
        out[spans[i].name] += static_cast<double>(self[i - from]) * 1e-9;
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mtx);
    ebda::JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.beginArray("traceEvents");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("pid", 1);
        w.field("tid", s.thread);
        w.field("ts", static_cast<double>(s.startNs - originNs) * 1e-3, 15);
        w.field("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3, 15);
        w.beginObject("args");
        w.field("id", static_cast<std::uint64_t>(i));
        w.field("parent", static_cast<int>(s.parent));
        w.field("job", static_cast<int>(s.job));
        w.end();
        w.end();
    }
    w.end();
    w.end();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.str() << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
