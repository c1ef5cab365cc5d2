/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is (name, start, end, parent, job id). Spans are recorded from
 * the benchmark's own code around calls into the library's layers, kept
 * in memory, and written once at exit as Chrome trace-event JSON
 * (chrome://tracing, Perfetto). A disabled tracer records nothing and
 * reads no clock, so the untraced run pays only a branch per call site.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Parent argument of Scope: the innermost span open on the
     *  calling thread. */
    static constexpr std::int64_t kInherit = -2;

    /** RAII span: opened on construction, closed on destruction. By
     *  default a span opened while another is open on the same thread
     *  becomes its child; a span started on a pool worker names its
     *  parent explicitly. A negative job id inherits the parent's. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::int64_t job = -1,
              std::int64_t parent = kInherit);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** This span's index (-1 when tracing is off). */
        std::int64_t id() const
        {
            return owner ? static_cast<std::int64_t>(index) : -1;
        }

      private:
        Tracer *owner = nullptr;
        std::size_t index = 0;
        /** The thread's open span before this one, restored on close. */
        std::int64_t enclosing = -1;
    };

    /** Number of spans recorded so far (a mark for selfSeconds). */
    std::size_t mark() const;

    /** Self time per span name (duration minus the time its direct
     *  children cover), summed over spans [from, to). */
    std::map<std::string, double> selfSeconds(std::size_t from,
                                              std::size_t to) const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t parent;
        std::int64_t job;
        int thread;
    };

    static std::int64_t nowNs();

    const bool on;
    const std::int64_t originNs = nowNs();
    mutable std::mutex mtx;
    std::vector<Span> spans;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
