/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a simulator layer, opened and closed by
 * the benchmark around that call: name, start, end, the span that
 * caused it, the host thread it ran on, and the arm it belongs to
 * (all spans of one arm share an id). Spans are kept in memory and
 * written out once, at the end of the run.
 *
 * Recording is off unless enable() was called; a disabled Span is a
 * single relaxed load, so untraced runs record nothing and pay
 * (almost) nothing.
 */

#ifndef DLBENCH_SPANS_HH
#define DLBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dlbench
{

struct SpanRecord
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the causing span, -1 for a root. */
    std::int64_t parent = -1;
    std::uint32_t thread = 0;
    /** Arm id, 0 outside any arm. */
    std::uint32_t arm = 0;
};

class Tracer
{
  public:
    static Tracer &
    get()
    {
        static Tracer tracer;
        return tracer;
    }

    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool on() const { return on_.load(std::memory_order_relaxed); }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::int64_t
    open(const char *name)
    {
        ThreadState &ts = state();
        SpanRecord rec;
        rec.name = name;
        rec.parent = ts.stack.empty() ? ts.adoptedParent
                                      : ts.stack.back();
        rec.thread = ts.id;
        rec.arm = ts.arm;
        rec.startNs = nowNs();
        std::int64_t idx;
        {
            std::lock_guard<std::mutex> lock(mu_);
            idx = static_cast<std::int64_t>(spans_.size());
            spans_.push_back(rec);
        }
        ts.stack.push_back(idx);
        return idx;
    }

    void
    close(std::int64_t idx)
    {
        const std::int64_t t = nowNs();
        ThreadState &ts = state();
        ts.stack.pop_back();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(idx)].endNs = t;
    }

    /** Innermost open span of the calling thread (-1 when none). */
    std::int64_t
    current()
    {
        ThreadState &ts = state();
        return ts.stack.empty() ? ts.adoptedParent : ts.stack.back();
    }

    /**
     * Make `parent` (a span of another thread) the parent of this
     * thread's root spans and tag them with `arm`: a job closure
     * calls this first, so its spans hang off the submitting
     * thread's JobRunner span. Returns the previous parent and arm
     * for the matching restore().
     */
    std::pair<std::int64_t, std::uint32_t>
    adopt(std::int64_t parent, std::uint32_t arm)
    {
        ThreadState &ts = state();
        const std::pair<std::int64_t, std::uint32_t> prev{
            ts.adoptedParent, ts.arm};
        ts.adoptedParent = parent;
        ts.arm = arm;
        return prev;
    }

    void
    restore(std::pair<std::int64_t, std::uint32_t> prev)
    {
        ThreadState &ts = state();
        ts.adoptedParent = prev.first;
        ts.arm = prev.second;
    }

    std::size_t
    size()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_.size();
    }

    /** All spans; call after every recording thread has joined. */
    const std::vector<SpanRecord> &spans() const { return spans_; }

  private:
    struct ThreadState
    {
        std::uint32_t id = 0;
        std::uint32_t arm = 0;
        std::int64_t adoptedParent = -1;
        std::vector<std::int64_t> stack;
    };

    ThreadState &
    state()
    {
        thread_local ThreadState ts;
        if (ts.id == 0)
            ts.id = nextThread_.fetch_add(1) + 1;
        return ts;
    }

    std::atomic<bool> on_{false};
    std::atomic<std::uint32_t> nextThread_{0};
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/** RAII span around one call into a layer. */
class Span
{
  public:
    explicit Span(const char *name)
        : idx_(Tracer::get().on() ? Tracer::get().open(name) : -1)
    {
    }
    ~Span()
    {
        if (idx_ >= 0)
            Tracer::get().close(idx_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::int64_t idx_;
};

/** Per-layer self time: a span's duration minus the part of it
 *  covered by same-thread children (children of one thread nest). */
inline std::map<std::string, double>
selfSeconds(const std::vector<SpanRecord> &spans)
{
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const SpanRecord &s : spans) {
        if (s.parent >= 0 &&
            spans[static_cast<std::size_t>(s.parent)].thread ==
                s.thread)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        self[s.name] +=
            static_cast<double>(s.endNs - s.startNs - childNs[i]) *
            1e-9;
    }
    return self;
}

/** Write spans as Chrome trace-event JSON (ts/dur in µs). */
inline bool
writeSpans(const std::vector<SpanRecord> &spans,
           const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld, "
                     "\"arm\": %u}}%s\n",
                     s.name, s.thread,
                     static_cast<double>(s.startNs) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3,
                     i, static_cast<long long>(s.parent), s.arm,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace dlbench

#endif // DLBENCH_SPANS_HH
