/**
 * @file
 * Execution tracing: spans, instants and counter tracks, exported as
 * Chrome trace-event JSON (Perfetto / chrome://tracing) plus a
 * wall-clock-stripped canonical form.
 *
 * The stats registry (metrics.hpp) answers "how much"; this layer
 * answers "when": where a campaign's wall time goes — trace-cache
 * capture vs hit, threshold-solver probes, backend batch steps,
 * governor arbitration — on a timeline a human can scrub. Design
 * points (magic-trace-style always-on ring recording, gem5's
 * stats/trace split):
 *
 *  - allocation-bounded: each thread records into a pre-sized buffer
 *    owned by the tracer (so it outlives the pool threads campaigns
 *    spawn per run). A full buffer stops recording and counts drops —
 *    it never wraps, so the *prefix* of every stream stays exact;
 *  - cheap: a disabled tracer costs one relaxed atomic load per
 *    record site; an enabled span is two steady_clock reads and a
 *    buffer slot write. Interned name ids keep records fixed-size;
 *  - two determinism classes. TraceClass::Det events describe *what
 *    the run computed* (campaign runs, solver solves/probes, cache
 *    captures) and appear in the canonical export; TraceClass::Wall
 *    events describe *how the machine scheduled it* (cache hit/miss,
 *    queue depths, backend batch steps, arbitration) and appear only
 *    in the Chrome export.
 *
 * Canonical form: per-thread span trees are rebuilt from the event
 * streams, each root subtree is serialised to one JSON line (names,
 * nesting, args — no timestamps, no thread ids, no counters), and the
 * lines are sorted lexicographically. Spans whose *trigger* is
 * scheduling-dependent but whose *content* is deterministic (a cache
 * capture fires on whichever worker gets there first) are recorded
 * `detached`: they become canonical roots instead of children of
 * whoever happened to trigger them. The result is byte-identical
 * across thread counts whenever droppedDet() == 0 — goldenable like
 * the campaign JSONL (DESIGN.md §6).
 *
 * Thread contract: recording is lock-free per thread and safe from
 * any number of threads; enable/disable/reset and the exports must
 * run while no other thread is recording (campaigns join their pool
 * before the artifacts are written).
 *
 * This header and tracing.cpp are the only files in src/ that read the
 * wall clock (vlint det-wallclock): the tracer's timestamps and
 * StopWatch, whose readings feed only the Chrome export, a campaign's
 * wall_seconds and benchmark timings.
 */

#ifndef VGUARD_OBS_TRACING_HPP
#define VGUARD_OBS_TRACING_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vguard::obs {

/** Determinism class of a trace event (see file comment). */
enum class TraceClass : uint8_t {
    Det,   ///< deterministic structure; part of the canonical form
    Wall,  ///< scheduling/timing detail; Chrome export only
};

/** Maximum key/value args attached to one span or instant. */
constexpr size_t kMaxTraceArgs = 4;

/** One recorded argument (key and any string value are interned). */
struct TraceArg
{
    enum class Kind : uint8_t { U64, F64, Str };
    uint32_t key = 0;
    Kind kind = Kind::U64;
    union
    {
        uint64_t u;
        double f;
        uint32_t s;  ///< interned string id
    } v{};
};

/** Fixed-size record in a per-thread buffer. */
struct TraceEvent
{
    enum class Type : uint8_t { Begin, End, Instant, Counter };
    Type type = Type::Begin;
    TraceClass cls = TraceClass::Det;
    /** Canonical root regardless of the current span stack. */
    bool detached = false;
    uint8_t nargs = 0;
    uint32_t name = 0;   ///< interned
    uint64_t ts = 0;     ///< ns since enable()
    double value = 0.0;  ///< counter sample value
    TraceArg args[kMaxTraceArgs];
};

/** Process-wide tracer. All methods are no-ops until enable(). */
class Tracer
{
  public:
    static Tracer &instance();

    /** Default per-thread buffer capacity (events). */
    static constexpr size_t kDefaultCapacity = size_t{1} << 15;

    /**
     * Start recording. @p perThreadCapacity bounds every thread's
     * buffer; a full buffer drops (and counts) instead of wrapping.
     * Existing buffers are dropped (fresh recording epoch).
     */
    void enable(size_t perThreadCapacity = kDefaultCapacity);

    /** Stop recording; buffers stay readable for export. */
    void disable();

    /**
     * Re-arm recording after disable() WITHOUT starting a fresh
     * epoch: existing buffers (and their events) are kept and new
     * events append. Pairs with disable() for pause/resume — e.g.
     * the overhead guard in bench_simloop alternates traced and
     * untraced legs without paying a ring reallocation per leg.
     * No-op if enable() was never called.
     */
    void resume();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Drop every buffer and dropped-counter (test isolation). Interned
     * names survive — ids cached in call-site statics stay valid.
     * Caller must guarantee no concurrent recording.
     */
    void reset();

    /**
     * Intern @p name, returning a stable id. Ids are assigned in
     * first-come order and therefore thread-schedule dependent; both
     * exports key on the *name string*, never the id.
     */
    uint32_t intern(std::string_view name);

    /**
     * The one record site: append a @p type event to this thread's
     * buffer, stamped now. Returns the slot, to which the caller may
     * attach args (Begin/Instant) or a value (Counter) on the same
     * thread, or nullptr when disabled or when the buffer is full — a
     * full buffer counts the drop against @p cls. End records close
     * the innermost open span of this thread and carry no name.
     * Counter tracks are always TraceClass::Wall: which thread samples
     * what value when is scheduling-dependent by nature.
     */
    TraceEvent *record(TraceEvent::Type type, TraceClass cls,
                       uint32_t name = 0, bool detached = false);

    // ------------------------------------------------------ exports

    struct Stats
    {
        uint64_t events = 0;       ///< records retained
        uint64_t droppedDet = 0;   ///< Det records lost to full buffers
        uint64_t droppedWall = 0;  ///< Wall records lost
        size_t threads = 0;        ///< buffers registered
    };

    Stats stats() const;

    /**
     * The full trace as Chrome trace-event JSON ({"traceEvents":[...]},
     * "X"/"i"/"C"/"M" phases, µs timestamps) — loadable in Perfetto
     * and chrome://tracing. Machine- and schedule-dependent.
     */
    std::string chromeJson() const;

    /**
     * The wall-clock-stripped canonical form: one JSON line per span
     * tree root (Det events only, detached spans lifted to roots),
     * lines sorted lexicographically. Byte-deterministic across
     * thread counts while droppedDet == 0.
     */
    std::string canonicalJsonl() const;

  private:
    Tracer() = default;

    struct ThreadBuf
    {
        std::vector<TraceEvent> events;  ///< pre-sized, count_ used
        size_t count = 0;
        uint64_t droppedDet = 0;
        uint64_t droppedWall = 0;
    };

    ThreadBuf *threadBuf();

    mutable std::mutex m_;  ///< guards buffers_, names_, epoch bump
    std::vector<std::unique_ptr<ThreadBuf>> buffers_;
    std::vector<std::string> names_;        ///< id -> name
    std::map<std::string, uint32_t, std::less<>> index_;  ///< name -> id
    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> epoch_{1};        ///< invalidates TLS caches
    size_t capacity_ = kDefaultCapacity;
    uint64_t t0_ = 0;                       ///< enable() timestamp [ns]
};

/**
 * Arg builder shared by spans and instants: arg() calls attach up to
 * kMaxTraceArgs key/values to the recorded event and must happen on
 * the recording thread (for a span, before it ends). String values
 * are interned. A no-op while nothing was recorded.
 */
class TraceRecord
{
  public:
    TraceRecord &arg(const char *key, uint64_t v);
    TraceRecord &arg(const char *key, double v);
    TraceRecord &arg(const char *key, std::string_view v);

  protected:
    /** Record a @p type event named @p name (interned only while the
        tracer is enabled). */
    TraceRecord(TraceEvent::Type type, const char *name, TraceClass cls,
                bool detached);

    TraceEvent *ev_ = nullptr;  ///< the record; null when inactive

  private:
    /** The next free arg slot keyed @p key, or null. */
    TraceArg *nextArg(const char *key, TraceArg::Kind kind);
};

/**
 * RAII span; `cls` picks the determinism class and `detached` lifts
 * the span to a canonical root (for work triggered by whichever thread
 * got there first — cache captures, one-per-key solves, campaign runs).
 */
class TraceSpan : public TraceRecord
{
  public:
    explicit TraceSpan(const char *name, TraceClass cls = TraceClass::Det,
                       bool detached = false);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    TraceClass cls_;
};

/** A zero-duration event with the same args as TraceSpan. */
class TraceInstant : public TraceRecord
{
  public:
    explicit TraceInstant(const char *name,
                          TraceClass cls = TraceClass::Wall,
                          bool detached = false);
};

/** Sample a counter track (no-op while the tracer is disabled). */
void traceCounter(const char *track, double value);

/**
 * Wall-clock stopwatch for whole-campaign and benchmark timing. Its
 * readings are machine-dependent and never enter a deterministic
 * artifact (campaign JSONL, events, canonical trace).
 */
class StopWatch
{
  public:
    StopWatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace vguard::obs

#endif // VGUARD_OBS_TRACING_HPP
