/**
 * @file
 * Shared plumbing of the mpclust benchmark (see README.md): the span
 * tracer, the seeded generator, the interface each workload
 * implements, and the helpers the workloads share.
 *
 * The benchmark times the program from outside: every span wraps one
 * call the benchmark itself makes into a module's public functions.
 * Nothing inside src/ is instrumented.
 */

#ifndef MPC_PERFBENCH_BENCH_HH
#define MPC_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/eval.hh"
#include "transform/pipeline.hh"
#include "workloads/workload.hh"

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span recorder. A span is one call into a layer: name,
 * start, end, the enclosing span, and the job it belongs to. Off, a
 * Scope costs one branch; on, it costs two clock reads and a push.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;       ///< string literal
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;             ///< index into spans(), -1 for a root
        int job;
    };

    /** RAII span around one layer call. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name) : tracer_(tracer)
        {
            if (!tracer_.on)
                return;
            index_ = static_cast<int>(tracer_.spans_.size());
            tracer_.spans_.push_back(
                {name, nowNs(), 0, tracer_.open_, tracer_.job_});
            tracer_.open_ = index_;
        }
        ~Scope()
        {
            if (index_ < 0)
                return;
            Span &span = tracer_.spans_[static_cast<size_t>(index_)];
            span.endNs = nowNs();
            tracer_.open_ = span.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    bool on = false;

    /** Tag spans opened from now on with a new job id. */
    void newJob() { ++job_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Inclusive and self milliseconds per span name over spans
     *  [@p from, end). Self time is the span's duration minus the
     *  durations of its direct children. */
    struct Time
    {
        double inclusiveMs = 0;
        double selfMs = 0;
    };
    std::map<std::string, Time> timesSince(size_t from) const;

    /** Write the last @p max_spans spans through obs::Tracer's
     *  Chrome-trace dump: ts and dur in nanoseconds since the first
     *  span, a0 the job id + 1 (0 before the first job), a1 the
     *  parent span index + 1 (0 for a root). @return false on I/O
     *  failure. */
    bool write(const std::string &path, size_t max_spans) const;

  private:
    std::vector<Span> spans_;
    int open_ = -1;
    int job_ = -1;
};

/** splitmix64: a small, portable, seeded generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[static_cast<size_t>(below(i))]);
    }

  private:
    std::uint64_t state_;
};

/** Metric values by name (see kMetrics in main.cc for the table). */
using Metrics = std::map<std::string, double>;

/** One failed job: what it was, why, and whether it is a defect
 *  recorded at the commit that introduced the benchmark. */
struct Failure
{
    std::string job;
    std::string what;
    bool known = false;
};

/** What one pass over a workload's job set measured. */
struct Pass
{
    /** One timed section: a job, or timed work that is not a job.
     *  Every pass times the same sections in the same order. */
    struct Section
    {
        double ms;
        bool job;
    };
    std::vector<Section> sections;

    void begin() { t0_ = nowNs(); }
    void
    end(bool job)
    {
        sections.push_back({static_cast<double>(nowNs() - t0_) / 1e6, job});
    }

    int attempted = 0;
    std::vector<Failure> failures;
    /** Host times the program reports itself, e.g. the pipeline's
     *  per-pass verification (ms per pass, by metric name). */
    Metrics hostMs;
    /** Determinism or consistency problems (never expected). */
    std::vector<std::string> errors;

  private:
    std::int64_t t0_ = 0;
};

/**
 * One benchmark workload. setup() builds the inputs (timed: setup_s);
 * prepareChecks(), run once after the last set-up and untimed, builds
 * what the output checks compare against; runPass() runs the fixed job
 * set once, timing jobs individually and checking each output outside
 * the timed sections; counters() reports the layer counters of the
 * last pass.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(Tracer &tracer) = 0;
    virtual void prepareChecks() = 0;
    virtual Pass runPass(Tracer &tracer) = 0;
    /** Layer counters and exact results (identical in every pass). */
    virtual Metrics counters() const = 0;
};

std::unique_ptr<Workload> makeFig3aSim(std::uint64_t seed);
std::unique_ptr<Workload> makeCompileVerify(std::uint64_t seed);
std::unique_ptr<Workload> makeStoreMixed(std::uint64_t seed,
                                         const std::string &workdir);

/**
 * The output check's reference: the UNtransformed kernel run by the IR
 * evaluator (sequential semantics) over @p initial, the workload's
 * initial data (consumed), digested by ir::checksumArrays.
 */
std::uint64_t referenceChecksum(const mpc::workloads::Workload &workload,
                                mpc::kisa::MemoryImage &initial);

/** Run a one-pass pipeline of @p spec over @p kernel, verification
 *  off (how harness::runWorkload partitions multiprocessor kernels). */
void partitionKernel(mpc::ir::Kernel &kernel);

/** Add a pipeline report's transform.* counters to @p m (passes run
 *  and skipped, actions, verify failures). */
void addPipelineCounters(Metrics &m,
                         const mpc::transform::PipelineReport &report);

/** Parse @p spec or throw naming it. */
mpc::transform::Pipeline parsePipeline(const std::string &spec);

} // namespace perfbench

#endif // MPC_PERFBENCH_BENCH_HH
