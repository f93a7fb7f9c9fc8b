/**
 * @file
 * The mpclust benchmark program (see README.md):
 *
 *   perfbench --workload <fig3a_sim|compile_verify|store_mixed>
 *             --seed <n> --seconds <s> --trace <0|1> --outdir <dir>
 *
 * Sets the workload up several times (setup_s is the median), prepares
 * its output checks once (untimed), then runs a fixed number of passes
 * over its fixed job set (passCount): about --seconds of work on the
 * host the constants were measured on, the same work for a faster or
 * slower program, cut short only past kMaxStretch times --seconds.
 * With --trace 1 half the passes are traced, alternating; the
 * end-to-end figures always come from the untraced passes, the
 * per-layer times from the traced ones, and the difference of the two
 * is the tracing overhead.
 *
 * Timings are best-of-passes per timed section: on a shared host,
 * interference only ever slows a section down, so each job's fastest
 * pass is the steadiest estimate of its cost. wall_s is the sum of the
 * sections' best times, job_ms_p50 the median of the jobs' best times.
 *
 * Prints a report (every metric by name, unit, layer, and the
 * end-to-end metric it should move), then, as the last line, one JSON
 * object: correct, attempted, failed, and the end-to-end metrics
 * (--trace 0) or the per-layer metrics (--trace 1).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "common/json.hh"

using namespace perfbench;

namespace
{

/** Set-up runs kSetups times before the first pass, and again on a
 *  throwaway workload after each pass, as often as fits in
 *  kSetupShare of that pass's time. A host's speed drifts over seconds,
 *  so a median of set-ups spread over the run is steadier than one of
 *  set-ups taken in the first tenth of a second. */
constexpr int kSetups = 5;
constexpr double kSetupShare = 0.02;
/** A run stops early, after at least one pass of each kind, once it
 *  has taken this many times --seconds (a host far slower than the
 *  nominal one). */
constexpr double kMaxStretch = 4;
/** Spans written to the trace file (store_mixed records ~25k a pass). */
constexpr size_t kMaxTraceSpans = 200000;

/** Where a metric is measured and which JSON line carries it. */
enum Kind
{
    E2E,        ///< every run; the --trace 0 JSON
    LAYER,      ///< every run; the --trace 1 JSON
    TRACED,     ///< traced passes only; the --trace 1 JSON
};

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    Kind kind;
    const char *layer;
    const char *moves;  ///< what it should move, on which workload
};

// Every metric, with the layer it measures and what it should move.
// The end-to-end metrics that are zero or undefined on some workload
// (sim_minstr_per_s, clust_reduction_pct, paper_err_pts, failed_frac,
// ops_per_s), and job_ms_p99, whose run-to-run spread on a shared host
// exceeds any usable bound, ride in the per-layer JSON; the report
// prints them on every run.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", "lower", E2E, "all", "end to end"},
    {"wall_s", "s", "lower", E2E, "all", "end to end"},
    {"job_ms_p50", "ms", "lower", E2E, "all", "end to end"},
    {"peak_rss_mb", "MB", "lower", E2E, "all", "end to end"},

    {"job_ms_p99", "ms", "lower", LAYER, "all", "end to end (store_mixed)"},
    {"ops_per_s", "1/s", "higher", LAYER, "all", "end to end"},
    {"sim_minstr_per_s", "Minstr/s", "higher", LAYER, "system",
     "end to end (fig3a_sim)"},
    {"failed_frac", "frac", "lower", LAYER, "all", "end to end"},
    {"clust_reduction_pct", "%", "higher", LAYER, "model",
     "end to end (fig3a_sim), exact"},
    {"paper_err_pts", "pts", "lower", LAYER, "model",
     "end to end (fig3a_sim), exact"},

    {"system.run_ms", "ms", "lower", TRACED, "system",
     "wall_s, sim_minstr_per_s, job_ms_p50 on fig3a_sim"},
    {"system.build_ms", "ms", "lower", TRACED, "system",
     "wall_s, job_ms_p50 on fig3a_sim"},
    {"system.sim_cycles", "cycles", "lower", LAYER, "system",
     "clust_reduction_pct, wall_s on fig3a_sim"},
    {"system.instructions", "count", "lower", LAYER, "system",
     "sim_minstr_per_s on fig3a_sim"},
    {"system.host_ns_per_instr", "ns", "lower", TRACED, "system",
     "wall_s, sim_minstr_per_s on fig3a_sim"},

    {"cpu.busy_cycles", "cycles", "lower", LAYER, "cpu",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"cpu.data_read_cycles", "cycles", "lower", LAYER, "cpu",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"cpu.sync_cycles", "cycles", "lower", LAYER, "cpu",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"mem.l1_load_misses", "count", "lower", LAYER, "mem",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"mem.l2_misses", "count", "lower", LAYER, "mem",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"mem.l2_coalesced", "count", "higher", LAYER, "mem",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"mem.l2_rejects_mshr", "count", "lower", LAYER, "mem",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"mem.l2_read_mlp", "misses", "higher", LAYER, "mem",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"coherence.remote_reqs", "count", "lower", LAYER, "coherence",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"coherence.invalidations", "count", "lower", LAYER, "coherence",
     "clust_reduction_pct, paper_err_pts on fig3a_sim"},
    {"coherence.remote_latency_cycles", "cycles", "lower", LAYER,
     "coherence", "clust_reduction_pct, paper_err_pts on fig3a_sim"},

    {"transform.verify_ms", "ms", "lower", LAYER, "transform",
     "wall_s, job_ms_p50 on compile_verify"},
    {"transform.pipeline_ms", "ms", "lower", TRACED, "transform",
     "wall_s, job_ms_p50 on compile_verify"},
    {"transform.passes_run", "count", "lower", LAYER, "transform",
     "wall_s, job_ms_p50 on compile_verify"},
    {"transform.pass_skip_frac", "frac", "higher", LAYER, "transform",
     "wall_s, job_ms_p50 on compile_verify"},
    {"transform.actions", "count", "lower", LAYER, "transform",
     "wall_s, job_ms_p50 on compile_verify"},
    {"transform.verify_failures", "count", "lower", LAYER, "transform",
     "failed_frac on compile_verify"},
    {"harness.profile_ms", "ms", "lower", TRACED, "harness.profile",
     "wall_s on compile_verify"},
    {"codegen.lower_ms", "ms", "lower", TRACED, "codegen",
     "wall_s, job_ms_p50 on compile_verify"},
    {"codegen.static_instrs", "count", "lower", LAYER, "codegen",
     "wall_s, job_ms_p50 on compile_verify"},

    {"harness.job.key_ms", "ms", "lower", TRACED, "harness.job",
     "ops_per_s, job_ms_p50, job_ms_p99 on store_mixed"},
    {"harness.job.codec_ms", "ms", "lower", TRACED, "harness.job",
     "ops_per_s, job_ms_p50, job_ms_p99 on store_mixed"},
    {"harness.store.get_ms", "ms", "lower", TRACED, "harness.store",
     "ops_per_s, job_ms_p50, job_ms_p99 on store_mixed"},
    {"harness.store.put_ms", "ms", "lower", TRACED, "harness.store",
     "ops_per_s, job_ms_p50, job_ms_p99 on store_mixed"},
    {"harness.store.hit_frac", "frac", "higher", LAYER, "harness.store",
     "failed_frac on store_mixed"},
    {"harness.store.bad", "count", "lower", LAYER, "harness.store",
     "failed_frac on store_mixed"},
    {"harness.store.writes", "count", "higher", LAYER, "harness.store",
     "ops_per_s on store_mixed"},

    {"workloads.build_ms", "ms", "lower", TRACED, "workloads", "setup_s"},

    {"self_pct.system.run", "%", "lower", TRACED, "system", "wall_s"},
    {"self_pct.system.build", "%", "lower", TRACED, "system", "wall_s"},
    {"self_pct.transform.pipeline", "%", "lower", TRACED, "transform",
     "wall_s"},
    {"self_pct.harness.profile", "%", "lower", TRACED, "harness.profile",
     "wall_s"},
    {"self_pct.codegen.lower", "%", "lower", TRACED, "codegen", "wall_s"},
    {"self_pct.harness.job.key", "%", "lower", TRACED, "harness.job",
     "wall_s"},
    {"self_pct.harness.job.codec", "%", "lower", TRACED, "harness.job",
     "wall_s"},
    {"self_pct.harness.store.get", "%", "lower", TRACED, "harness.store",
     "wall_s"},
    {"self_pct.harness.store.put", "%", "lower", TRACED, "harness.store",
     "wall_s"},
    {"self_pct.job", "%", "lower", TRACED, "benchmark glue", "wall_s"},
    {"trace.overhead_s", "s", "lower", TRACED, "tracing",
     "traced minus untraced wall_s"},
    {"trace.overhead_pct", "%", "lower", TRACED, "tracing",
     "traced minus untraced wall_s"},
};

/** Span names whose times the traced passes report, with the
 *  per-layer time metric each feeds (nullptr: self share only). */
constexpr std::pair<const char *, const char *> kSpans[] = {
    {"system.run", "system.run_ms"},
    {"system.build", "system.build_ms"},
    {"transform.pipeline", "transform.pipeline_ms"},
    {"harness.profile", "harness.profile_ms"},
    {"codegen.lower", "codegen.lower_ms"},
    {"harness.job.key", "harness.job.key_ms"},
    {"harness.job.codec", "harness.job.codec_ms"},
    {"harness.store.get", "harness.store.get_ms"},
    {"harness.store.put", "harness.store.put_ms"},
    {"job", nullptr},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string outdir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<fig3a_sim|compile_verify|store_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> --outdir <dir>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end != v.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(a.seconds > 0))
                usage("--seconds must be a positive number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--outdir") {
            a.outdir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || a.seconds <= 0 ||
        a.outdir.empty())
        usage("--workload, --seed, --seconds and --outdir are required");
    return a;
}

/** How many passes a run makes: --seconds over the untraced pass time
 *  on a 4-vCPU Xeon VM (Release build), and at least minPasses, so
 *  every section's best-of has enough samples. */
struct PassPlan
{
    const char *workload;
    double nominalS;
    int minPasses;
};

constexpr PassPlan kPassPlans[] = {
    {"fig3a_sim", 13.0, 3},
    {"compile_verify", 13.4, 3},
    {"store_mixed", 1.0, 3},
};

int
passCount(const Args &a)
{
    for (const PassPlan &plan : kPassPlans)
        if (a.workload == plan.workload)
            return std::max(plan.minPasses,
                            static_cast<int>(
                                std::lround(a.seconds / plan.nominalS)));
    usage(("unknown workload " + a.workload).c_str());
}

/** A fresh workload; @p dir is store_mixed's working directory under
 *  --outdir. */
std::unique_ptr<Workload>
makeWorkload(const Args &a, const char *dir)
{
    if (a.workload == "fig3a_sim")
        return makeFig3aSim(a.seed);
    if (a.workload == "compile_verify")
        return makeCompileVerify(a.seed);
    return makeStoreMixed(a.seed, a.outdir + "/" + dir);
}

/** Per section, its fastest time over @p passes (all time the same
 *  sections; an error is recorded when they do not). */
std::vector<Pass::Section>
bestSections(const std::vector<Pass> &passes,
             std::vector<std::string> &errors)
{
    std::vector<Pass::Section> best = passes.front().sections;
    for (const Pass &p : passes) {
        if (p.sections.size() != best.size()) {
            errors.push_back("passes timed different section counts");
            return best;
        }
        for (size_t s = 0; s < best.size(); ++s)
            best[s].ms = std::min(best[s].ms, p.sections[s].ms);
    }
    return best;
}

double
totalS(const std::vector<Pass::Section> &sections)
{
    double ms = 0;
    for (const Pass::Section &s : sections)
        ms += s.ms;
    return ms / 1e3;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Linearly interpolated percentile, @p p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Peak resident set of this process image (VmHWM). getrusage's
 *  ru_maxrss would also count the parent's RSS from before exec. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const int total_passes = passCount(args);   // rejects unknown names
    std::filesystem::create_directories(args.outdir);
    Tracer tracer;
    tracer.on = args.trace;
    std::vector<std::string> errors;

    // Set-ups; each replaces the previous workload.
    std::unique_ptr<Workload> workload, spare;
    std::vector<double> setup_s, build_ms;
    const auto set_up = [&](std::unique_ptr<Workload> &w, const char *dir) {
        w.reset();
        w = makeWorkload(args, dir);
        const size_t mark = tracer.spans().size();
        const std::int64_t t0 = nowNs();
        try {
            w->setup(tracer);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
            std::exit(1);
        }
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        build_ms.push_back(tracer.timesSince(mark)["workloads.build"]
                               .inclusiveMs);
    };
    for (int i = 0; i < kSetups; ++i)
        set_up(workload, "store_mixed");
    try {
        workload->prepareChecks();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: preparing the checks failed: %s\n",
                     e.what());
        return 1;
    }

    // Timed passes, half of them traced in a traced run.
    std::vector<Pass> untraced, traced;
    std::map<std::string, Tracer::Time> traced_times;
    Metrics first_counters;
    const std::int64_t phase0 = nowNs();
    for (int i = 0; i < total_passes; ++i) {
        const double elapsed =
            static_cast<double>(nowNs() - phase0) / 1e9;
        if (!untraced.empty() && (!args.trace || !traced.empty()) &&
            elapsed > kMaxStretch * args.seconds)
            break;
        const bool trace_this = args.trace && i % 2 == 1;
        tracer.on = trace_this;
        const size_t mark = tracer.spans().size();
        const std::int64_t pass0 = nowNs();
        Pass pass = workload->runPass(tracer);
        const double pass_s = static_cast<double>(nowNs() - pass0) / 1e9;
        if (trace_this)
            for (const auto &[name, t] : tracer.timesSince(mark)) {
                traced_times[name].inclusiveMs += t.inclusiveMs;
                traced_times[name].selfMs += t.selfMs;
            }
        const Metrics counters = workload->counters();
        if (i == 0)
            first_counters = counters;
        else if (counters != first_counters)
            pass.errors.push_back(
                "layer counters differ between passes 1 and " +
                std::to_string(i + 1) +
                (args.trace ? " (traced vs untraced)" : ""));
        (trace_this ? traced : untraced).push_back(std::move(pass));

        tracer.on = args.trace;
        double spent_s = 0;
        while (spent_s + median(setup_s) <= kSetupShare * pass_s) {
            set_up(spare, "store_mixed-spare");
            spent_s += setup_s.back();
        }
        spare.reset();
    }
    tracer.on = false;

    // Tally.
    int attempted = 0;
    std::vector<Failure> failures;
    Metrics host_ms;
    for (const std::vector<Pass> *set : {&untraced, &traced})
        for (const Pass &p : *set) {
            attempted += p.attempted;
            failures.insert(failures.end(), p.failures.begin(),
                            p.failures.end());
            errors.insert(errors.end(), p.errors.begin(), p.errors.end());
            for (const auto &[name, ms] : p.hostMs)
                host_ms[name] += ms;
        }
    const double passes = static_cast<double>(untraced.size() + traced.size());

    Metrics m;
    for (const MetricDef &def : kMetrics)
        m[def.name] = 0;
    for (const auto &[name, value] : first_counters)
        m[name] = value;
    for (const auto &[name, ms] : host_ms)
        m[name] = ms / passes;

    const std::vector<Pass::Section> best = bestSections(untraced, errors);
    std::vector<double> best_job_ms, jobs_ms, walls;
    for (const Pass::Section &s : best)
        if (s.job)
            best_job_ms.push_back(s.ms);
    for (const Pass &p : untraced) {
        walls.push_back(totalS(p.sections));
        for (const Pass::Section &s : p.sections)
            if (s.job)
                jobs_ms.push_back(s.ms);
    }
    m["setup_s"] = median(setup_s);
    m["wall_s"] = totalS(best);
    m["job_ms_p50"] = median(best_job_ms);
    m["job_ms_p99"] = percentile(jobs_ms, 99);
    m["peak_rss_mb"] = peakRssMb();
    m["ops_per_s"] = static_cast<double>(best_job_ms.size()) / m["wall_s"];
    m["sim_minstr_per_s"] = m["system.instructions"] / m["wall_s"] / 1e6;
    m["failed_frac"] = static_cast<double>(failures.size()) / attempted;
    const double skipped = m["transform.passes_skipped"];
    m.erase("transform.passes_skipped");
    m["transform.pass_skip_frac"] =
        skipped > 0 ? skipped / (skipped + m["transform.passes_run"]) : 0;
    m["workloads.build_ms"] = median(build_ms);

    if (!traced.empty()) {
        double traced_total = 0;
        for (const Pass &p : traced)
            traced_total += totalS(p.sections);
        const double n = static_cast<double>(traced.size());
        for (const auto &[span, metric] : kSpans) {
            const Tracer::Time t = traced_times[span];
            if (metric != nullptr)
                m[metric] = t.inclusiveMs / n;
            m[std::string("self_pct.") + span] =
                t.selfMs / (traced_total * 1e3) * 100;
        }
        if (m["system.instructions"] > 0)
            m["system.host_ns_per_instr"] =
                m["system.run_ms"] * 1e6 / m["system.instructions"];
        m["trace.overhead_s"] =
            totalS(bestSections(traced, errors)) - m["wall_s"];
        m["trace.overhead_pct"] = m["trace.overhead_s"] / m["wall_s"] * 100;
        const std::string path =
            args.outdir + "/trace-" + args.workload + ".json";
        if (!tracer.write(path, kMaxTraceSpans))
            errors.push_back("cannot write " + path);
    }

    // Report.
    std::printf("perfbench %s seed %llu: %zu set-ups, %zu untraced + %zu "
                "traced passes, %d operations per pass, %zu job samples\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), setup_s.size(),
                untraced.size(), traced.size(), untraced.front().attempted,
                jobs_ms.size());
    std::printf("untraced pass times (s):");
    for (double w : walls)
        std::printf(" %.4f", w);
    std::printf("\n%-34s %16s %-9s %-16s %s\n", "metric", "value", "unit",
                "layer", "should move");
    for (const MetricDef &def : kMetrics) {
        if (def.kind == TRACED && traced.empty())
            std::printf("%-34s %16s %-9s %-16s %s\n", def.name,
                        "(traced run)", def.unit, def.layer, def.moves);
        else
            std::printf("%-34s %16.6g %-9s %-16s %s\n", def.name,
                        m[def.name], def.unit, def.layer, def.moves);
    }
    if (!traced.empty()) {
        std::printf("self time per layer, share of traced wall_s "
                    "(%.4f s); tracing overhead %+.4f s (%+.2f%%):\n",
                    m["wall_s"] + m["trace.overhead_s"],
                    m["trace.overhead_s"], m["trace.overhead_pct"]);
        for (const auto &[span, metric] : kSpans)
            std::printf("  %-20s %6.2f%%\n", span,
                        m[std::string("self_pct.") + span]);
    }
    std::printf("paper reference: paper_err_pts only (Fig. 3(a) "
                "read-offs); no other metric has one\n");
    bool correct = errors.empty();
    std::map<std::pair<std::string, std::string>, std::pair<int, bool>>
        failed_jobs;
    for (const Failure &f : failures) {
        correct &= f.known;
        auto &entry = failed_jobs[{f.job, f.what}];
        ++entry.first;
        entry.second = f.known;
    }
    for (const auto &[job, count] : failed_jobs)
        std::printf("failed %dx: %s: %s%s\n", count.first,
                    job.first.c_str(), job.second.c_str(),
                    count.second ? " [known at seed]" : "");
    for (const std::string &e : errors) {
        std::printf("ERROR: %s\n", e.c_str());
        std::fprintf(stderr, "perfbench: ERROR: %s\n", e.c_str());
    }

    mpc::json::ObjectWriter metrics;
    for (const MetricDef &def : kMetrics)
        if ((def.kind == E2E) != args.trace)
            metrics.raw(def.name, mpc::json::ObjectWriter()
                                      .field("value", m[def.name])
                                      .field("unit", def.unit)
                                      .str());
    std::printf("%s\n", mpc::json::ObjectWriter()
                            .field("correct", correct)
                            .field("attempted", attempted)
                            .field("failed",
                                   static_cast<int>(failures.size()))
                            .raw("metrics", metrics.str())
                            .str()
                            .c_str());
    return 0;
}
