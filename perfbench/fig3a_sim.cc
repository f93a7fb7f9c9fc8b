/**
 * @file
 * fig3a_sim: the Figure 3(a) job set, simulated. Six apps at their
 * default processor counts, base and clustered, at the figure benches'
 * default input scale, store off, one thread. The seed permutes the
 * job order only, so every seed simulates the same twelve jobs.
 *
 * Each job replays harness::runWorkload's calls from outside, one span
 * per layer: partition + Pipeline::run (transform), makeDriverParams
 * (harness.profile), lowerForCores (codegen), memory init + System
 * construction (system.build), System::run (system.run).
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

#include "bench.hh"
#include "codegen/codegen.hh"
#include "harness/manifest.hh"
#include "harness/runner.hh"
#include "reference.hh"
#include "system/system.hh"

namespace perfbench
{

using namespace mpc;

namespace
{

constexpr int kScale = 2;
constexpr int kMaxUnroll = 16;             // RunSpec::maxUnroll default
constexpr Tick kMaxCycles = Tick(1) << 36; // RunSpec::maxCycles default

/** Digest of every RunResult counter the benchmark reports, plus the
 *  per-core finish ticks and both MSHR histograms. */
std::uint64_t
resultFingerprint(const sys::RunResult &r)
{
    std::vector<std::uint64_t> words{
        r.cycles, r.instructions, r.l1.loads, r.l1.loadMisses,
        r.l1.loadCoalesced, r.l1.writes, r.l1.writeMisses,
        r.l2.loads, r.l2.loadMisses, r.l2.loadCoalesced, r.l2.writes,
        r.l2.writeMisses, r.l2.writeCoalesced, r.l2.rejectsMshr,
        r.l2.rejectsPort, r.l2.writebacks, r.fabric.localReqs,
        r.fabric.remoteReqs, r.fabric.cacheToCache,
        r.fabric.invalidations, r.fabric.writebacks};
    for (double d : {r.busyCycles, r.dataReadCycles, r.dataWriteCycles,
                     r.syncCycles, r.cpuCycles, r.fabric.remoteLatency.sum(),
                     r.busUtilization, r.bankUtilization}) {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof d);
        std::memcpy(&bits, &d, sizeof d);
        words.push_back(bits);
    }
    for (const auto &core : r.cores) {
        words.push_back(core.doneTick);
        words.push_back(core.retired);
    }
    for (const OccupancyHistogram *h : {&r.l2ReadMshr, &r.l2TotalMshr})
        for (int l = 0; l <= h->maxLevel(); ++l)
            words.push_back(h->ticksAt(l));
    return harness::fnv1a(std::string(
        reinterpret_cast<const char *>(words.data()),
        words.size() * sizeof(std::uint64_t)));
}

struct App
{
    workloads::Workload workload;
    sys::SystemConfig config;
    /** Built at set-up; the reference's input. */
    std::unique_ptr<kisa::MemoryImage> initial =
        std::make_unique<kisa::MemoryImage>();
    int procs = 1;
    std::uint64_t reference = 0;
};

struct Job
{
    int app = 0;
    bool clustered = false;
    std::string label;
};

class Fig3aSim : public Workload
{
  public:
    explicit Fig3aSim(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Tracer &tracer) override
    {
        apps_.clear();
        jobs_.clear();
        for (const PaperPoint &point : kPaperFig3a) {
            App app;
            {
                Tracer::Scope span(tracer, "workloads.build");
                workloads::SizeParams size;
                size.scale = kScale;
                app.workload = workloads::makeByName(point.app, size);
                app.workload.init(*app.initial);
            }
            app.procs = app.workload.defaultProcs;
            app.config =
                harness::scaleConfig(sys::baseConfig(), app.workload);
            apps_.push_back(std::move(app));
        }
        for (int a = 0; a < static_cast<int>(apps_.size()); ++a)
            for (bool clustered : {false, true})
                jobs_.push_back(
                    {a, clustered,
                     std::string(kPaperFig3a[a].app) + "/" +
                         std::to_string(apps_[a].procs) + "p/" +
                         (clustered ? "clust" : "base")});
        Rng rng(seed_);
        rng.shuffle(jobs_);
    }

    void
    prepareChecks() override
    {
        for (App &app : apps_)
            app.reference = referenceChecksum(app.workload, *app.initial);
    }

    Pass
    runPass(Tracer &tracer) override
    {
        Pass pass;
        results_.clear();
        results_.resize(jobs_.size());
        for (size_t j = 0; j < jobs_.size(); ++j) {
            const Job &job = jobs_[j];
            const App &app = apps_[static_cast<size_t>(job.app)];
            ++pass.attempted;
            kisa::MemoryImage image;
            JobOut &out = results_[j];
            try {
                tracer.newJob();
                pass.begin();
                {
                    Tracer::Scope root(tracer, "job");
                    simulate(tracer, app, job.clustered, image, out);
                }
                pass.end(true);
            } catch (const std::exception &e) {
                pass.end(true);
                pass.failures.push_back({job.label, e.what(), false});
                continue;
            }
            check(job, app, image, out, pass);
        }
        return pass;
    }

    Metrics
    counters() const override
    {
        Metrics m;
        double mlp_sum = 0, remote_latency = 0, remote_samples = 0;
        for (size_t j = 0; j < jobs_.size(); ++j) {
            const sys::RunResult &r = results_[j].result;
            m["system.sim_cycles"] += static_cast<double>(r.cycles);
            m["system.instructions"] +=
                static_cast<double>(r.instructions);
            m["cpu.busy_cycles"] += r.busyCycles;
            m["cpu.data_read_cycles"] += r.dataReadCycles;
            m["cpu.sync_cycles"] += r.syncCycles;
            m["mem.l1_load_misses"] +=
                static_cast<double>(r.l1.loadMisses);
            m["mem.l2_misses"] +=
                static_cast<double>(r.l2.loadMisses + r.l2.writeMisses);
            m["mem.l2_coalesced"] += static_cast<double>(
                r.l2.loadCoalesced + r.l2.writeCoalesced);
            m["mem.l2_rejects_mshr"] +=
                static_cast<double>(r.l2.rejectsMshr);
            mlp_sum += r.l2ReadMshr.meanLevelAtLeast(1);
            m["coherence.remote_reqs"] +=
                static_cast<double>(r.fabric.remoteReqs);
            m["coherence.invalidations"] +=
                static_cast<double>(r.fabric.invalidations);
            remote_latency += r.fabric.remoteLatency.sum();
            remote_samples +=
                static_cast<double>(r.fabric.remoteLatency.count());
            m["codegen.static_instrs"] +=
                static_cast<double>(results_[j].staticInstrs);
            addPipelineCounters(m, results_[j].report);
        }
        m["mem.l2_read_mlp"] = mlp_sum / static_cast<double>(jobs_.size());
        m["coherence.remote_latency_cycles"] =
            remote_samples > 0 ? remote_latency / remote_samples : 0;

        // Per-app reduction, clustered vs base, and its distance from
        // the paper's read-off.
        double reduction_sum = 0, err_sum = 0;
        for (size_t a = 0; a < apps_.size(); ++a) {
            double base = 0, clust = 0;
            for (size_t j = 0; j < jobs_.size(); ++j)
                if (jobs_[j].app == static_cast<int>(a))
                    (jobs_[j].clustered ? clust : base) =
                        static_cast<double>(results_[j].result.cycles);
            const double pct = base > 0 ? (1.0 - clust / base) * 100 : 0;
            reduction_sum += pct;
            err_sum += std::fabs(pct - kPaperFig3a[a].reductionPct);
        }
        const double n = static_cast<double>(apps_.size());
        m["clust_reduction_pct"] = reduction_sum / n;
        m["paper_err_pts"] = err_sum / n;
        return m;
    }

  private:
    struct JobOut
    {
        sys::RunResult result;
        transform::PipelineReport report;
        std::uint64_t staticInstrs = 0;
    };

    /** harness::runWorkload's sequence for one (app, variant). */
    static void
    simulate(Tracer &tracer, const App &app, bool clustered,
             kisa::MemoryImage &image, JobOut &out)
    {
        const workloads::Workload &w = app.workload;
        ir::Kernel kernel = w.kernel.clone();
        if (app.procs > 1) {
            Tracer::Scope span(tracer, "transform.pipeline");
            partitionKernel(kernel);
        }
        std::set<std::uint32_t> leading;
        if (clustered) {
            transform::DriverParams params;
            {
                Tracer::Scope span(tracer, "harness.profile");
                params = harness::makeDriverParams(
                    w, kernel, app.config, app.procs, kMaxUnroll);
            }
            Tracer::Scope span(tracer, "transform.pipeline");
            transform::Pipeline pipeline = parsePipeline(
                transform::pipelineSpecFromParams(params));
            pipeline.verifyMode = transform::VerifyMode::Off;
            out.report = pipeline.run(kernel, params);
            for (int ref_id : out.report.leadingRefIds)
                leading.insert(static_cast<std::uint32_t>(ref_id));
        }
        std::vector<kisa::Program> programs;
        {
            Tracer::Scope span(tracer, "codegen.lower");
            programs = codegen::lowerForCores(kernel, app.procs,
                                              clustered, leading);
        }
        for (const auto &program : programs)
            out.staticInstrs += program.size();

        std::unique_ptr<sys::System> system;
        coherence::PlacementPolicy placement(app.procs,
                                             app.config.fabric.lineBytes);
        {
            Tracer::Scope span(tracer, "system.build");
            w.init(image);
            if (w.place)
                w.place(placement);
            system = std::make_unique<sys::System>(
                app.config, std::move(programs), image, &placement);
        }
        Tracer::Scope span(tracer, "system.run");
        out.result = system->run(kMaxCycles);
    }

    /** Output check against the evaluator, then the golden result. */
    void
    check(const Job &job, const App &app, const kisa::MemoryImage &image,
          const JobOut &out, Pass &pass)
    {
        const std::uint64_t sum =
            ir::checksumArrays(app.workload.kernel, image);
        if (sum != app.reference)
            pass.failures.push_back(
                {job.label, "final arrays differ from the IR evaluator's",
                 knownMismatch(job.label)});
        const std::uint64_t fp = resultFingerprint(out.result);
        const GoldenJob *golden = nullptr;
        for (const GoldenJob &g : kGoldenFig3a)
            if (job.label == g.job)
                golden = &g;
        if (golden == nullptr || golden->cycles != out.result.cycles ||
            golden->fingerprint != fp) {
            char msg[160];
            std::snprintf(msg, sizeof msg,
                          "%s: simulated %llu cycles, fingerprint %016llx "
                          "(golden %llu, %016llx)",
                          job.label.c_str(),
                          static_cast<unsigned long long>(out.result.cycles),
                          static_cast<unsigned long long>(fp),
                          golden ? static_cast<unsigned long long>(
                                       golden->cycles)
                                 : 0ull,
                          golden ? static_cast<unsigned long long>(
                                       golden->fingerprint)
                                 : 0ull);
            pass.errors.push_back(msg);
        }
    }

    std::uint64_t seed_;
    std::vector<App> apps_;
    std::vector<Job> jobs_;
    std::vector<JobOut> results_;
};

} // namespace

std::unique_ptr<Workload>
makeFig3aSim(std::uint64_t seed)
{
    return std::make_unique<Fig3aSim>(seed);
}

} // namespace perfbench
