/**
 * @file
 * compile_verify: the autotuner's screen stage without simulation.
 * Every app at procs 1 and at its default count gets one
 * makeDriverParams (harness.profile), then every candidate spec the
 * tuner would screen for that profile (harness::candidateSpecs: the
 * hand spec, the cluster-degree sweep with and without prefetching,
 * the inner-unroll and prefetch-distance sweeps, fuse,cluster), each
 * through Pipeline::run with per-pass verification recorded
 * (transform) and lowerForCores (codegen). One job is one spec.
 *
 * The seed draws the order of the groups and of the specs within each
 * group only, so every seed does the same work, and the work follows
 * the tuner if its candidate set changes.
 */

#include <algorithm>
#include <set>
#include <stdexcept>

#include "bench.hh"
#include "codegen/codegen.hh"
#include "harness/autotune.hh"
#include "harness/runner.hh"
#include "kisa/exec_threaded.hh"
#include "reference.hh"

namespace perfbench
{

using namespace mpc;

namespace
{

constexpr int kScale = 2;
constexpr int kMaxUnroll = 16;

struct Group
{
    int app = 0;
    int procs = 1;
    std::string label;              ///< "<app>/<procs>p"
    std::vector<std::string> specs; ///< candidateSpecs, seeded order
    transform::DriverParams params; ///< this pass's profile
    ir::Kernel partitioned;         ///< this pass's input kernel
};

struct App
{
    workloads::Workload workload;
    sys::SystemConfig config;
    /** Built at set-up; the reference's input. */
    std::unique_ptr<kisa::MemoryImage> initial =
        std::make_unique<kisa::MemoryImage>();
    std::uint64_t reference = 0;
};

/** The report's own verification time: reference run plus every
 *  post-pass check. */
double
pipelineVerifyMs(const transform::PipelineReport &report)
{
    double ms = report.refChecksumMs;
    for (const auto &pass : report.passes)
        ms += pass.verifyMs;
    return ms;
}

const char *const kApps[] = {"em3d", "erlebacher", "fft", "lu",
                             "mp3d", "mst",        "ocean"};

class CompileVerify : public Workload
{
  public:
    explicit CompileVerify(std::uint64_t seed) : rng_(seed) {}

    void
    setup(Tracer &tracer) override
    {
        apps_.clear();
        groups_.clear();
        for (const char *name : kApps) {
            App app;
            {
                Tracer::Scope span(tracer, "workloads.build");
                workloads::SizeParams size;
                size.scale = kScale;
                app.workload = workloads::makeByName(name, size);
                app.workload.init(*app.initial);
            }
            app.config =
                harness::scaleConfig(sys::baseConfig(), app.workload);
            const int default_procs = app.workload.defaultProcs;
            apps_.push_back(std::move(app));
            std::vector<int> procs_list{1};
            if (default_procs > 1)
                procs_list.push_back(default_procs);
            for (int procs : procs_list) {
                Group g;
                g.app = static_cast<int>(apps_.size()) - 1;
                g.procs = procs;
                g.label =
                    std::string(name) + "/" + std::to_string(procs) + "p";
                groups_.push_back(std::move(g));
            }
        }
        rng_.shuffle(groups_);
    }

    /** The references, and each group's spec list: the candidates of
     *  its profile, which every pass recomputes and must reproduce. */
    void
    prepareChecks() override
    {
        for (App &app : apps_)
            app.reference = referenceChecksum(app.workload, *app.initial);
        Tracer off;
        for (Group &g : groups_) {
            profile(off, g);
            g.specs = harness::candidateSpecs(g.params);
            rng_.shuffle(g.specs);
        }
    }

    Pass
    runPass(Tracer &tracer) override
    {
        Pass pass;
        counters_.clear();
        for (Group &g : groups_) {
            const App &app = apps_[static_cast<size_t>(g.app)];
            // The per-(app, procs) profile: timed, but not a job.
            tracer.newJob();
            pass.begin();
            profile(tracer, g);
            pass.end(false);
            std::vector<std::string> specs = harness::candidateSpecs(g.params);
            std::vector<std::string> expected = g.specs;
            std::sort(specs.begin(), specs.end());
            std::sort(expected.begin(), expected.end());
            if (specs != expected)
                pass.errors.push_back(g.label +
                                      ": the profile's candidate specs "
                                      "changed between passes");
            for (const std::string &spec : g.specs) {
                ++pass.attempted;
                const std::string label = g.label + " " + spec;
                transform::PipelineReport report;
                std::vector<kisa::Program> programs;
                try {
                    tracer.newJob();
                    pass.begin();
                    {
                        Tracer::Scope root(tracer, "job");
                        compile(tracer, app, g, spec, report, programs);
                    }
                    pass.end(true);
                } catch (const std::exception &e) {
                    pass.end(true);
                    pass.failures.push_back({label, e.what(), false});
                    continue;
                }
                check(app, label, report, programs, pass);
            }
        }
        return pass;
    }

    Metrics counters() const override { return counters_; }

  private:
    /** Partition (procs > 1) and profile @p g's kernel. */
    void
    profile(Tracer &tracer, Group &g) const
    {
        const App &app = apps_[static_cast<size_t>(g.app)];
        Tracer::Scope root(tracer, "job");
        g.partitioned = app.workload.kernel.clone();
        if (g.procs > 1) {
            Tracer::Scope span(tracer, "transform.pipeline");
            partitionKernel(g.partitioned);
        }
        Tracer::Scope span(tracer, "harness.profile");
        g.params = harness::makeDriverParams(app.workload, g.partitioned,
                                             app.config, g.procs,
                                             kMaxUnroll);
    }

    static void
    compile(Tracer &tracer, const App &app, const Group &g,
            const std::string &spec, transform::PipelineReport &report,
            std::vector<kisa::Program> &programs)
    {
        ir::Kernel kernel = g.partitioned.clone();
        {
            Tracer::Scope span(tracer, "transform.pipeline");
            transform::Pipeline pipeline = parsePipeline(spec);
            pipeline.verifyMode = transform::VerifyMode::Record;
            pipeline.initMemory = [&app](kisa::MemoryImage &image) {
                app.workload.init(image);
            };
            report = pipeline.run(kernel, g.params);
        }
        std::set<std::uint32_t> leading;
        for (int ref_id : report.leadingRefIds)
            leading.insert(static_cast<std::uint32_t>(ref_id));
        Tracer::Scope span(tracer, "codegen.lower");
        programs = codegen::lowerForCores(kernel, g.procs, true, leading);
    }

    /** Verify failures, then the lowered programs' output against the
     *  evaluator's. */
    void
    check(const App &app, const std::string &label,
          const transform::PipelineReport &report,
          const std::vector<kisa::Program> &programs, Pass &pass)
    {
        addPipelineCounters(counters_, report);
        pass.hostMs["transform.verify_ms"] += pipelineVerifyMs(report);
        for (const auto &program : programs)
            counters_["codegen.static_instrs"] +=
                static_cast<double>(program.size());
        if (!report.verifyFailures.empty()) {
            pass.failures.push_back(
                {label,
                 "verify failed after pass '" +
                     report.verifyFailures.front().pass +
                     "': " + report.verifyFailures.front().what,
                 false});
            return;
        }
        kisa::MemoryImage image;
        app.workload.init(image);
        kisa::execute(programs, image);
        if (ir::checksumArrays(app.workload.kernel, image) != app.reference)
            pass.failures.push_back(
                {label, "final arrays differ from the IR evaluator's",
                 knownMismatch(label)});
    }

    Rng rng_;
    std::vector<App> apps_;
    std::vector<Group> groups_;
    Metrics counters_;
};

} // namespace

std::unique_ptr<Workload>
makeCompileVerify(std::uint64_t seed)
{
    return std::make_unique<CompileVerify>(seed);
}

} // namespace perfbench
