/**
 * @file
 * store_mixed: the result-store traffic of a farm sweep, cold and then
 * warm, with no simulation in the timed phase.
 *
 * Set-up fills a store through harness::runStoredWorkload with real
 * JobResults of a fixed pool of small jobs (every app at scale 1,
 * uniprocessor, under two MSHR/window variants, base and clustered).
 * The checks' preparation reads each back through runStoredWorkload,
 * which must hit, and keeps its key and stored text.
 *
 * The timed phase replays, per sweep, what mpcfarm (harness::runFarm
 * with worker processes, its default) does to a store when the pool's
 * job file is run on an empty store and then rerun, as the CI farm
 * smoke does, with the pooled results standing in for the simulations.
 * Per job, in four steps:
 *
 *   cold prescan  jobKeyFor, get (must miss)
 *   dispatch      the worker's runStoredWorkload miss path: jobKeyFor,
 *                 get (must miss), JobResult::toJson, put
 *   fill cycles   the parent's fillCycles: get (must hit),
 *                 JobResult::fromJson
 *   warm prescan  a new ResultStore on the same directory: jobKeyFor,
 *                 get (must hit), JobResult::fromJson
 *
 * so four reads (two due to miss, two due to hit) and one write per
 * job. A job's four steps, timed one by one, make one timed section:
 * its store cost in the sweep. (Timing each step as a job of its own
 * put the median on the boundary between two step kinds of different
 * cost, where it flipped from run to run.) The farm also rebuilds
 * the workload for every key (harness::jobKey); that is
 * workloads::makeByName, measured at set-up, so the ops key the
 * set-up's workloads instead.
 *
 * A pass runs kSweeps sweeps, each into a fresh store, each over the
 * whole pool in its own seeded order: the seed orders the jobs only,
 * and every pass does the same work.
 */

#include <filesystem>
#include <stdexcept>

#include "bench.hh"
#include "harness/job.hh"

namespace perfbench
{

using namespace mpc;
namespace fs = std::filesystem;

namespace
{

constexpr int kScale = 1;
constexpr int kSweeps = 60;

const char *const kApps[] = {"em3d", "erlebacher", "fft", "lu",
                             "mp3d", "mst",        "ocean"};

struct PoolEntry
{
    int app = 0;
    harness::RunSpec spec;
    std::string label;
    std::string key;
    std::string text;           ///< the JobResult as stored
    harness::JobResult result;
};

class StoreMixed : public Workload
{
  public:
    StoreMixed(std::uint64_t seed, std::string workdir)
        : seed_(seed), workdir_(std::move(workdir))
    {}

    ~StoreMixed() override
    {
        std::error_code ec;
        fs::remove_all(workdir_, ec);
    }

    void
    setup(Tracer &tracer) override
    {
        std::error_code ec;
        fs::remove_all(workdir_, ec);
        fs::create_directories(workdir_);
        apps_.clear();
        pool_.clear();
        for (const char *name : kApps) {
            Tracer::Scope span(tracer, "workloads.build");
            workloads::SizeParams size;
            size.scale = kScale;
            apps_.push_back(workloads::makeByName(name, size));
        }
        warm_ = std::make_unique<harness::ResultStore>(workdir_ + "/warm");
        for (int a = 0; a < static_cast<int>(apps_.size()); ++a)
            for (int variant = 0; variant < 2; ++variant)
                for (bool clustered : {false, true})
                    fill(a, variant, clustered);

        Rng rng(seed_);
        orders_.assign(kSweeps, std::vector<int>(pool_.size()));
        for (std::vector<int> &order : orders_) {
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = static_cast<int>(i);
            rng.shuffle(order);
        }
        passes_ = 0;
    }

    void
    prepareChecks() override
    {
        for (PoolEntry &e : pool_) {
            const workloads::Workload &w = apps_[static_cast<size_t>(e.app)];
            bool hit = false;
            harness::runStoredWorkload(w, e.spec, kScale, warm_.get(), &hit);
            e.key = harness::jobKeyFor(w, e.spec, kScale);
            if (!hit || !warm_->get(e.key, e.text) ||
                !harness::JobResult::fromJson(e.text, e.result))
                throw std::runtime_error("store fill: " + e.label +
                                         " does not read back");
        }
    }

    Pass
    runPass(Tracer &tracer) override
    {
        Pass pass;
        counters_.clear();
        for (int sweep = 0; sweep < kSweeps; ++sweep) {
            const std::string dir = workdir_ + "/pass" +
                                    std::to_string(passes_) + "-" +
                                    std::to_string(sweep);
            const std::vector<int> &order =
                orders_[static_cast<size_t>(sweep)];
            std::vector<double> job_ms(pool_.size(), 0.0);
            harness::ResultStore cold(dir);
            for (Step step : {ColdPrescan, Dispatch, FillCycles})
                for (int index : order)
                    job_ms[static_cast<size_t>(index)] +=
                        op(tracer, cold, step, index, pass);
            harness::ResultStore warm(dir);
            for (int index : order)
                job_ms[static_cast<size_t>(index)] +=
                    op(tracer, warm, WarmPrescan, index, pass);
            for (int index : order)
                pass.sections.push_back(
                    {job_ms[static_cast<size_t>(index)], true});

            // Two of the four reads per job are due to hit.
            counters_["harness.store.hit_frac"] +=
                static_cast<double>(cold.stats().hits + warm.stats().hits);
            counters_["harness.store.bad"] +=
                static_cast<double>(cold.stats().bad + warm.stats().bad);
            counters_["harness.store.writes"] +=
                static_cast<double>(cold.stats().writes);
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
        counters_["harness.store.hit_frac"] /=
            2.0 * kSweeps * static_cast<double>(pool_.size());
        ++passes_;
        return pass;
    }

    Metrics counters() const override { return counters_; }

  private:
    enum Step
    {
        ColdPrescan,
        Dispatch,
        FillCycles,
        WarmPrescan,
    };

    /** One farm step for pool entry @p index: timed, then checked.
     *  @return its time in milliseconds. */
    double
    op(Tracer &tracer, harness::ResultStore &store, Step step, int index,
       Pass &pass)
    {
        const PoolEntry &e = pool_[static_cast<size_t>(index)];
        const workloads::Workload &w = apps_[static_cast<size_t>(e.app)];
        ++pass.attempted;
        tracer.newJob();
        std::string key, text;
        harness::JobResult decoded;
        bool hit = false, parsed = false, put = false;
        const std::int64_t t0 = nowNs();
        {
            Tracer::Scope root(tracer, "job");
            if (step == FillCycles) {
                key = e.key;    // the farm keeps the prescan's key
            } else {
                Tracer::Scope span(tracer, "harness.job.key");
                key = harness::jobKeyFor(w, e.spec, kScale);
            }
            {
                Tracer::Scope span(tracer, "harness.store.get");
                hit = store.get(key, text);
            }
            if (step == Dispatch && !hit) {
                {
                    Tracer::Scope span(tracer, "harness.job.codec");
                    text = e.result.toJson();
                }
                Tracer::Scope span(tracer, "harness.store.put");
                put = store.put(key, text);
            } else if (hit) {
                Tracer::Scope span(tracer, "harness.job.codec");
                parsed = harness::JobResult::fromJson(text, decoded);
            }
        }
        const double ms = static_cast<double>(nowNs() - t0) / 1e6;

        const bool miss_due = step == ColdPrescan || step == Dispatch;
        const char *what = nullptr;
        if (key != e.key)
            what = "job key differs from the stored entry's";
        else if (miss_due && hit)
            what = "store hit where a miss was due";
        else if (step == Dispatch && (!put || text != e.text))
            what = "put failed, or the re-serialized result differs from "
                   "the stored one";
        else if (!miss_due && !hit)
            what = "store miss where a hit was due";
        else if (!miss_due &&
                 (!parsed || !decoded.ok || decoded.toJson() != e.text))
            what = "entry does not decode to the stored result";
        if (what != nullptr)
            pass.failures.push_back({e.label, what, false});
        return ms;
    }

    void
    fill(int app, int variant, bool clustered)
    {
        PoolEntry e;
        e.app = app;
        e.spec.clustered = clustered;
        if (variant == 1) {
            e.spec.config.hier.l2.numMshrs = 4;
            e.spec.config.core.windowSize = 32;
        }
        e.label = std::string(kApps[app]) + (variant ? "/mshr4w32/" : "/") +
                  (clustered ? "clust" : "base");
        bool hit = true;
        harness::runStoredWorkload(apps_[static_cast<size_t>(app)], e.spec,
                                   kScale, warm_.get(), &hit);
        if (hit)
            throw std::runtime_error("store fill: " + e.label +
                                     " hit a store that should be empty");
        pool_.push_back(std::move(e));
    }

    std::uint64_t seed_;
    std::string workdir_;
    std::vector<workloads::Workload> apps_;
    std::unique_ptr<harness::ResultStore> warm_;
    std::vector<PoolEntry> pool_;
    std::vector<std::vector<int>> orders_;  ///< per sweep, pool indices
    int passes_ = 0;
    Metrics counters_;
};

} // namespace

std::unique_ptr<Workload>
makeStoreMixed(std::uint64_t seed, const std::string &workdir)
{
    return std::make_unique<StoreMixed>(seed, workdir);
}

} // namespace perfbench
