/**
 * @file
 * Integration tests for the store-backed execution path and the
 * experiment farm (harness/job.hh runStoredWorkload, harness/farm.hh):
 * warm runs serve every counter the benches print bit-exactly, a
 * killed sweep resumes with zero re-simulation and byte-identical
 * output, worker crashes retry then quarantine, and the job-stream
 * parser rejects malformed lines with a line number.
 *
 * Subprocess-mode tests exec the real mpcfarm binary (path baked in by
 * CMake as MPCFARM_BIN), exactly what `mpcfarm jobs.txt` does.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "harness/farm.hh"
#include "harness/job.hh"
#include "harness/parallel.hh"
#include "harness/store.hh"
#include "workloads/workload.hh"

#include "store_env.hh"

namespace mpc::harness
{
namespace
{

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

Job
latbenchJob(bool clustered)
{
    Job job;
    job.workload = "latbench";
    job.scale = 1;
    job.spec.clustered = clustered;
    return job;
}

std::vector<Job>
pairJobs()
{
    return {latbenchJob(false), latbenchJob(true)};
}

TEST(RunStoredWorkload, WarmRunServesIdenticalCounters)
{
    const test::StoreEnvGuard store_env;
    ResultStore store(freshDir("job_warm"));
    const workloads::SizeParams size{.scale = 1};
    const workloads::Workload w = workloads::makeLatbench(size);
    RunSpec spec;

    bool from_store = true;
    const WorkloadRun cold =
        runStoredWorkload(w, spec, 1, &store, &from_store);
    EXPECT_FALSE(from_store);
    EXPECT_GT(cold.result.cycles, 0u);

    const WorkloadRun warm =
        runStoredWorkload(w, spec, 1, &store, &from_store);
    EXPECT_TRUE(from_store);
    // Everything a figure bench prints must match bit-for-bit.
    EXPECT_EQ(warm.result.cycles, cold.result.cycles);
    EXPECT_EQ(warm.result.instructions, cold.result.instructions);
    EXPECT_EQ(warm.result.busyCycles, cold.result.busyCycles);
    EXPECT_EQ(warm.result.dataReadCycles, cold.result.dataReadCycles);
    EXPECT_EQ(warm.result.busUtilization, cold.result.busUtilization);
    EXPECT_EQ(warm.result.bankUtilization, cold.result.bankUtilization);
    EXPECT_EQ(warm.result.l2ReadMshr.meanLevel(),
              cold.result.l2ReadMshr.meanLevel());
    EXPECT_EQ(warm.result.l2ReadMshr.fracAtLeast(1),
              cold.result.l2ReadMshr.fracAtLeast(1));
    EXPECT_EQ(warm.result.l2TotalMshr.totalTicks(),
              cold.result.l2TotalMshr.totalTicks());
    // The report summary the benches fold in round-trips too.
    EXPECT_EQ(warm.report.toJson(), cold.report.toJson());
    // Manifests match except host, which is blanked in the store.
    EXPECT_EQ(warm.manifestJson, blankManifestHost(cold.manifestJson));
}

TEST(RunJob, UnknownWorkloadFailsSoftly)
{
    Job job;
    job.workload = "no-such-workload";
    const JobResult r = runJob(job, nullptr);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
}

TEST(ParseJobStream, AcceptsJsonlWithCommentsAndNamesBadLines)
{
    std::stringstream good;
    good << "# a comment\n"
         << latbenchJob(false).toJson() << "\n\n"
         << latbenchJob(true).toJson() << "\n";
    std::vector<Job> jobs;
    std::string error;
    ASSERT_TRUE(parseJobStream(good, jobs, error)) << error;
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_FALSE(jobs[0].spec.clustered);
    EXPECT_TRUE(jobs[1].spec.clustered);

    std::stringstream bad;
    bad << latbenchJob(false).toJson() << "\n"
        << "{\"schema\": \"mpc-job-v1\", \"workload\": \"nope\"}\n";
    jobs.clear();
    EXPECT_FALSE(parseJobStream(bad, jobs, error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(Farm, InProcessColdThenWarmIsByteIdenticalWithZeroResim)
{
    const test::StoreEnvGuard store_env;
    ResultStore store(freshDir("farm_warm"));
    const std::vector<Job> jobs = pairJobs();
    FarmOptions opts;
    opts.inProcess = true;

    const FarmReport cold = runFarm(jobs, store, opts);
    EXPECT_EQ(cold.simulated, 2);
    EXPECT_EQ(cold.hits, 0);
    EXPECT_EQ(cold.failed, 0);
    ASSERT_EQ(cold.jobs.size(), 2u);
    EXPECT_GT(cold.jobs[0].cycles, 0u);

    const FarmReport warm = runFarm(jobs, store, opts);
    EXPECT_EQ(warm.simulated, 0);
    EXPECT_EQ(warm.hits, 2);
    // The merged report is byte-identical — hit/miss state must be
    // invisible in it.
    EXPECT_EQ(warm.toString(jobs), cold.toString(jobs));
}

TEST(Farm, KilledSweepResumesFromStoreWithIdenticalOutput)
{
    const test::StoreEnvGuard store_env;
    ResultStore store(freshDir("farm_resume"));
    const std::vector<Job> jobs = pairJobs();

    // "Kill" after one completion: the maxJobs hook stops dispatch at
    // the same place a SIGKILL mid-sweep would.
    FarmOptions killed;
    killed.inProcess = true;
    killed.maxJobs = 1;
    const FarmReport partial = runFarm(jobs, store, killed);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.simulated, 1);

    // Resume: one hit (the completed job), one fresh simulation,
    // nothing re-simulated.
    FarmOptions resume;
    resume.inProcess = true;
    const FarmReport resumed = runFarm(jobs, store, resume);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.hits, 1);
    EXPECT_EQ(resumed.simulated, 1);
    EXPECT_EQ(resumed.failed, 0);

    // And the resumed output matches an uninterrupted cold sweep over
    // a fresh store, byte for byte.
    ResultStore fresh(freshDir("farm_resume_fresh"));
    const FarmReport uninterrupted = runFarm(jobs, fresh, resume);
    EXPECT_EQ(resumed.toString(jobs), uninterrupted.toString(jobs));
}

TEST(Farm, SubprocessWorkersProduceTheSameReportAsInProcess)
{
    const test::StoreEnvGuard store_env;
    ResultStore store(freshDir("farm_subproc"));
    const std::vector<Job> jobs = pairJobs();
    FarmOptions opts;
    opts.workers = 2;
    opts.workerBinary = MPCFARM_BIN;

    const FarmReport cold = runFarm(jobs, store, opts);
    EXPECT_EQ(cold.simulated, 2);
    EXPECT_EQ(cold.failed, 0);

    ResultStore fresh(freshDir("farm_subproc_ref"));
    FarmOptions in_process;
    in_process.inProcess = true;
    const FarmReport reference = runFarm(jobs, fresh, in_process);
    EXPECT_EQ(cold.toString(jobs), reference.toString(jobs));

    // Warm subprocess rerun: all hits, no workers even needed.
    const FarmReport warm = runFarm(jobs, store, opts);
    EXPECT_EQ(warm.hits, 2);
    EXPECT_EQ(warm.simulated, 0);
    EXPECT_EQ(warm.toString(jobs), cold.toString(jobs));
}

TEST(Farm, CrashingWorkerRetriesThenQuarantinesWithoutHanging)
{
    ResultStore store(freshDir("farm_crash"));
    const std::vector<Job> jobs = {latbenchJob(false)};
    FarmOptions opts;
    opts.workers = 1;
    opts.retries = 1;
    opts.workerBinary = MPCFARM_BIN;

    ::setenv("MPC_FARM_TEST_CRASH", "latbench", 1);
    const FarmReport report = runFarm(jobs, store, opts);
    ::unsetenv("MPC_FARM_TEST_CRASH");

    EXPECT_EQ(report.failed, 1);
    ASSERT_EQ(report.jobs.size(), 1u);
    EXPECT_FALSE(report.jobs[0].ok);
    EXPECT_TRUE(report.jobs[0].quarantined);
    // 1 + retries dispatches, no more.
    EXPECT_EQ(report.jobs[0].attempts, 2);
    EXPECT_TRUE(std::filesystem::exists(
        store.dir() + "/quarantine/job_" + report.jobs[0].key +
        ".json"));

    // The quarantine is per-run state, not a poison pill: with the
    // crash injection gone the same job file completes.
    const FarmReport healed = runFarm(jobs, store, opts);
    EXPECT_EQ(healed.failed, 0);
    EXPECT_EQ(healed.simulated, 1);
}

TEST(ParallelRunner, StoreBackedPairsAreIdenticalWarmAndCold)
{
    const std::string dir = freshDir("pairs_store");
    ::setenv("MPC_STORE", dir.c_str(), 1);

    const workloads::SizeParams size{.scale = 1};
    const auto make_jobs = [&size] {
        std::vector<PairJob> jobs(1);
        jobs[0].workload = workloads::makeLatbench(size);
        jobs[0].label = "latbench";
        jobs[0].config = sys::baseConfig();
        jobs[0].procs = 1;
        jobs[0].scale = size.scale;
        return jobs;
    };
    auto cold_jobs = make_jobs();
    const auto cold = runPairsParallel(cold_jobs);
    auto warm_jobs = make_jobs();
    const auto warm = runPairsParallel(warm_jobs);
    ::unsetenv("MPC_STORE");

    ASSERT_EQ(cold.size(), 1u);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_EQ(warm[0].pair.base.result.cycles,
              cold[0].pair.base.result.cycles);
    EXPECT_EQ(warm[0].pair.clust.result.cycles,
              cold[0].pair.clust.result.cycles);
    EXPECT_EQ(warm[0].pair.reductionPct(), cold[0].pair.reductionPct());
    EXPECT_EQ(warm[0].pair.base.result.l2ReadMshr.meanLevel(),
              cold[0].pair.base.result.l2ReadMshr.meanLevel());
}

} // namespace
} // namespace mpc::harness
