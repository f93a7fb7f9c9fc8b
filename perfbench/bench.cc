#include "bench.hh"

#include <algorithm>
#include <stdexcept>

#include "ir/eval.hh"
#include "obs/trace.hh"

namespace perfbench
{

using namespace mpc;

std::map<std::string, Tracer::Time>
Tracer::timesSince(size_t from) const
{
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (size_t i = from; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            child_ms[static_cast<size_t>(spans_[i].parent)] +=
                static_cast<double>(spans_[i].endNs - spans_[i].startNs) /
                1e6;
    std::map<std::string, Time> times;
    for (size_t i = from; i < spans_.size(); ++i) {
        const double ms =
            static_cast<double>(spans_[i].endNs - spans_[i].startNs) / 1e6;
        Time &t = times[spans_[i].name];
        t.inclusiveMs += ms;
        t.selfMs += ms - child_ms[i];
    }
    return times;
}

bool
Tracer::write(const std::string &path, size_t max_spans) const
{
    obs::Tracer out(std::min(max_spans, spans_.size()));
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    for (const Span &s : spans_)
        out.span(static_cast<Tick>(s.startNs - t0),
                 static_cast<Tick>(s.endNs - t0), 0, s.name,
                 static_cast<std::uint64_t>(s.job + 1),
                 static_cast<std::uint64_t>(s.parent + 1));
    return out.dumpChromeJson(path);
}

std::uint64_t
referenceChecksum(const workloads::Workload &workload,
                  kisa::MemoryImage &initial)
{
    ir::Evaluator evaluator(workload.kernel, initial);
    evaluator.run();
    return ir::checksumArrays(workload.kernel, initial);
}

transform::Pipeline
parsePipeline(const std::string &spec)
{
    transform::Pipeline pipeline;
    std::string error;
    if (!transform::Pipeline::parse(spec, pipeline, error))
        throw std::runtime_error("pipeline spec '" + spec + "': " + error);
    return pipeline;
}

void
partitionKernel(ir::Kernel &kernel)
{
    transform::Pipeline partition = parsePipeline("partition");
    partition.verifyMode = transform::VerifyMode::Off;
    partition.run(kernel, transform::DriverParams{});
}

void
addPipelineCounters(Metrics &m, const transform::PipelineReport &report)
{
    for (const auto &pass : report.passes) {
        m[pass.skipped ? "transform.passes_skipped"
                       : "transform.passes_run"] += 1;
        m["transform.actions"] += pass.actions;
    }
    m["transform.verify_failures"] +=
        static_cast<double>(report.verifyFailures.size());
}

} // namespace perfbench
