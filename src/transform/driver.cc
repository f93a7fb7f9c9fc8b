#include "transform/driver.hh"

#include "common/logging.hh"

namespace mpc::transform
{

DriverReport
applyClustering(ir::Kernel &kernel, const DriverParams &params)
{
    Pipeline pipeline;
    std::string error;
    const bool ok = Pipeline::parse(pipelineSpecFromParams(params),
                                    pipeline, error);
    MPC_ASSERT(ok, "%s", error.c_str());
    return pipeline.run(kernel, params);
}

} // namespace mpc::transform
