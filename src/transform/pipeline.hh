/**
 * @file
 * The pass pipeline: a named, data-driven sequence of transformation
 * passes (pass.hh) with optional per-pass verification.
 *
 * Pipelines are specified as comma-separated pass names resolved
 * through the string-keyed PassRegistry ("fuse,cluster,prefetch"), so
 * the harness, the benches, `mpclust --pipeline=<spec>`, and the
 * mpctune autotuner all select transformation variants through one
 * factory. The default spec reproduces the old applyClustering driver
 * exactly.
 *
 * Knob grammar: a pass name may carry per-pass knobs in parentheses,
 * e.g. "cluster(maxDegree=8),prefetch(dist=4)". Each knob maps onto
 * the DriverParams field the pass reads — cluster(maxDegree) caps the
 * unroll-and-jam binary search (DriverParams::maxUnroll),
 * inner-unroll(factor) caps the window-constraint unroll
 * (maxInnerUnroll), prefetch(dist) sets the prefetch distance in lines
 * (prefetchDistanceLines). Knobs are applied to a copy of the caller's
 * DriverParams at the start of run(), so a knob-carrying spec is a
 * self-contained description of a transformation variant — exactly
 * what the autotuner searches over and hashes into its cache keys.
 * Whitespace around names, knobs, and values is tolerated; duplicate
 * pass names, empty entries, unknown knobs, and non-positive values
 * are rejected with the offending token named.
 *
 * Verification (MPC_VERIFY_PASSES=1, or VerifyMode set explicitly):
 * after every pass the pipeline runs the ir::verify() structural
 * checker and — when the kernel is evaluable — after every pass that
 * changed the kernel a functional equivalence check against the
 * pre-pipeline kernel; an unchanged kernel keeps the last checksum.
 * "Changed" means unequal under ir::Kernel's full structural equality
 * to a clone of the last kernel executed; the passes' own action
 * counts are not trusted. The check clones the kernel, initializes
 * memory (through Pipeline::initMemory or a deterministic synthetic
 * fill), lowers the kernel and executes it on the KISA tier selected
 * by MPC_EXEC_TIER (kernels containing FlagWait fall back to the IR
 * evaluator, whose sequential semantics treat waits as no-ops), and
 * the array checksum must match the pre-pipeline checksum — both
 * sides always from the same engine. Since every pass must be
 * semantics-preserving, comparing each post-pass checksum to the
 * pipeline-input checksum names the first failing pass. On failure
 * the offending IR is dumped (MPC_VERIFY_DUMP, or verify_ir_dump.txt)
 * and the run panics naming the pass.
 */

#ifndef MPC_TRANSFORM_PIPELINE_HH
#define MPC_TRANSFORM_PIPELINE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kisa/memimage.hh"
#include "transform/pass.hh"

namespace mpc::transform
{

/**
 * Global name -> pass table. Passes register once (at first use) and
 * live for the process; Pipeline holds borrowed pointers into it.
 */
class PassRegistry
{
  public:
    static PassRegistry &instance();

    void add(std::unique_ptr<Pass> pass);
    bool has(const std::string &name) const;
    Pass *find(const std::string &name) const;
    std::vector<std::string> names() const;

    /**
     * The registered pass's name() with process-lifetime storage —
     * safe to hand to the obs tracer, which keeps event-name pointers.
     */
    const char *stableName(const std::string &name) const;

  private:
    std::map<std::string, std::unique_ptr<Pass>> passes_;
};

/** Registers the built-in clustering passes (defined in passes.cc). */
void registerBuiltinPasses(PassRegistry &registry);

/** Post-pass checking policy. */
enum class VerifyMode
{
    FromEnv,    ///< MPC_VERIFY_PASSES=1 ? Panic : Off
    Off,
    Panic,      ///< dump the offending IR and panic naming the pass
    Record,     ///< record the failure, abort remaining passes
};

/** One parsed per-pass knob: pass(name=value). */
struct PassKnob
{
    std::string pass;
    std::string name;
    int value = 0;
};

class Pipeline
{
  public:
    /**
     * Resolve a comma-separated pass spec ("fuse,cluster,prefetch",
     * optionally with per-pass knobs: "cluster(maxDegree=8)") against
     * the registry. Rejects an empty spec, unknown names, duplicates,
     * and malformed or unknown knobs, naming the offending token.
     * @return false with @p error set on failure.
     */
    static bool parse(const std::string &spec, Pipeline &out,
                      std::string &error);

    std::vector<std::string> passNames() const;

    /** The parsed knobs, in spec order. */
    const std::vector<PassKnob> &knobs() const { return knobs_; }

    /**
     * Canonical spec string: pass names joined by commas, knobs
     * rendered as name(knob=value,...) with no whitespace. parse() of
     * the result reproduces this pipeline; autotune cache keys hash it.
     */
    std::string spec() const;

    /** Overwrite the DriverParams fields the parsed knobs name (the
     *  same application run() performs on its own copy). */
    void applyKnobs(DriverParams &params) const;

    /**
     * Run the passes in order; @return the accumulated report.
     * Assigns refIds first and clears loop marks afterwards, like the
     * old driver.
     */
    PipelineReport run(ir::Kernel &kernel,
                       const DriverParams &params) const;

    VerifyMode verifyMode = VerifyMode::FromEnv;

    /**
     * Memory initializer for the equivalence check (e.g. the
     * workload's real init). When absent, a deterministic synthetic
     * fill is used for kernels simple enough to evaluate blindly;
     * other kernels get the structural check only.
     */
    std::function<void(kisa::MemoryImage &)> initMemory;

    /** Called after every pass (e.g. mpclust --dump-ir). */
    std::function<void(const std::string &pass, const ir::Kernel &)>
        afterPass;

  private:
    std::vector<Pass *> passes_;
    std::vector<PassKnob> knobs_;
};

/** The spec reproducing the old applyClustering driver. */
std::string defaultPipelineSpec();

/**
 * The default spec with the passes gated by the old DriverParams
 * enable* flags removed when disabled (how applyClustering honors
 * them), carrying knobs for any knob-backed field that differs from
 * its default (e.g. "cluster(maxDegree=8)" when maxUnroll is 8).
 * parse() of the result followed by applyKnobs() reproduces the gated
 * and knob-backed fields of @p params — the round-trip the autotuner
 * and its cache keys rely on.
 */
std::string pipelineSpecFromParams(const DriverParams &params);

/**
 * Can the functional-equivalence checksum be computed for @p kernel?
 * True when a real memory initializer is supplied (@p has_init) or the
 * kernel is simple enough for the synthetic fill (counted loops,
 * loop-index subscripts only).
 */
bool functionallyCheckable(const ir::Kernel &kernel, bool has_init);

/**
 * Execute @p kernel functionally and digest its array contents: the
 * same clone + layout + init + run + FNV checksum the per-pass
 * verifier uses, on the engine MPC_EXEC_TIER selects (kernels with
 * FlagWait fall back to the IR evaluator). Two kernels produced by
 * semantics-preserving transformations of one another digest equal.
 * @p engine_name, when non-null, receives "interp" | "threaded" |
 * "evaluator".
 */
std::uint64_t functionalChecksum(
    const ir::Kernel &kernel,
    const std::function<void(kisa::MemoryImage &)> &init,
    std::string *engine_name = nullptr);

} // namespace mpc::transform

#endif // MPC_TRANSFORM_PIPELINE_HH
