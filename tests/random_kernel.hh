/**
 * @file
 * Seeded random affine loop nests shared by the property tests (which
 * check functional equivalence across transformations) and the timing
 * golden tests (which pin the cycle simulator's output on them).
 */

#ifndef MPC_TESTS_RANDOM_KERNEL_HH
#define MPC_TESTS_RANDOM_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/codegen.hh"
#include "common/rng.hh"
#include "ir/eval.hh"
#include "ir/kernel.hh"
#include "kisa/interp.hh"

namespace mpc::fuzz
{

using namespace mpc::ir;

/** Deterministic random kernel: 2-level nest over 1-3 arrays with
 *  affine accesses whose subscripts provably stay in bounds. */
struct RandomKernel
{
    Kernel kernel;
    std::vector<const Array *> arrays;

    explicit RandomKernel(std::uint64_t seed)
    {
        Rng rng(seed);
        kernel.name = "fuzz" + std::to_string(seed);
        const std::int64_t rows = 6 + std::int64_t(rng.below(12));
        const std::int64_t cols = 6 + std::int64_t(rng.below(18));
        const int narrays = 2 + int(rng.below(2));
        // Margin 4 allows subscript offsets in [-2, +2] with lo >= 2.
        for (int a = 0; a < narrays; ++a) {
            arrays.push_back(kernel.addArray(
                "A" + std::to_string(a), ScalType::F64,
                {rows + 4, cols + 4}));
        }
        kernel.declareScalar("acc", ScalType::F64);

        auto subscript = [&](const char *var) {
            const std::int64_t offset =
                std::int64_t(rng.below(5)) - 2;   // [-2, 2]
            if (offset == 0)
                return varref(var);
            return add(varref(var), iconst(offset));
        };
        auto random_ref = [&]() {
            const Array *arr = arrays[rng.below(arrays.size())];
            std::vector<ExprPtr> subs;
            subs.push_back(subscript("j"));
            subs.push_back(subscript("i"));
            return aref(arr, std::move(subs));
        };

        std::vector<StmtPtr> body;
        const int nstmts = 1 + int(rng.below(3));
        for (int s = 0; s < nstmts; ++s) {
            // dest array 0 only (keeps the nest jam-legal in most
            // draws); value mixes two reads and a constant.
            std::vector<ExprPtr> dst_subs;
            dst_subs.push_back(varref("j"));
            dst_subs.push_back(varref("i"));
            ExprPtr value = add(
                mul(random_ref(), fconst(0.5 + rng.uniform())),
                random_ref());
            if (rng.below(2))
                value = add(std::move(value), varref("acc"));
            body.push_back(assign(aref(arrays[0], std::move(dst_subs)),
                                  std::move(value)));
        }

        std::vector<StmtPtr> outer_body;
        outer_body.push_back(forLoop("i", iconst(2),
                                     iconst(2 + cols), std::move(body)));
        kernel.body.push_back(forLoop("j", iconst(2), iconst(2 + rows),
                                      std::move(outer_body)));
        assignRefIds(kernel);
        layoutArrays(kernel);
    }

    void
    fill(kisa::MemoryImage &mem, std::uint64_t seed) const
    {
        Rng rng(seed * 77 + 5);
        for (const auto &array : kernel.arrays)
            for (std::int64_t e = 0; e < array.numElems(); ++e)
                mem.stF64(array.base + Addr(e) * 8, rng.uniform());
    }

    std::uint64_t
    evalChecksum(const Kernel &k) const
    {
        kisa::MemoryImage mem;
        fill(mem, 1);
        Evaluator ev(k, mem);
        ev.run();
        return checksumArrays(k, mem);
    }

    std::uint64_t
    interpChecksum(const Kernel &k, bool clustered) const
    {
        kisa::MemoryImage mem;
        fill(mem, 1);
        codegen::CodegenOptions options;
        options.clusteredSchedule = clustered;
        auto program = codegen::lower(k, options);
        kisa::Interpreter interp(mem);
        interp.addCore(program);
        interp.run(1u << 28);
        return checksumArrays(k, mem);
    }
};

} // namespace mpc::fuzz

#endif // MPC_TESTS_RANDOM_KERNEL_HH
