#include "kisa/interp.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mpc::kisa
{

StepResult
step(const Program &program, int pc, RegFile &regs, MemoryImage &mem)
{
    MPC_ASSERT(pc >= 0 && pc < static_cast<int>(program.code.size()),
               "pc out of range");
    const Instr &in = program.code[pc];
    StepResult res;
    res.nextPc = pc + 1;

    auto &ir = regs.intRegs;
    auto &fr = regs.fpRegs;

    switch (in.op) {
      case Op::Nop:
        break;
      case Op::IAdd: ir[in.rd] = wrapAdd(ir[in.ra], ir[in.rb]); break;
      case Op::ISub: ir[in.rd] = wrapSub(ir[in.ra], ir[in.rb]); break;
      case Op::IMul: ir[in.rd] = wrapMul(ir[in.ra], ir[in.rb]); break;
      case Op::IDiv:
        ir[in.rd] = in.rb != noReg ? wrapDiv(ir[in.ra], ir[in.rb]) : 0;
        break;
      case Op::IRem:
        ir[in.rd] = in.rb != noReg ? wrapRem(ir[in.ra], ir[in.rb]) : 0;
        break;
      case Op::IAnd: ir[in.rd] = ir[in.ra] & ir[in.rb]; break;
      case Op::IOr: ir[in.rd] = ir[in.ra] | ir[in.rb]; break;
      case Op::IXor: ir[in.rd] = ir[in.ra] ^ ir[in.rb]; break;
      case Op::IShl: ir[in.rd] = ir[in.ra] << (ir[in.rb] & 63); break;
      case Op::IShr:
        ir[in.rd] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(ir[in.ra]) >> (ir[in.rb] & 63));
        break;
      case Op::ICmpLt: ir[in.rd] = ir[in.ra] < ir[in.rb] ? 1 : 0; break;
      case Op::ICmpEq: ir[in.rd] = ir[in.ra] == ir[in.rb] ? 1 : 0; break;
      case Op::IMin: ir[in.rd] = std::min(ir[in.ra], ir[in.rb]); break;
      case Op::IMax: ir[in.rd] = std::max(ir[in.ra], ir[in.rb]); break;
      case Op::IAddImm: ir[in.rd] = wrapAdd(ir[in.ra], in.imm); break;
      case Op::IMulImm: ir[in.rd] = wrapMul(ir[in.ra], in.imm); break;
      case Op::IShlImm: ir[in.rd] = ir[in.ra] << (in.imm & 63); break;
      case Op::IAndImm: ir[in.rd] = ir[in.ra] & in.imm; break;
      case Op::ILoadImm: ir[in.rd] = in.imm; break;

      case Op::FAdd: fr[in.rd] = fr[in.ra] + fr[in.rb]; break;
      case Op::FSub: fr[in.rd] = fr[in.ra] - fr[in.rb]; break;
      case Op::FMul: fr[in.rd] = fr[in.ra] * fr[in.rb]; break;
      case Op::FDiv: fr[in.rd] = fr[in.ra] / fr[in.rb]; break;
      case Op::FSqrt: fr[in.rd] = std::sqrt(fr[in.ra]); break;
      case Op::FNeg: fr[in.rd] = -fr[in.ra]; break;
      case Op::FAbs: fr[in.rd] = std::fabs(fr[in.ra]); break;
      case Op::FMin: fr[in.rd] = std::min(fr[in.ra], fr[in.rb]); break;
      case Op::FMax: fr[in.rd] = std::max(fr[in.ra], fr[in.rb]); break;
      case Op::FMov: fr[in.rd] = fr[in.ra]; break;
      case Op::FLoadImm:
        fr[in.rd] = std::bit_cast<double>(in.imm);
        break;
      case Op::CvtIF: fr[in.rd] = static_cast<double>(ir[in.ra]); break;
      case Op::CvtFI:
        ir[in.rd] = static_cast<std::int64_t>(fr[in.ra]);
        break;

      case Op::Prefetch: {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[in.ra], in.imm));
        // Nonbinding: reported as a load for cache-warming observers,
        // no architectural effect.
        res.isMem = true;
        res.isLoad = true;
        res.memAddr = addr;
        break;
      }
      case Op::LdI: {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[in.ra], in.imm));
        ir[in.rd] = static_cast<std::int64_t>(mem.ld64(addr));
        res.isMem = true;
        res.isLoad = true;
        res.memAddr = addr;
        break;
      }
      case Op::LdF: {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[in.ra], in.imm));
        fr[in.rd] = mem.ldF64(addr);
        res.isMem = true;
        res.isLoad = true;
        res.memAddr = addr;
        break;
      }
      case Op::StI: {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[in.ra], in.imm));
        mem.st64(addr, static_cast<std::uint64_t>(ir[in.rb]));
        res.isMem = true;
        res.memAddr = addr;
        break;
      }
      case Op::StF: {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[in.ra], in.imm));
        mem.stF64(addr, fr[in.rb]);
        res.isMem = true;
        res.memAddr = addr;
        break;
      }

      case Op::BEq:
        res.branchTaken = ir[in.ra] == ir[in.rb];
        if (res.branchTaken)
            res.nextPc = in.target;
        break;
      case Op::BNe:
        res.branchTaken = ir[in.ra] != ir[in.rb];
        if (res.branchTaken)
            res.nextPc = in.target;
        break;
      case Op::BLt:
        res.branchTaken = ir[in.ra] < ir[in.rb];
        if (res.branchTaken)
            res.nextPc = in.target;
        break;
      case Op::BGe:
        res.branchTaken = ir[in.ra] >= ir[in.rb];
        if (res.branchTaken)
            res.nextPc = in.target;
        break;
      case Op::Jmp:
        res.branchTaken = true;
        res.nextPc = in.target;
        break;

      case Op::Barrier:
        res.isBarrier = true;
        break;
      case Op::FlagWait: {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[in.ra], in.imm));
        const auto value = static_cast<std::int64_t>(mem.ld64(addr));
        if (value < ir[in.rb]) {
            res.syncBlocked = true;
            res.nextPc = pc;
        } else {
            res.isMem = true;
            res.isLoad = true;
            res.memAddr = addr;
        }
        break;
      }
      case Op::Halt:
        res.halted = true;
        res.nextPc = pc;
        break;
    }
    return res;
}

int
Interpreter::addCore(const Program &program)
{
    CoreState state;
    state.program = &program;
    cores_.push_back(std::move(state));
    return static_cast<int>(cores_.size()) - 1;
}

std::uint64_t
Interpreter::run(std::uint64_t max_steps)
{
    if (memHook_) {
        return runWithHook(
            [this](int core, const Instr &instr, Addr addr,
                   bool is_load) {
                memHook_(core, instr, addr, is_load);
            },
            max_steps);
    }
    struct NoHook
    {
        void operator()(int, const Instr &, Addr, bool) const {}
    };
    return runWithHook(NoHook{}, max_steps);
}

std::uint64_t
Interpreter::instrCount(int core) const
{
    return cores_[static_cast<size_t>(core)].instrs;
}

} // namespace mpc::kisa
