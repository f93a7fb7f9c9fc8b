/**
 * @file
 * Fundamental scalar types shared by the simulator and the compiler.
 */

#ifndef MPC_COMMON_TYPES_HH
#define MPC_COMMON_TYPES_HH

#include <cstdint>

namespace mpc
{

/** Simulated time, measured in processor clock cycles. */
using Tick = std::uint64_t;

/** A simulated physical byte address. */
using Addr = std::uint64_t;

/** Identifier of a node (processor + caches + memory slice) in the system. */
using NodeId = int;

/** Sentinel for "no tick scheduled". */
constexpr Tick maxTick = ~Tick(0);

/** Sentinel for an invalid address. */
constexpr Addr invalidAddr = ~Addr(0);

/**
 * Round @p value down to a multiple of @p align (a power of two).
 */
constexpr Addr
alignDown(Addr value, Addr align)
{
    return value & ~(align - 1);
}

/**
 * Round @p value up to a multiple of @p align (a power of two).
 */
constexpr Addr
alignUp(Addr value, Addr align)
{
    return (value + align - 1) & ~(align - 1);
}

/** Integer ceiling division for non-negative operands. */
constexpr std::int64_t
ceilDiv(std::int64_t num, std::int64_t den)
{
    return (num + den - 1) / den;
}

/** True if @p value is a power of two (and non-zero). */
constexpr bool
isPowerOf2(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Floor of log2 for a power-of-two value. */
constexpr int
log2Floor(std::uint64_t value)
{
    int result = 0;
    while (value > 1) {
        value >>= 1;
        ++result;
    }
    return result;
}

// Two's-complement int64 arithmetic for the KISA tiers and the IR
// evaluator: signed overflow is undefined behaviour in C++, so these
// compute through uint64_t and wrap. Division by zero yields 0, and
// INT64_MIN / -1 yields INT64_MIN (the wrapped quotient, remainder 0).
constexpr std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

constexpr std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

constexpr std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

constexpr std::int64_t
wrapDiv(std::int64_t a, std::int64_t b)
{
    return b == 0 ? 0 : b == -1 ? wrapSub(0, a) : a / b;
}

constexpr std::int64_t
wrapRem(std::int64_t a, std::int64_t b)
{
    return b == 0 || b == -1 ? 0 : a % b;
}

} // namespace mpc

#endif // MPC_COMMON_TYPES_HH
