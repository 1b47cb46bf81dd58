/**
 * @file
 * Runtime ISA dispatch for the hot SIMD kernels.
 *
 * simd.h selects its backend at *compile* time, which leaves a default
 * (portable) binary on the SSE2 floor even when the host CPU has AVX2
 * or AVX-512.  This layer fixes that: the same kernels are compiled
 * again in dedicated per-ISA translation units
 * (util/simd_kernels_{avx2,avx512}.cc, built with -mavx2 / -mavx512f
 * and isolated by the ABI inline namespaces of simd.h/numeric.h), each
 * exposing a table of C function pointers through an always-defined
 * accessor (an explicit symbol reference, not static-init
 * registration, which a static-library link would dead-strip along
 * with the unreferenced object file).  At first use, activeKernels()
 * CPUID-gates the candidate tables (__builtin_cpu_supports) and picks
 * the widest one the host can run; the baseline table — whatever ISA
 * the rest of the binary targets — is always available as the floor.
 *
 * Dispatch is safe *because of* the bit-exactness contract of simd.h:
 * every backend produces bit-identical results, so the choice of table
 * affects speed only, never output.  Callers on the block hot path
 * hoist `const KernelTable &k = activeKernels()` once and then pay one
 * indirect call per kernel invocation.
 *
 * The dispatched surface is the array-shaped hot path: the root-pass
 * slot program and the flow pass (one call walks a whole compiled
 * circuit over one 8-row block, upward or upward and downward) and the
 * reduction merges.
 * Lane-op-heavy code that inlines pack primitives directly (the HMM
 * leaf batches, core/flat.cc) keeps the compile-time backend — a
 * function-pointer boundary per lane op would cost more than the wider
 * registers buy; REASON_NATIVE builds (one CI leg) cover those at full
 * width.
 */

#ifndef REASON_UTIL_SIMD_DISPATCH_H
#define REASON_UTIL_SIMD_DISPATCH_H

#include <cstddef>
#include <cstdint>

namespace reason {
namespace simd {

struct SlotProgram;
struct FlowProgram;
struct FlowTotals;

/**
 * One ISA's kernel entry points.  All functions follow the exact
 * semantics of their simd.h namesakes.  Only plain arrays and the
 * ABI-independent SlotProgram, FlowProgram and FlowTotals views cross
 * this boundary: Pack types differ per ABI namespace.
 */
struct KernelTable
{
    /** Backend name: "avx512f", "avx2", "sse2", "neon", "scalar". */
    const char *isa;
    void (*addInto)(double *dst, const double *src, size_t n);
    /** simd::runSlotProgram: the whole walk runs in this ISA. */
    bool (*runSlotProgram)(const SlotProgram &program,
                           const uint32_t *const *rows, double *slots,
                           double *out);
    /** simd::runFlowBlock: a whole upward-and-downward flow pass over
     *  one block runs in this ISA. */
    bool (*runFlowBlock)(const FlowProgram &program,
                         const uint32_t *const *rows, size_t live,
                         double *scratch, double *rootLog,
                         const FlowTotals &totals);
};

/**
 * The widest CPUID-supported kernel table in this binary, selected
 * once on first call (thread-safe; subsequent calls are a load).
 */
const KernelTable &activeKernels();

/** ISA name of the runtime-selected kernels (activeKernels().isa). */
const char *activeIsaName();

/**
 * All tables this binary carries that the host CPU can run, baseline
 * first (for the cross-ISA agreement tests).  Writes up to `maxOut`
 * pointers into `out`; returns the count written.
 */
size_t runnableKernelTables(const KernelTable **out, size_t maxOut);

namespace detail {

/**
 * Per-ISA table accessors, defined (always, so the dispatcher can
 * reference them unconditionally) by the kernel TUs; nullptr when the
 * table is compiled out — wrong architecture, toolchain without the
 * ISA, scalar-forced build, or subsumed by a wider baseline.
 */
const KernelTable *avx2KernelTable();
const KernelTable *avx512KernelTable();

} // namespace detail

} // namespace simd
} // namespace reason

#endif // REASON_UTIL_SIMD_DISPATCH_H
