/**
 * @file
 * Portable fixed-width SIMD layer for the hot numeric kernels.
 *
 * Every kernel in the flat engines is written against an **8-lane pack
 * of doubles** (`simd::Pack`, matching `pc::CircuitEvaluator::kBlock`),
 * regardless of what the hardware provides.  The backend — selected at
 * compile time from the target ISA — implements the pack with native
 * registers:
 *
 *   | backend | selected when                   | pack storage   |
 *   |---------|---------------------------------|----------------|
 *   | avx512f | `__AVX512F__`                   | 1 × `__m512d`  |
 *   | avx2    | `__AVX2__`                      | 2 × `__m256d`  |
 *   | sse2    | x86-64 baseline (`__SSE2__`)    | 4 × `__m128d`  |
 *   | neon    | `__aarch64__` + `__ARM_NEON`    | 4 × `float64x2_t` |
 *   | scalar  | `REASON_FORCE_SCALAR` or other  | `double[8]`    |
 *
 * **Bit-exactness contract.**  All pack operations are lane-parallel
 * IEEE-754 double operations (no FMA contraction, no reassociation),
 * and the transcendental pair (`expNonPositive`, `logPositive`) is one
 * shared algorithm expressed over the backend primitives — so every
 * backend, including the forced-scalar fallback, produces **bit
 * identical** results lane for lane.  The only order-sensitive
 * operations are the horizontal reductions, which use one documented
 * fixed tree shape (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`) on every
 * backend.  Lanes never interact otherwise, so results are independent
 * of the native register width.
 *
 * **Accuracy contract.**
 *  - `expNonPositive` matches `reason::fastExpNonPositive` (numeric.h)
 *    bit for bit: Cody-Waite reduction + degree-13 Taylor, relative
 *    error ~1e-16 over x <= 0; inputs below -708 clamp to ~5e-308
 *    (never 0).  Inputs must not be NaN; it is exact at x == 0, and
 *    the same reduction holds for positive x up to ~709 (the flow
 *    kernel's log-flow terms exceed 0 where a non-decomposable
 *    circuit's flows exceed 1).
 *  - `logPositive` and its scalar twin `fastLogPositive` implement the
 *    standard fdlibm-style decomposition (x = 2^k · m, m in
 *    [sqrt(2)/2, sqrt(2)), atanh-series remainder): relative error
 *    < 2 ulp over all positive, finite, *normal* inputs.  Zero,
 *    subnormal, negative, and non-finite inputs are out of contract
 *    (no traps or NaNs for +0, but the value is meaningless — callers
 *    mask such lanes).
 *  - `runSlotProgram` (the root-pass kernel, the one upward circuit
 *    kernel) computes in an exponent-tracked linear domain: products
 *    and sums of [1, 2) mantissas with integer exponents, exact
 *    power-of-two alignment, and one `logMantExp` per output.  Its
 *    values agree with the seed log-domain walker (Circuit::evaluate)
 *    to ~1e-15 relative per operation; zero mass is exactly -inf.
 *  - `runFlowBlock` (the flow kernel, the one downward circuit kernel:
 *    EM's E-step, flow pruning and posterior marginals all run it)
 *    runs that root pass upward, then a downward gather with one
 *    `expNonPositive` per sum edge and one `logPositive` per sum node,
 *    flushing flows below the normal range to no flow.  Its flows
 *    agree with the seed walker to 1e-10 (the differential harness),
 *    and its root log values are the root pass's, bit for bit.
 *
 * The vectorizer-resistant reference kernels used by `bench_eval` to
 * measure the SIMD speedup honestly are marked `REASON_NOVECTORIZE`
 * (GCC, whole function) and carry `REASON_NOVECTORIZE_LOOP` on every
 * loop (clang, per loop).
 */

#ifndef REASON_UTIL_SIMD_H
#define REASON_UTIL_SIMD_H

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/numeric.h"

// ---------------------------------------------------------------------------
// Backend selection (compile time).  REASON_FORCE_SCALAR wins so the
// scalar fallback can be exercised on any host.
// ---------------------------------------------------------------------------
#if defined(REASON_FORCE_SCALAR)
#define REASON_SIMD_SCALAR 1
#elif defined(__AVX512F__)
#define REASON_SIMD_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__)
#define REASON_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define REASON_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define REASON_SIMD_NEON 1
#include <arm_neon.h>
#else
#define REASON_SIMD_SCALAR 1
#endif

// ---------------------------------------------------------------------------
// ABI namespace.  Everything below lives in an ISA-keyed *inline*
// namespace, so a translation unit compiled with, say, -mavx2 emits
// its inline kernels under distinct mangled names from the baseline
// TUs.  That is what makes runtime ISA dispatch (simd_dispatch.h) safe:
// the per-ISA kernel TUs can coexist in one binary without the linker
// comdat-folding a wide-ISA instantiation into baseline callers (which
// would SIGILL on narrow hosts).  Ordinary code is unaffected — the
// namespace is inline, so `simd::Pack` etc. resolve as before.
// ---------------------------------------------------------------------------
#if defined(REASON_SIMD_AVX512)
#define REASON_SIMD_ABI abi_avx512f
#elif defined(REASON_SIMD_AVX2)
#define REASON_SIMD_ABI abi_avx2
#elif defined(REASON_SIMD_SSE2)
#define REASON_SIMD_ABI abi_sse2
#elif defined(REASON_SIMD_NEON)
#define REASON_SIMD_ABI abi_neon
#else
#define REASON_SIMD_ABI abi_scalar
#endif

/**
 * Marks a reference kernel the auto-vectorizer must leave scalar.  On
 * GCC the function attribute covers the whole body; clang has no such
 * attribute, so reference kernels must ALSO place
 * REASON_NOVECTORIZE_LOOP immediately before every loop (it disables
 * vectorization for exactly one following loop).
 */
#if defined(__clang__)
#define REASON_NOVECTORIZE
#define REASON_NOVECTORIZE_LOOP _Pragma("clang loop vectorize(disable)")
#elif defined(__GNUC__)
#define REASON_NOVECTORIZE __attribute__((optimize("no-tree-vectorize")))
#define REASON_NOVECTORIZE_LOOP
#else
#define REASON_NOVECTORIZE
#define REASON_NOVECTORIZE_LOOP
#endif

namespace reason {
namespace simd {

/**
 * Plain-array view of a root-pass slot program: the upward pass of a
 * circuit compiled to ops over a small bank of reusable value slots
 * (pc::FlatCircuit derives it; runSlotProgram below runs it).  Ops run
 * in order; each writes one slot and reads only slots written by
 * earlier ops.  An op word packs the op kind (top two bits) and its
 * destination slot.  Sum and product operands, and sum weights, are
 * consumed in op order from their streams, so no per-op offsets are
 * stored.  Defined outside the ABI namespace: it crosses the kernel
 * table boundary (simd_dispatch.h) unchanged.
 */
struct SlotProgram
{
    static constexpr uint32_t kLeaf = 0;
    static constexpr uint32_t kSum = 1;
    static constexpr uint32_t kProduct = 2;
    static constexpr unsigned kKindShift = 30;
    static constexpr uint32_t kSlotMask = (1u << kKindShift) - 1;
    /** Doubles per slot: 8 lane mantissas, then 8 lane exponents. */
    static constexpr size_t kSlotDoubles = 16;

    /** Per op: kind << kKindShift | destination slot. */
    const uint32_t *op = nullptr;
    /** Per op: operand count (sum, product) or leaf index (leaf). */
    const uint32_t *arg = nullptr;
    size_t numOps = 0;
    /** Operand slots of every sum and product, in op order. */
    const uint32_t *operand = nullptr;
    /** Per sum operand, in op order: its edge weight as a mantissa in
     *  [1, 2) and an exponent. */
    const double *weightMant = nullptr;
    const int32_t *weightExp = nullptr;
    /** Per leaf index: the variable the leaf reads. */
    const uint32_t *leafVar = nullptr;
    /** Per leaf index and value: (mantissa, exponent) pairs at
     *  [2 * (leaf * arity + value)]; zero mass is (0, -inf). */
    const double *leafPair = nullptr;
    uint32_t arity = 0;
    /** Row value that marginalizes its variable out. */
    uint32_t missing = 0;
    /** Slots read as outputs, in output order. */
    const uint32_t *output = nullptr;
    size_t numOutputs = 0;
    /** Slots the program uses (scratch: numSlots * kSlotDoubles). */
    size_t numSlots = 0;
};

/**
 * Plain-array view of a flow pass (pc::FlatCircuit derives it;
 * runFlowBlock below runs it): a root-pass program whose one output is
 * the root, the node each of its ops computes, and the circuit's parent
 * transpose.  Crosses the kernel table boundary like SlotProgram.
 */
struct FlowProgram
{
    /** The root-pass program.  Its ops are the nodes the root reaches
     *  over mass-bearing edges, in id order, so the last op is the root. */
    SlotProgram up;
    /** Per op: the node it computes. */
    const uint32_t *opNode = nullptr;
    /** Per node: SlotProgram::kLeaf, kSum or kProduct. */
    const uint8_t *nodeType = nullptr;
    /** Parents of node c: entries [parentOffset[c], parentOffset[c + 1])
     *  of parentNode (the parent) and parentEdge (its forward edge id),
     *  in descending parent order. */
    const uint32_t *parentOffset = nullptr;
    const uint32_t *parentNode = nullptr;
    const uint32_t *parentEdge = nullptr;
    /** Per forward edge: log weight of a sum edge, -inf for weight 0. */
    const double *edgeLogWeight = nullptr;
    size_t numNodes = 0;
};

/** Where runFlowBlock adds its flows: per forward edge, per node, and
 *  per observed leaf value at [leaf index * arity + value]. */
struct FlowTotals
{
    double *edge = nullptr;
    double *node = nullptr;
    double *leaf = nullptr;
};

inline namespace REASON_SIMD_ABI {

/** Lanes per pack — fixed at 8 on every backend (== kBlock rows). */
inline constexpr size_t kLanes = 8;

/**
 * log(m * 2^e) for m in [1, 2) and an integer-valued e: the scalar core
 * of fastLogPositive with the exponent supplied instead of read from
 * the bits, so e may lie far outside the double range.  Whenever
 * m * 2^e is a normal double x, the result is bit-identical to
 * fastLogPositive(x).
 */
inline double
fastLogMantExp(double m, double e)
{
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    // Minimax coefficients of the standard atanh-series remainder.
    constexpr double kLg1 = 6.666666666666735130e-01;
    constexpr double kLg2 = 3.999999999940941908e-01;
    constexpr double kLg3 = 2.857142874366239149e-01;
    constexpr double kLg4 = 2.222219843214978396e-01;
    constexpr double kLg5 = 1.818357216161805012e-01;
    constexpr double kLg6 = 1.531383769920937332e-01;
    constexpr double kLg7 = 1.479819860511658591e-01;
    constexpr double kSqrt2 = 1.41421356237309514547;

    // Renormalize m into [sqrt(2)/2, sqrt(2)); halving is exact.
    const bool big = m > kSqrt2;
    m = big ? m * 0.5 : m;
    const double dk = e + (big ? 1.0 : 0.0);

    const double f = m - 1.0;
    const double s = f / (2.0 + f);
    const double z = s * s;
    const double w = z * z;
    const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const double r = t2 + t1;
    const double hfsq = 0.5 * f * f;
    return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

/**
 * Scalar twin of Pack logPositive: fdlibm-style log for positive,
 * finite, normal x (see the accuracy contract above), bit-identical to
 * it lane for lane.  The scalar log-domain walks (evaluate(), the
 * approximate tier's static bounds) use this.
 */
inline double
fastLogPositive(double x)
{
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    const int64_t k = int64_t(bits >> 52) - 1023;
    const double m = std::bit_cast<double>(
        (bits & 0x000FFFFFFFFFFFFFull) | 0x3FF0000000000000ull);
    return fastLogMantExp(m, double(k));
}

// ---------------------------------------------------------------------------
// Backend primitives.  Each backend defines Pack / Mask / PackI and the
// same minimal operation set; everything above this layer is generic.
// ---------------------------------------------------------------------------

#if defined(REASON_SIMD_AVX512)

inline constexpr const char *kIsaName = "avx512f";
inline constexpr unsigned kNativeLanes = 8;

struct Pack
{
    __m512d v;
};
struct Mask
{
    __mmask8 m;
};
struct PackI
{
    __m512i v;
};

inline Pack splat(double x) { return {_mm512_set1_pd(x)}; }
inline Pack load(const double *p) { return {_mm512_loadu_pd(p)}; }
inline void store(double *p, Pack a) { _mm512_storeu_pd(p, a.v); }
inline Pack add(Pack a, Pack b) { return {_mm512_add_pd(a.v, b.v)}; }
inline Pack sub(Pack a, Pack b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline Pack mul(Pack a, Pack b) { return {_mm512_mul_pd(a.v, b.v)}; }
inline Pack div(Pack a, Pack b) { return {_mm512_div_pd(a.v, b.v)}; }
inline Pack max(Pack a, Pack b) { return {_mm512_max_pd(a.v, b.v)}; }
inline Pack min(Pack a, Pack b) { return {_mm512_min_pd(a.v, b.v)}; }
inline Mask cmpEq(Pack a, Pack b)
{
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_EQ_OQ)};
}
inline Mask cmpGt(Pack a, Pack b)
{
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ)};
}
inline Pack select(Mask c, Pack ifTrue, Pack ifFalse)
{
    return {_mm512_mask_blend_pd(c.m, ifFalse.v, ifTrue.v)};
}
inline PackI toBits(Pack a) { return {_mm512_castpd_si512(a.v)}; }
inline Pack fromBits(PackI a) { return {_mm512_castsi512_pd(a.v)}; }
inline PackI splatI(int64_t x) { return {_mm512_set1_epi64(x)}; }
inline PackI addI(PackI a, PackI b)
{
    return {_mm512_add_epi64(a.v, b.v)};
}
inline PackI subI(PackI a, PackI b)
{
    return {_mm512_sub_epi64(a.v, b.v)};
}
inline PackI andI(PackI a, PackI b)
{
    return {_mm512_and_si512(a.v, b.v)};
}
inline PackI orI(PackI a, PackI b)
{
    return {_mm512_or_si512(a.v, b.v)};
}
template <int K>
inline PackI
shlI(PackI a)
{
    return {_mm512_slli_epi64(a.v, K)};
}
template <int K>
inline PackI
shrI(PackI a)
{
    return {_mm512_srli_epi64(a.v, K)};
}

#elif defined(REASON_SIMD_AVX2)

inline constexpr const char *kIsaName = "avx2";
inline constexpr unsigned kNativeLanes = 4;

struct Pack
{
    __m256d lo, hi;
};
struct Mask
{
    __m256d lo, hi;
};
struct PackI
{
    __m256i lo, hi;
};

inline Pack splat(double x)
{
    const __m256d v = _mm256_set1_pd(x);
    return {v, v};
}
inline Pack load(const double *p)
{
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}
inline void
store(double *p, Pack a)
{
    _mm256_storeu_pd(p, a.lo);
    _mm256_storeu_pd(p + 4, a.hi);
}
inline Pack add(Pack a, Pack b)
{
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
}
inline Pack sub(Pack a, Pack b)
{
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
}
inline Pack mul(Pack a, Pack b)
{
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
}
inline Pack div(Pack a, Pack b)
{
    return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
}
inline Pack max(Pack a, Pack b)
{
    return {_mm256_max_pd(a.lo, b.lo), _mm256_max_pd(a.hi, b.hi)};
}
inline Pack min(Pack a, Pack b)
{
    return {_mm256_min_pd(a.lo, b.lo), _mm256_min_pd(a.hi, b.hi)};
}
inline Mask cmpEq(Pack a, Pack b)
{
    return {_mm256_cmp_pd(a.lo, b.lo, _CMP_EQ_OQ),
            _mm256_cmp_pd(a.hi, b.hi, _CMP_EQ_OQ)};
}
inline Mask cmpGt(Pack a, Pack b)
{
    return {_mm256_cmp_pd(a.lo, b.lo, _CMP_GT_OQ),
            _mm256_cmp_pd(a.hi, b.hi, _CMP_GT_OQ)};
}
inline Pack select(Mask c, Pack ifTrue, Pack ifFalse)
{
    return {_mm256_blendv_pd(ifFalse.lo, ifTrue.lo, c.lo),
            _mm256_blendv_pd(ifFalse.hi, ifTrue.hi, c.hi)};
}
inline PackI toBits(Pack a)
{
    return {_mm256_castpd_si256(a.lo), _mm256_castpd_si256(a.hi)};
}
inline Pack fromBits(PackI a)
{
    return {_mm256_castsi256_pd(a.lo), _mm256_castsi256_pd(a.hi)};
}
inline PackI splatI(int64_t x)
{
    const __m256i v = _mm256_set1_epi64x(x);
    return {v, v};
}
inline PackI addI(PackI a, PackI b)
{
    return {_mm256_add_epi64(a.lo, b.lo), _mm256_add_epi64(a.hi, b.hi)};
}
inline PackI subI(PackI a, PackI b)
{
    return {_mm256_sub_epi64(a.lo, b.lo), _mm256_sub_epi64(a.hi, b.hi)};
}
inline PackI andI(PackI a, PackI b)
{
    return {_mm256_and_si256(a.lo, b.lo), _mm256_and_si256(a.hi, b.hi)};
}
inline PackI orI(PackI a, PackI b)
{
    return {_mm256_or_si256(a.lo, b.lo), _mm256_or_si256(a.hi, b.hi)};
}
template <int K>
inline PackI
shlI(PackI a)
{
    return {_mm256_slli_epi64(a.lo, K), _mm256_slli_epi64(a.hi, K)};
}
template <int K>
inline PackI
shrI(PackI a)
{
    return {_mm256_srli_epi64(a.lo, K), _mm256_srli_epi64(a.hi, K)};
}

#elif defined(REASON_SIMD_SSE2)

inline constexpr const char *kIsaName = "sse2";
inline constexpr unsigned kNativeLanes = 2;

struct Pack
{
    __m128d q[4];
};
struct Mask
{
    __m128d q[4];
};
struct PackI
{
    __m128i q[4];
};

inline Pack
splat(double x)
{
    const __m128d v = _mm_set1_pd(x);
    return {{v, v, v, v}};
}
inline Pack
load(const double *p)
{
    return {{_mm_loadu_pd(p), _mm_loadu_pd(p + 2), _mm_loadu_pd(p + 4),
             _mm_loadu_pd(p + 6)}};
}
inline void
store(double *p, Pack a)
{
    _mm_storeu_pd(p, a.q[0]);
    _mm_storeu_pd(p + 2, a.q[1]);
    _mm_storeu_pd(p + 4, a.q[2]);
    _mm_storeu_pd(p + 6, a.q[3]);
}
#define REASON_SIMD_SSE2_BINOP(name, op)                                  \
    inline Pack name(Pack a, Pack b)                                      \
    {                                                                     \
        return {{op(a.q[0], b.q[0]), op(a.q[1], b.q[1]),                  \
                 op(a.q[2], b.q[2]), op(a.q[3], b.q[3])}};                \
    }
REASON_SIMD_SSE2_BINOP(add, _mm_add_pd)
REASON_SIMD_SSE2_BINOP(sub, _mm_sub_pd)
REASON_SIMD_SSE2_BINOP(mul, _mm_mul_pd)
REASON_SIMD_SSE2_BINOP(div, _mm_div_pd)
REASON_SIMD_SSE2_BINOP(max, _mm_max_pd)
REASON_SIMD_SSE2_BINOP(min, _mm_min_pd)
#undef REASON_SIMD_SSE2_BINOP
inline Mask
cmpEq(Pack a, Pack b)
{
    return {{_mm_cmpeq_pd(a.q[0], b.q[0]), _mm_cmpeq_pd(a.q[1], b.q[1]),
             _mm_cmpeq_pd(a.q[2], b.q[2]),
             _mm_cmpeq_pd(a.q[3], b.q[3])}};
}
inline Mask
cmpGt(Pack a, Pack b)
{
    return {{_mm_cmpgt_pd(a.q[0], b.q[0]), _mm_cmpgt_pd(a.q[1], b.q[1]),
             _mm_cmpgt_pd(a.q[2], b.q[2]),
             _mm_cmpgt_pd(a.q[3], b.q[3])}};
}
inline Pack
select(Mask c, Pack ifTrue, Pack ifFalse)
{
    Pack r;
    for (int i = 0; i < 4; ++i)
        r.q[i] = _mm_or_pd(_mm_and_pd(c.q[i], ifTrue.q[i]),
                           _mm_andnot_pd(c.q[i], ifFalse.q[i]));
    return r;
}
inline PackI
toBits(Pack a)
{
    return {{_mm_castpd_si128(a.q[0]), _mm_castpd_si128(a.q[1]),
             _mm_castpd_si128(a.q[2]), _mm_castpd_si128(a.q[3])}};
}
inline Pack
fromBits(PackI a)
{
    return {{_mm_castsi128_pd(a.q[0]), _mm_castsi128_pd(a.q[1]),
             _mm_castsi128_pd(a.q[2]), _mm_castsi128_pd(a.q[3])}};
}
inline PackI
splatI(int64_t x)
{
    const __m128i v = _mm_set1_epi64x(x);
    return {{v, v, v, v}};
}
inline PackI
addI(PackI a, PackI b)
{
    return {{_mm_add_epi64(a.q[0], b.q[0]), _mm_add_epi64(a.q[1], b.q[1]),
             _mm_add_epi64(a.q[2], b.q[2]),
             _mm_add_epi64(a.q[3], b.q[3])}};
}
inline PackI
subI(PackI a, PackI b)
{
    return {{_mm_sub_epi64(a.q[0], b.q[0]), _mm_sub_epi64(a.q[1], b.q[1]),
             _mm_sub_epi64(a.q[2], b.q[2]),
             _mm_sub_epi64(a.q[3], b.q[3])}};
}
inline PackI
andI(PackI a, PackI b)
{
    return {{_mm_and_si128(a.q[0], b.q[0]), _mm_and_si128(a.q[1], b.q[1]),
             _mm_and_si128(a.q[2], b.q[2]),
             _mm_and_si128(a.q[3], b.q[3])}};
}
inline PackI
orI(PackI a, PackI b)
{
    return {{_mm_or_si128(a.q[0], b.q[0]), _mm_or_si128(a.q[1], b.q[1]),
             _mm_or_si128(a.q[2], b.q[2]), _mm_or_si128(a.q[3], b.q[3])}};
}
template <int K>
inline PackI
shlI(PackI a)
{
    return {{_mm_slli_epi64(a.q[0], K), _mm_slli_epi64(a.q[1], K),
             _mm_slli_epi64(a.q[2], K), _mm_slli_epi64(a.q[3], K)}};
}
template <int K>
inline PackI
shrI(PackI a)
{
    return {{_mm_srli_epi64(a.q[0], K), _mm_srli_epi64(a.q[1], K),
             _mm_srli_epi64(a.q[2], K), _mm_srli_epi64(a.q[3], K)}};
}

#elif defined(REASON_SIMD_NEON)

inline constexpr const char *kIsaName = "neon";
inline constexpr unsigned kNativeLanes = 2;

struct Pack
{
    float64x2_t q[4];
};
struct Mask
{
    uint64x2_t q[4];
};
struct PackI
{
    int64x2_t q[4];
};

inline Pack
splat(double x)
{
    const float64x2_t v = vdupq_n_f64(x);
    return {{v, v, v, v}};
}
inline Pack
load(const double *p)
{
    return {{vld1q_f64(p), vld1q_f64(p + 2), vld1q_f64(p + 4),
             vld1q_f64(p + 6)}};
}
inline void
store(double *p, Pack a)
{
    vst1q_f64(p, a.q[0]);
    vst1q_f64(p + 2, a.q[1]);
    vst1q_f64(p + 4, a.q[2]);
    vst1q_f64(p + 6, a.q[3]);
}
#define REASON_SIMD_NEON_BINOP(name, op)                                  \
    inline Pack name(Pack a, Pack b)                                      \
    {                                                                     \
        return {{op(a.q[0], b.q[0]), op(a.q[1], b.q[1]),                  \
                 op(a.q[2], b.q[2]), op(a.q[3], b.q[3])}};                \
    }
REASON_SIMD_NEON_BINOP(add, vaddq_f64)
REASON_SIMD_NEON_BINOP(sub, vsubq_f64)
REASON_SIMD_NEON_BINOP(mul, vmulq_f64)
REASON_SIMD_NEON_BINOP(div, vdivq_f64)
REASON_SIMD_NEON_BINOP(max, vmaxq_f64)
REASON_SIMD_NEON_BINOP(min, vminq_f64)
#undef REASON_SIMD_NEON_BINOP
inline Mask
cmpEq(Pack a, Pack b)
{
    return {{vceqq_f64(a.q[0], b.q[0]), vceqq_f64(a.q[1], b.q[1]),
             vceqq_f64(a.q[2], b.q[2]), vceqq_f64(a.q[3], b.q[3])}};
}
inline Mask
cmpGt(Pack a, Pack b)
{
    return {{vcgtq_f64(a.q[0], b.q[0]), vcgtq_f64(a.q[1], b.q[1]),
             vcgtq_f64(a.q[2], b.q[2]), vcgtq_f64(a.q[3], b.q[3])}};
}
inline Pack
select(Mask c, Pack ifTrue, Pack ifFalse)
{
    Pack r;
    for (int i = 0; i < 4; ++i)
        r.q[i] = vbslq_f64(c.q[i], ifTrue.q[i], ifFalse.q[i]);
    return r;
}
inline PackI
toBits(Pack a)
{
    return {{vreinterpretq_s64_f64(a.q[0]), vreinterpretq_s64_f64(a.q[1]),
             vreinterpretq_s64_f64(a.q[2]),
             vreinterpretq_s64_f64(a.q[3])}};
}
inline Pack
fromBits(PackI a)
{
    return {{vreinterpretq_f64_s64(a.q[0]), vreinterpretq_f64_s64(a.q[1]),
             vreinterpretq_f64_s64(a.q[2]),
             vreinterpretq_f64_s64(a.q[3])}};
}
inline PackI
splatI(int64_t x)
{
    const int64x2_t v = vdupq_n_s64(x);
    return {{v, v, v, v}};
}
inline PackI
addI(PackI a, PackI b)
{
    return {{vaddq_s64(a.q[0], b.q[0]), vaddq_s64(a.q[1], b.q[1]),
             vaddq_s64(a.q[2], b.q[2]), vaddq_s64(a.q[3], b.q[3])}};
}
inline PackI
subI(PackI a, PackI b)
{
    return {{vsubq_s64(a.q[0], b.q[0]), vsubq_s64(a.q[1], b.q[1]),
             vsubq_s64(a.q[2], b.q[2]), vsubq_s64(a.q[3], b.q[3])}};
}
inline PackI
andI(PackI a, PackI b)
{
    return {{vandq_s64(a.q[0], b.q[0]), vandq_s64(a.q[1], b.q[1]),
             vandq_s64(a.q[2], b.q[2]), vandq_s64(a.q[3], b.q[3])}};
}
inline PackI
orI(PackI a, PackI b)
{
    return {{vorrq_s64(a.q[0], b.q[0]), vorrq_s64(a.q[1], b.q[1]),
             vorrq_s64(a.q[2], b.q[2]), vorrq_s64(a.q[3], b.q[3])}};
}
template <int K>
inline PackI
shlI(PackI a)
{
    return {{vshlq_n_s64(a.q[0], K), vshlq_n_s64(a.q[1], K),
             vshlq_n_s64(a.q[2], K), vshlq_n_s64(a.q[3], K)}};
}
template <int K>
inline PackI
shrI(PackI a)
{
    return {{vreinterpretq_s64_u64(
                 vshrq_n_u64(vreinterpretq_u64_s64(a.q[0]), K)),
             vreinterpretq_s64_u64(
                 vshrq_n_u64(vreinterpretq_u64_s64(a.q[1]), K)),
             vreinterpretq_s64_u64(
                 vshrq_n_u64(vreinterpretq_u64_s64(a.q[2]), K)),
             vreinterpretq_s64_u64(
                 vshrq_n_u64(vreinterpretq_u64_s64(a.q[3]), K))}};
}

#else // REASON_SIMD_SCALAR

inline constexpr const char *kIsaName = "scalar";
inline constexpr unsigned kNativeLanes = 1;

struct Pack
{
    double l[kLanes];
};
struct Mask
{
    bool l[kLanes];
};
struct PackI
{
    int64_t l[kLanes];
};

inline Pack
splat(double x)
{
    Pack r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = x;
    return r;
}
inline Pack
load(const double *p)
{
    Pack r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = p[i];
    return r;
}
inline void
store(double *p, Pack a)
{
    for (size_t i = 0; i < kLanes; ++i)
        p[i] = a.l[i];
}
#define REASON_SIMD_SCALAR_BINOP(name, expr)                              \
    inline Pack name(Pack a, Pack b)                                      \
    {                                                                     \
        Pack r;                                                           \
        for (size_t i = 0; i < kLanes; ++i)                               \
            r.l[i] = (expr);                                              \
        return r;                                                         \
    }
REASON_SIMD_SCALAR_BINOP(add, a.l[i] + b.l[i])
REASON_SIMD_SCALAR_BINOP(sub, a.l[i] - b.l[i])
REASON_SIMD_SCALAR_BINOP(mul, a.l[i] * b.l[i])
REASON_SIMD_SCALAR_BINOP(div, a.l[i] / b.l[i])
REASON_SIMD_SCALAR_BINOP(max, a.l[i] > b.l[i] ? a.l[i] : b.l[i])
REASON_SIMD_SCALAR_BINOP(min, a.l[i] < b.l[i] ? a.l[i] : b.l[i])
#undef REASON_SIMD_SCALAR_BINOP
inline Mask
cmpEq(Pack a, Pack b)
{
    Mask r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = a.l[i] == b.l[i];
    return r;
}
inline Mask
cmpGt(Pack a, Pack b)
{
    Mask r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = a.l[i] > b.l[i];
    return r;
}
inline Pack
select(Mask c, Pack ifTrue, Pack ifFalse)
{
    Pack r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = c.l[i] ? ifTrue.l[i] : ifFalse.l[i];
    return r;
}
inline PackI
toBits(Pack a)
{
    PackI r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = std::bit_cast<int64_t>(a.l[i]);
    return r;
}
inline Pack
fromBits(PackI a)
{
    Pack r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = std::bit_cast<double>(a.l[i]);
    return r;
}
inline PackI
splatI(int64_t x)
{
    PackI r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = x;
    return r;
}
inline PackI
addI(PackI a, PackI b)
{
    PackI r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = a.l[i] + b.l[i];
    return r;
}
inline PackI
subI(PackI a, PackI b)
{
    PackI r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = a.l[i] - b.l[i];
    return r;
}
inline PackI
andI(PackI a, PackI b)
{
    PackI r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = a.l[i] & b.l[i];
    return r;
}
inline PackI
orI(PackI a, PackI b)
{
    PackI r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = a.l[i] | b.l[i];
    return r;
}
template <int K>
inline PackI
shlI(PackI a)
{
    PackI r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = int64_t(uint64_t(a.l[i]) << K);
    return r;
}
template <int K>
inline PackI
shrI(PackI a)
{
    PackI r;
    for (size_t i = 0; i < kLanes; ++i)
        r.l[i] = int64_t(uint64_t(a.l[i]) >> K);
    return r;
}

#endif // backend selection

// ---------------------------------------------------------------------------
// Generic layer: everything below is backend-independent.
// ---------------------------------------------------------------------------

/** First n lanes from p, remaining lanes filled with `fill` (n <= 8). */
inline Pack
loadN(const double *p, size_t n, double fill)
{
    double buf[kLanes];
    for (size_t i = 0; i < kLanes; ++i)
        buf[i] = i < n ? p[i] : fill;
    return load(buf);
}

/** Store only the first n lanes (n <= 8). */
inline void
storeN(double *p, size_t n, Pack a)
{
    double buf[kLanes];
    store(buf, a);
    for (size_t i = 0; i < n; ++i)
        p[i] = buf[i];
}

/**
 * Horizontal sum with the fixed tree shape
 * `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — identical on every
 * backend, so reductions are bit-stable across ISAs too.
 */
inline double
reduceAdd(Pack a)
{
    double b[kLanes];
    store(b, a);
    return ((b[0] + b[1]) + (b[2] + b[3])) +
           ((b[4] + b[5]) + (b[6] + b[7]));
}

/** Horizontal max (order-insensitive; same tree shape for symmetry). */
inline double
reduceMax(Pack a)
{
    double b[kLanes];
    store(b, a);
    const double m01 = b[0] > b[1] ? b[0] : b[1];
    const double m23 = b[2] > b[3] ? b[2] : b[3];
    const double m45 = b[4] > b[5] ? b[4] : b[5];
    const double m67 = b[6] > b[7] ? b[6] : b[7];
    const double lo = m01 > m23 ? m01 : m23;
    const double hi = m45 > m67 ? m45 : m67;
    return lo > hi ? lo : hi;
}

/** Horizontal min (order-insensitive; same tree shape for symmetry). */
inline double
reduceMin(Pack a)
{
    double b[kLanes];
    store(b, a);
    const double m01 = b[0] < b[1] ? b[0] : b[1];
    const double m23 = b[2] < b[3] ? b[2] : b[3];
    const double m45 = b[4] < b[5] ? b[4] : b[5];
    const double m67 = b[6] < b[7] ? b[6] : b[7];
    const double lo = m01 < m23 ? m01 : m23;
    const double hi = m45 < m67 ? m45 : m67;
    return lo < hi ? lo : hi;
}

/** exp(r) for |r| <= ln2/2: fastExpNonPositive's degree-13 Taylor
 *  polynomial in Horner form, lane-parallel. */
inline Pack
expReduced(Pack r)
{
    Pack p = splat(1.0 / 6227020800.0); // 1/13!
    p = add(mul(p, r), splat(1.0 / 479001600.0));
    p = add(mul(p, r), splat(1.0 / 39916800.0));
    p = add(mul(p, r), splat(1.0 / 3628800.0));
    p = add(mul(p, r), splat(1.0 / 362880.0));
    p = add(mul(p, r), splat(1.0 / 40320.0));
    p = add(mul(p, r), splat(1.0 / 5040.0));
    p = add(mul(p, r), splat(1.0 / 720.0));
    p = add(mul(p, r), splat(1.0 / 120.0));
    p = add(mul(p, r), splat(1.0 / 24.0));
    p = add(mul(p, r), splat(1.0 / 6.0));
    p = add(mul(p, r), splat(0.5));
    p = add(mul(p, r), splat(1.0));
    p = add(mul(p, r), splat(1.0));
    return p;
}

/**
 * Lane-parallel `fastExpNonPositive`: bit-identical to the scalar
 * version in numeric.h (same clamp, Cody-Waite split, Horner chain,
 * and exponent assembly — the integer k is recovered from the bits of
 * the shifted value, which equals the scalar int64 cast exactly).
 * Inputs must not be NaN.
 */
inline Pack
expNonPositive(Pack x)
{
    constexpr double kLog2e = 1.4426950408889634074;
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    constexpr double kShift = 6755399441055744.0; // 2^52 + 2^51
    const int64_t kShiftBits = std::bit_cast<int64_t>(kShift);

    x = max(x, splat(-708.0));
    const Pack shift = splat(kShift);
    const Pack t = add(mul(x, splat(kLog2e)), shift);
    const Pack kd = sub(t, shift);
    // t = kShift + k exactly and ulp(t) == 1 in that binade, so the
    // integer k is the bit distance from kShift.
    const PackI k = subI(toBits(t), splatI(kShiftBits));
    const Pack r =
        sub(sub(x, mul(kd, splat(kLn2Hi))), mul(kd, splat(kLn2Lo)));
    const Pack p = expReduced(r);
    const PackI pow2 = shlI<52>(addI(k, splatI(1023)));
    return mul(p, fromBits(pow2));
}

/**
 * exp(x) as a mantissa/exponent pair, for finite x with |x| < 2^50:
 * m in [1, 2) and e an integer-valued double, m * 2^e == exp(x) to
 * ~1e-16 relative, and neither half under- or overflows (a log-weight
 * of -2000 keeps its value).  The Cody-Waite reduction and polynomial
 * of expNonPositive, with no libm call; x == 0 gives exactly (1, 0).
 * Lowering splits every weight and leaf entry with this, so it runs
 * 8 lanes at a time.
 */
inline void
expSplit(Pack x, Pack &m, Pack &e)
{
    constexpr double kLog2e = 1.4426950408889634074;
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    constexpr double kShift = 6755399441055744.0; // 2^52 + 2^51
    const Pack shift = splat(kShift);
    const Pack kd = sub(add(mul(x, splat(kLog2e)), shift), shift);
    const Pack r =
        sub(sub(x, mul(kd, splat(kLn2Hi))), mul(kd, splat(kLn2Lo)));
    const Pack p = expReduced(r); // in [sqrt(2)/2, sqrt(2)]
    const Mask low = cmpGt(splat(1.0), p);
    m = select(low, mul(p, splat(2.0)), p); // exact
    e = sub(kd, select(low, splat(1.0), splat(0.0)));
}

/** Lane-parallel `fastLogMantExp` (same algorithm, same bits). */
inline Pack
logMantExp(Pack m, Pack e)
{
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    constexpr double kLg1 = 6.666666666666735130e-01;
    constexpr double kLg2 = 3.999999999940941908e-01;
    constexpr double kLg3 = 2.857142874366239149e-01;
    constexpr double kLg4 = 2.222219843214978396e-01;
    constexpr double kLg5 = 1.818357216161805012e-01;
    constexpr double kLg6 = 1.531383769920937332e-01;
    constexpr double kLg7 = 1.479819860511658591e-01;
    constexpr double kSqrt2 = 1.41421356237309514547;

    const Mask big = cmpGt(m, splat(kSqrt2));
    m = select(big, mul(m, splat(0.5)), m);
    const Pack dk = add(e, select(big, splat(1.0), splat(0.0)));

    const Pack f = sub(m, splat(1.0));
    const Pack s = div(f, add(splat(2.0), f));
    const Pack z = mul(s, s);
    const Pack w = mul(z, z);
    const Pack t1 = mul(
        w, add(splat(kLg2),
               mul(w, add(splat(kLg4), mul(w, splat(kLg6))))));
    const Pack t2 = mul(
        z,
        add(splat(kLg1),
            mul(w, add(splat(kLg3),
                       mul(w, add(splat(kLg5),
                                  mul(w, splat(kLg7))))))));
    const Pack r = add(t2, t1);
    const Pack hfsq = mul(splat(0.5), mul(f, f));
    // dk*Hi - ((hfsq - (s*(hfsq+r) + dk*Lo)) - f)
    const Pack inner =
        add(mul(s, add(hfsq, r)), mul(dk, splat(kLn2Lo)));
    return sub(mul(dk, splat(kLn2Hi)), sub(sub(hfsq, inner), f));
}

/** Lane-parallel `fastLogPositive` (same algorithm, same bits). */
inline Pack
logPositive(Pack x)
{
    constexpr double kMagic = 6755399441055744.0; // 2^52 + 2^51
    const int64_t kMagicBits = std::bit_cast<int64_t>(kMagic);

    const PackI bits = toBits(x);
    // m = mantissa with the exponent field forced to [1, 2).
    const Pack m = fromBits(orI(andI(bits, splatI(0x000FFFFFFFFFFFFFll)),
                                splatI(0x3FF0000000000000ll)));
    // Unbiased exponent as a double via the magic-constant trick:
    // (bits >> 52) is the biased exponent in [1, 2046]; writing it
    // into kMagic's low mantissa bits yields double(kMagic + e)
    // exactly (ulp == 1 in that binade), so the subtraction recovers
    // the exact integer as a double — identical to the scalar
    // double(int64) conversion.
    const Pack ed =
        sub(fromBits(orI(shrI<52>(bits), splatI(kMagicBits))),
            splat(kMagic));
    return logMantExp(m, sub(ed, splat(1023.0)));
}

/**
 * Bring a lane's (mantissa, exponent) pair back to m in [1, 2): m must
 * be 0 or a normal double >= 1, which every product and sum of
 * [1, 2) mantissas is.  The exponent moves into e from the bits, and
 * m is scaled by the exact power of two 2^-k.  A zero mantissa stays 0
 * (0 * 2^1023), and its exponent, -inf, stays -inf.
 */
inline void
renormalize(Pack &m, Pack &e)
{
    constexpr double kMagic = 6755399441055744.0; // 2^52 + 2^51
    const int64_t kMagicBits = std::bit_cast<int64_t>(kMagic);
    const PackI biased = shrI<52>(toBits(m));
    m = mul(m, fromBits(shlI<52>(subI(splatI(2046), biased))));
    // biased - 1023 as a double, exactly (see logPositive).
    e = add(e, sub(fromBits(orI(biased, splatI(kMagicBits))),
                   splat(kMagic + 1023.0)));
}

/**
 * One sum of a slot program over 8 lanes, in the exponent-tracked
 * linear domain: with E the largest e_w + e_c over the edges,
 * acc = sum (m_w * m_c) * 2^(e_w + e_c - E), folded in edge order, and
 * the result (acc, E) is renormalized.  2^d is assembled from bits and
 * is exactly 0 below 2^-1022.  A lane whose terms are all zero
 * (exponent -inf) comes back as (0, -inf).  `slots` is the program
 * scratch (SlotProgram::kSlotDoubles per slot).
 */
inline void
linearSum(const double *slots, const uint32_t *operand,
          const double *weightMant, const int32_t *weightExp,
          size_t fanin, Pack &m, Pack &e)
{
    constexpr size_t S = SlotProgram::kSlotDoubles;
    constexpr double kShift = 6755399441055744.0; // 2^52 + 2^51
    const Pack neg_inf = splat(kLogZero);
    Pack top = neg_inf;
    for (size_t k = 0; k < fanin; ++k)
        top = max(top, add(splat(double(weightExp[k])),
                           load(slots + size_t(operand[k]) * S + kLanes)));
    // All-zero lanes align against 0: every term then sits at -inf,
    // clamps to 2^-1023 and contributes exactly 0.
    const Pack base = select(cmpEq(top, neg_inf), splat(0.0), top);
    const Pack floor = splat(-1023.0);
    const Pack shift = splat(kShift);
    // (d + kShift) holds d + 2^51 in its low mantissa bits; adding
    // 1023 - 2^51 leaves the biased exponent d + 1023 there, and the
    // shift moves it into the exponent field (d == -1023 gives +0).
    const PackI rebias = splatI(1023 - (int64_t(1) << 51));
    Pack acc = splat(0.0);
    for (size_t k = 0; k < fanin; ++k) {
        const double *c = slots + size_t(operand[k]) * S;
        const Pack d = max(
            sub(add(splat(double(weightExp[k])), load(c + kLanes)), base),
            floor);
        const Pack scale =
            fromBits(shlI<52>(addI(toBits(add(d, shift)), rebias)));
        acc = add(acc, mul(mul(splat(weightMant[k]), load(c)), scale));
    }
    m = acc;
    e = top;
    renormalize(m, e);
}

/** Product operands multiplied between renormalizations: a product of
 *  this many [1, 2) mantissas (times one more) stays below 2^1023. */
inline constexpr size_t kProductRenormEvery = 512;

/** log(m * 2^e) of a slot's 8 lanes (mantissas at c, exponents at
 *  c + kLanes): one logMantExp, and exactly -inf for a zero mantissa. */
inline Pack
slotLog(const double *c)
{
    const Pack m = load(c);
    return select(cmpEq(m, splat(0.0)), splat(kLogZero),
                  logMantExp(m, load(c + kLanes)));
}

/**
 * The op loop of runSlotProgram: run every op of `p` over one 8-row
 * block, and call visit(i, dst) once op i has written its slot dst.
 * Returns false on an out-of-range row value (see runSlotProgram).
 */
template <typename Visit>
inline bool
runSlotOps(const SlotProgram &p, const uint32_t *const *rows, double *slots,
           Visit &&visit)
{
    constexpr size_t S = SlotProgram::kSlotDoubles;
    const uint32_t *operand = p.operand;
    const double *weight_mant = p.weightMant;
    const int32_t *weight_exp = p.weightExp;
    bool ok = true;
    for (size_t i = 0; i < p.numOps; ++i) {
        const uint32_t word = p.op[i];
        const uint32_t arg = p.arg[i];
        double *dst = slots + size_t(word & SlotProgram::kSlotMask) * S;
        switch (word >> SlotProgram::kKindShift) {
          case SlotProgram::kLeaf: {
            // The rows are distinct assignments: a scalar gather.
            const uint32_t var = p.leafVar[arg];
            const double *pair = p.leafPair + size_t(arg) * p.arity * 2;
            for (size_t b = 0; b < kLanes; ++b) {
                const uint32_t v = rows[b][var];
                double lm = 1.0, le = 0.0; // marginalized: sums to 1
                if (v != p.missing) {
                    ok = ok && v < p.arity;
                    lm = v < p.arity ? pair[2 * v] : 0.0;
                    le = v < p.arity ? pair[2 * v + 1] : kLogZero;
                }
                dst[b] = lm;
                dst[kLanes + b] = le;
            }
            break;
          }
          case SlotProgram::kProduct: {
            Pack m = splat(1.0);
            Pack e = splat(0.0);
            for (size_t k0 = 0; k0 < arg; k0 += kProductRenormEvery) {
                const size_t k1 =
                    k0 + kProductRenormEvery < arg ? k0 + kProductRenormEvery
                                                   : arg;
                for (size_t k = k0; k < k1; ++k) {
                    const double *c = slots + size_t(operand[k]) * S;
                    m = mul(m, load(c));
                    e = add(e, load(c + kLanes));
                }
                renormalize(m, e);
            }
            // The empty product stays exactly (1, 0).
            operand += arg;
            store(dst, m);
            store(dst + kLanes, e);
            break;
          }
          default: { // SlotProgram::kSum
            Pack m, e;
            linearSum(slots, operand, weight_mant, weight_exp, arg, m, e);
            operand += arg;
            weight_mant += arg;
            weight_exp += arg;
            store(dst, m);
            store(dst + kLanes, e);
            break;
          }
        }
        visit(i, static_cast<const double *>(dst));
    }
    return ok;
}

/**
 * Run a root-pass slot program (SlotProgram) over one 8-row block in
 * the exponent-tracked linear domain: each lane of a slot carries a
 * mantissa in [1, 2), or 0, and an integer-valued exponent, -inf for
 * zero.  Leaves copy their (mantissa, exponent) pair from the table
 * (a missing value reads (1, 0)); products multiply mantissas and add
 * exponents, renormalizing every kProductRenormEvery operands and at
 * the end; sums run linearSum.  Each output takes one log:
 * out[o * kLanes + lane] = log(m) + e * ln2, -inf for zero.  `rows`
 * holds kLanes row pointers (tail callers repeat a live row); `slots`
 * is numSlots * kSlotDoubles of scratch.  Every step is a lane-parallel
 * IEEE operation, so each lane's result is bit-identical on every
 * backend and independent of the other lanes.  Returns false if a row
 * holds a value outside [0, arity) that is not `missing` (that lane's
 * leaf then reads zero).
 */
inline bool
runSlotProgram(const SlotProgram &p, const uint32_t *const *rows,
               double *slots, double *out)
{
    constexpr size_t S = SlotProgram::kSlotDoubles;
    const bool ok =
        runSlotOps(p, rows, slots, [](size_t, const double *) {});
    for (size_t o = 0; o < p.numOutputs; ++o)
        store(out + o * kLanes, slotLog(slots + size_t(p.output[o]) * S));
    return ok;
}

/** total += v[0], then v[1], ... over the first n lanes, in lane order:
 *  the fold of n one-row passes. */
inline void
addLanes(double &total, Pack v, size_t n)
{
    double lane[kLanes];
    store(lane, v);
    double t = total;
    for (size_t i = 0; i < n; ++i)
        t += lane[i];
    total = t;
}

/**
 * One whole flow pass (FlowProgram) over an 8-row block.  `scratch`
 * holds the program's slots, then one 8-lane pack per circuit node.
 *
 *  - *Upward:* run the root-pass program (runSlotOps) and store each
 *    op's log value lv (slotLog) at its node.
 *  - *Downward:* visit the ops in reverse, so every parent comes before
 *    its children.  A node gathers its flow F from the root seed (1 in
 *    a lane whose root is nonzero, else 0) plus, over its parents in
 *    transpose order, exp(lw + lv + G_p) from a sum parent or F_p from
 *    a product parent; a -inf argument adds exactly 0.  It then
 *    overwrites its pack with what its children read: F for a product,
 *    and G = log F - lv for a sum, -inf when F is below the normal
 *    range (logPositive's contract), so such a flow carries nothing on.
 *
 * Nodes outside the program carry no flow: their packs must hold 0
 * (product) or -inf (sum), which the caller writes once and this
 * kernel never touches.  Each of the first `live` lanes adds its edge,
 * node and observed-leaf flows to `totals` in lane order, so one block
 * adds exactly what `live` one-row passes would; the other lanes (tail
 * copies) add nothing.  rootLog[lane] receives the root's log value,
 * bit-identical to runSlotProgram's.  Lanes never interact, so every
 * backend gives the same bits.  Returns false, adding nothing, if a row
 * holds an out-of-range value (see runSlotProgram).
 */
inline bool
runFlowBlock(const FlowProgram &p, const uint32_t *const *rows, size_t live,
             double *scratch, double *rootLog, const FlowTotals &totals)
{
    constexpr double kMinNormal = 2.2250738585072014e-308; // 2^-1022
    const SlotProgram &up = p.up;
    double *nodes = scratch + up.numSlots * SlotProgram::kSlotDoubles;
    const bool ok = runSlotOps(up, rows, scratch,
                               [&](size_t i, const double *dst) {
                                   store(nodes + size_t(p.opNode[i]) * kLanes,
                                         slotLog(dst));
                               });
    if (!ok)
        return false;

    const Pack zero = splat(0.0);
    const Pack neg_inf = splat(kLogZero);
    const Pack root_log =
        load(nodes + size_t(p.opNode[up.numOps - 1]) * kLanes);
    store(rootLog, root_log);
    Pack seed = select(cmpEq(root_log, neg_inf), zero, splat(1.0));
    for (size_t i = up.numOps; i-- > 0;) {
        const uint32_t c = p.opNode[i];
        double *own = nodes + size_t(c) * kLanes;
        const Pack lv = load(own);
        Pack flow = seed; // only the root, the last op, is seeded
        seed = zero;
        for (uint32_t k = p.parentOffset[c]; k < p.parentOffset[c + 1];
             ++k) {
            const uint32_t parent = p.parentNode[k];
            const uint32_t e = p.parentEdge[k];
            Pack f = load(nodes + size_t(parent) * kLanes);
            if (p.nodeType[parent] == SlotProgram::kSum) {
                const Pack arg = add(add(splat(p.edgeLogWeight[e]), lv), f);
                f = select(cmpEq(arg, neg_inf), zero, expNonPositive(arg));
            }
            addLanes(totals.edge[e], f, live);
            flow = add(flow, f);
        }
        addLanes(totals.node[c], flow, live);
        switch (up.op[i] >> SlotProgram::kKindShift) {
          case SlotProgram::kLeaf: {
            const uint32_t leaf = up.arg[i];
            const uint32_t var = up.leafVar[leaf];
            double *row_total = totals.leaf + size_t(leaf) * up.arity;
            double lane[kLanes];
            store(lane, flow);
            for (size_t b = 0; b < live; ++b) {
                const uint32_t v = rows[b][var];
                if (v != up.missing)
                    row_total[v] += lane[b];
            }
            break;
          }
          case SlotProgram::kProduct:
            store(own, flow);
            break;
          default: // SlotProgram::kSum
            store(own, select(cmpGt(splat(kMinNormal), flow), neg_inf,
                              sub(logPositive(flow), lv)));
            break;
        }
    }
    return true;
}

/**
 * dst[i] += src[i] for i in [0, n): the element-wise merge fold of the
 * sharded reductions.  Lanes are independent, so this is bit-identical
 * to the scalar loop on every backend.
 */
inline void
addInto(double *dst, const double *src, size_t n)
{
    size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        store(dst + i, add(load(dst + i), load(src + i)));
    for (; i < n; ++i)
        dst[i] += src[i];
}

} // inline namespace REASON_SIMD_ABI

/** Compile-time selected backend name ("avx512f", "avx2", ...). */
const char *isaName();
/** Native register lanes of the selected backend (1 for scalar). */
unsigned nativeLanes();
/**
 * Runtime-detected CPU SIMD features (space-separated, e.g.
 * "sse2 avx avx2 fma avx512f"), independent of what the build targets;
 * reported in bench provenance and `reason_cli --version`.
 */
const char *cpuFeatures();

} // namespace simd
} // namespace reason

#endif // REASON_UTIL_SIMD_H
