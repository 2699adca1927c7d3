"""The one tape-generic C kernel module.

Nothing in the kernels depends on a particular circuit: they read the
tape at run time through a ``problp_tape`` struct — the op count, table
sizes, slot count, root and pointers to the tape's int32 ``opcodes`` /
``dests`` / ``lefts`` / ``rights`` / ``param_slots`` / ``param_ids`` /
``indicator_slots`` arrays — so a single compiled module serves every
tape in the process. It exposes six fused kernels over row-major
``(num_slots, batch)`` slot matrices:

* ``f64_forward`` / ``f64_backward`` — IEEE float64 replay, bit-identical
  to the numpy executors because both apply the same ops in the same
  order (the build pins ``-ffp-contract=off`` so no FMA contraction can
  change a single rounding). The sweeps are *lane-blocked*: lanes are
  processed ``LANE_BLOCK`` at a time so the live slot working set stays
  cache-resident, and every inner loop is a stride-1 ``#pragma GCC
  ivdep`` loop over contiguous lanes (each iteration touches only its
  own lane index, so the assertion is sound even when a destination row
  aliases a source row) — gcc's cost model then vectorizes them without
  runtime alias versioning.
* ``fixed_forward`` / ``fixed_backward`` — exact int64-mantissa
  fixed-point replay with the scalar backend's rounding and
  overflow-raising semantics.
* ``flt_forward`` / ``flt_backward`` — §3.1.2 float emulation on
  (mantissa, exponent) int64 word pairs: exact integer mantissa
  arithmetic with exactly one rounding per two-input operator,
  guard/round/sticky alignment in addition (a ``FLT_GUARD``-bit window
  plus a sticky LSB, mirroring :class:`FloatWordKernel` lane for lane),
  zero short-circuits as (0, 0) pairs, and overflow-before-underflow
  error ordering per operator.

The backward kernels walk the forward op arrays in reverse
(``op = n_ops-1 … 0``), exactly the order of
:attr:`~repro.engine.tape.Tape.backward`. Every kernel copies the struct
fields it reads into local ``const`` variables on entry, so the op loops
never reload them through the struct pointer.

**Runtime parameters.** Every kernel reads its deduplicated parameter
table through a runtime pointer: ``per_lane=0`` broadcasts one table
across the batch (the tape's own ``param_values`` for θ-free float64
calls), and ``per_lane=1`` reads a lane-major ``(n_params, batch)``
matrix — one parameter table per lane — which is what routes θ-sweeps
(``evaluate_theta_batch`` and friends) through the native backend.

Error-attribution parity pins the loop structure: the numpy executors
compute a whole op row, then check it (``.max()`` / ``.any()``), so the
first *operation in stream order* with any failing lane raises — never
the first failing lane. The checked kernels therefore run each op over
the full batch, OR-accumulate failure flags in-loop (keeping the loops
vectorizable), and test the flags only between ops; the fused float64
kernels, which cannot fail, are the only lane-blocked ones. Fixed
kernels return the destination slot of the first overflowing operation
(phases within an op in the numpy check order) or ``-1`` on success;
float kernels return ``FLT_OK`` / ``FLT_OVERFLOW`` / ``FLT_UNDERFLOW``
and the Python wrapper rebuilds the numpy executors' messages.

Bit-identity of the word paths needs arithmetic right shifts on int64 —
what gcc/clang do on every target we build for, matching Python's and
numpy's floor-shift semantics.
"""

from __future__ import annotations

#: Bump when kernel semantics change — part of the build cache key.
#: v2: runtime-parameter entry points, float-emulation kernels,
#: lane-blocked float64 sweeps. v3: the tape itself is a runtime
#: argument; one module serves every tape.
CODEGEN_VERSION = 3

#: The runtime tape every kernel reads (declared to cffi and to C alike).
#: ``root`` is -1 for rootless tapes, which only reach forward kernels.
_TAPE_STRUCT = """
typedef struct {
    int32_t n_ops;
    int32_t n_params;
    int32_t n_indicators;
    int32_t num_slots;
    int32_t root;
    const int32_t *opcodes;
    const int32_t *dests;
    const int32_t *lefts;
    const int32_t *rights;
    const int32_t *param_slots;
    const int32_t *param_ids;
    const int32_t *indicator_slots;
} problp_tape;
"""

#: The cffi declarations of the kernel module.
KERNEL_CDEF = _TAPE_STRUCT + """
void f64_forward(const problp_tape *tape, const double *params,
                 int64_t per_lane, const uint8_t *active, double *slots,
                 int64_t batch);
void f64_backward(const problp_tape *tape, const double *params,
                  int64_t per_lane, const uint8_t *active, double *slots,
                  double *partials, int64_t batch);
int64_t fixed_forward(const problp_tape *tape, const int64_t *params,
                      int64_t per_lane, const uint8_t *active, int64_t batch,
                      int32_t frac_bits, int64_t max_word, int64_t one_word,
                      int32_t rounding, int64_t *slots);
int64_t fixed_backward(const problp_tape *tape, const int64_t *params,
                       int64_t per_lane, const uint8_t *active, int64_t batch,
                       int32_t frac_bits, int64_t max_word, int64_t one_word,
                       int32_t rounding, int64_t *slots, int64_t *adjoints);
int64_t flt_forward(const problp_tape *tape, const int64_t *param_m,
                    const int64_t *param_e, int64_t per_lane,
                    const uint8_t *active, int64_t batch,
                    int32_t mantissa_bits, int64_t min_exponent,
                    int64_t max_exponent, int64_t one_m, int64_t one_e,
                    int32_t rounding, int64_t *m_slots, int64_t *e_slots);
int64_t flt_backward(const problp_tape *tape, const int64_t *param_m,
                     const int64_t *param_e, int64_t per_lane,
                     const uint8_t *active, int64_t batch,
                     int32_t mantissa_bits, int64_t min_exponent,
                     int64_t max_exponent, int64_t one_m, int64_t one_e,
                     int32_t rounding, int64_t *m_slots, int64_t *e_slots,
                     int64_t *adj_m, int64_t *adj_e,
                     int64_t *scratch_m, int64_t *scratch_e);
"""

#: Runtime rounding selectors (see ``FXR_*`` / ``flt_round_shift``).
ROUND_TRUNCATE, ROUND_NEAREST_UP, ROUND_NEAREST_EVEN = 0, 1, 2

#: Float-kernel status codes (``flt_forward`` / ``flt_backward``).
FLT_OK, FLT_OVERFLOW, FLT_UNDERFLOW = -1, 1, 2


_KERNEL_TEMPLATE = r"""
/* Local const copies of the tape fields a kernel reads, taken once on
 * entry so the op loops never reload them through the struct pointer. */
#define TAPE_OPS(t)                                                     \
    const int32_t n_ops = (t)->n_ops;                                   \
    const int32_t *const opc = (t)->opcodes;                            \
    const int32_t *const dst = (t)->dests;                              \
    const int32_t *const lft = (t)->lefts;                              \
    const int32_t *const rgt = (t)->rights
#define TAPE_LEAVES(t)                                                  \
    const int32_t n_params = (t)->n_params;                             \
    const int32_t n_indicators = (t)->n_indicators;                     \
    const int32_t *const pslot = (t)->param_slots;                      \
    const int32_t *const pid = (t)->param_ids;                          \
    const int32_t *const islot = (t)->indicator_slots

/* ------------------------------------------------------------------ */
/* float64 kernels (lane-blocked, vectorizable)                        */
/* ------------------------------------------------------------------ */
/* Lanes per block: 64 doubles = one 512-byte row segment, keeping the
 * whole live slot working set L1/L2-resident for real tapes while
 * leaving full-width SIMD lanes to the vectorizer. */
#define LANE_BLOCK 64

static void seed_f64(const problp_tape *t, const double *params,
                     int64_t per_lane, const uint8_t *active, double *slots,
                     int64_t batch, int64_t j0, int64_t j1)
{
    TAPE_LEAVES(t);
    for (int32_t i = 0; i < n_params; i++) {
        double *row = slots + (int64_t)pslot[i] * batch;
        if (per_lane) {
            const double *src = params + (int64_t)pid[i] * batch;
            #pragma GCC ivdep
            for (int64_t j = j0; j < j1; j++) row[j] = src[j];
        } else {
            const double value = params[pid[i]];
            #pragma GCC ivdep
            for (int64_t j = j0; j < j1; j++) row[j] = value;
        }
    }
    for (int32_t i = 0; i < n_indicators; i++) {
        const uint8_t *lane = active + (int64_t)i * batch;
        double *row = slots + (int64_t)islot[i] * batch;
        #pragma GCC ivdep
        for (int64_t j = j0; j < j1; j++) row[j] = lane[j] ? 1.0 : 0.0;
    }
}

static void f64_forward_block(const problp_tape *t, double *slots,
                              int64_t batch, int64_t j0, int64_t j1)
{
    TAPE_OPS(t);
    for (int32_t op = 0; op < n_ops; op++) {
        const double *L = slots + (int64_t)lft[op] * batch;
        const double *R = slots + (int64_t)rgt[op] * batch;
        double *D = slots + (int64_t)dst[op] * batch;
        switch (opc[op]) {
        case 0: /* SUM */
            #pragma GCC ivdep
            for (int64_t j = j0; j < j1; j++) D[j] = L[j] + R[j];
            break;
        case 1: /* PRODUCT */
            #pragma GCC ivdep
            for (int64_t j = j0; j < j1; j++) D[j] = L[j] * R[j];
            break;
        case 2: /* MAX */
            #pragma GCC ivdep
            for (int64_t j = j0; j < j1; j++)
                D[j] = L[j] >= R[j] ? L[j] : R[j];
            break;
        default: /* COPY */
            memcpy(D + j0, L + j0, (size_t)(j1 - j0) * sizeof(double));
            break;
        }
    }
}

void f64_forward(const problp_tape *tape, const double *params,
                 int64_t per_lane, const uint8_t *active, double *slots,
                 int64_t batch)
{
    for (int64_t j0 = 0; j0 < batch; j0 += LANE_BLOCK) {
        const int64_t j1 =
            batch - j0 < LANE_BLOCK ? batch : j0 + LANE_BLOCK;
        seed_f64(tape, params, per_lane, active, slots, batch, j0, j1);
        f64_forward_block(tape, slots, batch, j0, j1);
    }
}

void f64_backward(const problp_tape *tape, const double *params,
                  int64_t per_lane, const uint8_t *active, double *slots,
                  double *partials, int64_t batch)
{
    TAPE_OPS(tape);
    double *const root_row = partials + (int64_t)tape->root * batch;
    memset(partials, 0,
           (size_t)tape->num_slots * (size_t)batch * sizeof(double));
    for (int64_t j0 = 0; j0 < batch; j0 += LANE_BLOCK) {
        const int64_t j1 =
            batch - j0 < LANE_BLOCK ? batch : j0 + LANE_BLOCK;
        seed_f64(tape, params, per_lane, active, slots, batch, j0, j1);
        f64_forward_block(tape, slots, batch, j0, j1);
        #pragma GCC ivdep
        for (int64_t j = j0; j < j1; j++) root_row[j] = 1.0;
        for (int32_t op = n_ops - 1; op >= 0; op--) {
            const double *S = partials + (int64_t)dst[op] * batch;
            double *PL = partials + (int64_t)lft[op] * batch;
            double *PR = partials + (int64_t)rgt[op] * batch;
            switch (opc[op]) {
            case 0: /* SUM: adjoints flow through unscaled */
                #pragma GCC ivdep
                for (int64_t j = j0; j < j1; j++) PL[j] += S[j];
                #pragma GCC ivdep
                for (int64_t j = j0; j < j1; j++) PR[j] += S[j];
                break;
            case 1: { /* PRODUCT: product rule with the forward siblings */
                const double *VL = slots + (int64_t)lft[op] * batch;
                const double *VR = slots + (int64_t)rgt[op] * batch;
                #pragma GCC ivdep
                for (int64_t j = j0; j < j1; j++) PL[j] += S[j] * VR[j];
                #pragma GCC ivdep
                for (int64_t j = j0; j < j1; j++) PR[j] += S[j] * VL[j];
                break;
            }
            default: /* COPY */
                #pragma GCC ivdep
                for (int64_t j = j0; j < j1; j++) PL[j] += S[j];
                break;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* fixed-point kernels (int64 mantissa words)                          */
/* ------------------------------------------------------------------ */
/* Rounding of 2F-fraction products back to F bits, as expressions so
 * the per-mode loops below stay branch-free and vectorizable. Only
 * meaningful for frac_bits > 0 (integer formats skip rounding). */
#define FXR_Q(p) ((p) >> frac_bits)
#define FXR_REM(p) ((p) & frac_mask)
#define FXR_TRUNC(p) FXR_Q(p)
#define FXR_UP(p) (FXR_Q(p) + (FXR_REM(p) >= half))
#define FXR_EVEN(p)                                                     \
    (FXR_Q(p)                                                           \
     + ((FXR_REM(p) > half)                                             \
        | ((FXR_REM(p) == half) & (FXR_Q(p) & 1))))

/* One checked forward op row: compute the whole row, OR-accumulate the
 * overflow flag (keeping the loop vectorizable), test between ops —
 * exactly the numpy executors' compute-then-check attribution. */
#define FX_OP_ROW(VEXPR)                                                \
    do {                                                                \
        int64_t bad = 0;                                                \
        _Pragma("GCC ivdep")                                            \
        for (int64_t j = 0; j < batch; j++) {                           \
            const int64_t v = (VEXPR);                                  \
            bad |= v > max_word;                                        \
            D[j] = v;                                                   \
        }                                                               \
        if (bad) return dst[op];                                        \
    } while (0)

/* One checked adjoint accumulation row: contribution check before add
 * check, like the numpy backward phases (both report the same dest). */
#define FX_ADJ_ROW(A, CEXPR, DEST)                                     \
    do {                                                                \
        int64_t bad = 0;                                                \
        _Pragma("GCC ivdep")                                            \
        for (int64_t j = 0; j < batch; j++) {                           \
            const int64_t c = (CEXPR);                                  \
            const int64_t v = A[j] + c;                                 \
            bad |= (c > max_word) | (v > max_word);                     \
            A[j] = v;                                                   \
        }                                                               \
        if (bad) return (DEST);                                         \
    } while (0)

static void seed_fixed(const problp_tape *t, const int64_t *params,
                       int64_t per_lane, const uint8_t *active,
                       int64_t batch, int64_t one_word, int64_t *slots)
{
    TAPE_LEAVES(t);
    for (int32_t i = 0; i < n_params; i++) {
        int64_t *row = slots + (int64_t)pslot[i] * batch;
        if (per_lane) {
            const int64_t *src = params + (int64_t)pid[i] * batch;
            #pragma GCC ivdep
            for (int64_t j = 0; j < batch; j++) row[j] = src[j];
        } else {
            const int64_t value = params[pid[i]];
            #pragma GCC ivdep
            for (int64_t j = 0; j < batch; j++) row[j] = value;
        }
    }
    for (int32_t i = 0; i < n_indicators; i++) {
        const uint8_t *lane = active + (int64_t)i * batch;
        int64_t *row = slots + (int64_t)islot[i] * batch;
        #pragma GCC ivdep
        for (int64_t j = 0; j < batch; j++) row[j] = lane[j] ? one_word : 0;
    }
}

int64_t fixed_forward(const problp_tape *tape, const int64_t *params,
                      int64_t per_lane, const uint8_t *active, int64_t batch,
                      int32_t frac_bits, int64_t max_word, int64_t one_word,
                      int32_t rounding, int64_t *slots)
{
    TAPE_OPS(tape);
    const int64_t frac_mask =
        frac_bits > 0 ? ((int64_t)1 << frac_bits) - 1 : 0;
    const int64_t half = frac_bits > 0 ? (int64_t)1 << (frac_bits - 1) : 0;
    seed_fixed(tape, params, per_lane, active, batch, one_word, slots);
    for (int32_t op = 0; op < n_ops; op++) {
        const int64_t *L = slots + (int64_t)lft[op] * batch;
        const int64_t *R = slots + (int64_t)rgt[op] * batch;
        int64_t *D = slots + (int64_t)dst[op] * batch;
        switch (opc[op]) {
        case 0: /* SUM: exact adder, checked */
            FX_OP_ROW(L[j] + R[j]);
            break;
        case 1: /* PRODUCT: exact 2F product rounded back to F, checked */
            if (frac_bits == 0) FX_OP_ROW(L[j] * R[j]);
            else if (rounding == 0) FX_OP_ROW(FXR_TRUNC(L[j] * R[j]));
            else if (rounding == 1) FX_OP_ROW(FXR_UP(L[j] * R[j]));
            else FX_OP_ROW(FXR_EVEN(L[j] * R[j]));
            break;
        case 2: /* MAX */
            FX_OP_ROW(L[j] >= R[j] ? L[j] : R[j]);
            break;
        default: /* COPY */
            memcpy(D, L, (size_t)batch * sizeof(int64_t));
            break;
        }
    }
    return -1;
}

int64_t fixed_backward(const problp_tape *tape, const int64_t *params,
                       int64_t per_lane, const uint8_t *active, int64_t batch,
                       int32_t frac_bits, int64_t max_word, int64_t one_word,
                       int32_t rounding, int64_t *slots, int64_t *adjoints)
{
    TAPE_OPS(tape);
    const int64_t frac_mask =
        frac_bits > 0 ? ((int64_t)1 << frac_bits) - 1 : 0;
    const int64_t half = frac_bits > 0 ? (int64_t)1 << (frac_bits - 1) : 0;
    const int64_t status =
        fixed_forward(tape, params, per_lane, active, batch, frac_bits,
                      max_word, one_word, rounding, slots);
    if (status >= 0) return status;
    memset(adjoints, 0,
           (size_t)tape->num_slots * (size_t)batch * sizeof(int64_t));
    {
        int64_t *root_row = adjoints + (int64_t)tape->root * batch;
        for (int64_t j = 0; j < batch; j++) root_row[j] = one_word;
    }
    for (int32_t op = n_ops - 1; op >= 0; op--) {
        const int64_t *S = adjoints + (int64_t)dst[op] * batch;
        int64_t *AL = adjoints + (int64_t)lft[op] * batch;
        int64_t *AR = adjoints + (int64_t)rgt[op] * batch;
        switch (opc[op]) {
        case 0: /* SUM: left phase then right phase, like the numpy path */
            FX_ADJ_ROW(AL, S[j], lft[op]);
            FX_ADJ_ROW(AR, S[j], rgt[op]);
            break;
        case 1: { /* PRODUCT: rounded contribution, checked add, per side */
            const int64_t *VL = slots + (int64_t)lft[op] * batch;
            const int64_t *VR = slots + (int64_t)rgt[op] * batch;
            if (frac_bits == 0) {
                FX_ADJ_ROW(AL, S[j] * VR[j], lft[op]);
                FX_ADJ_ROW(AR, S[j] * VL[j], rgt[op]);
            } else if (rounding == 0) {
                FX_ADJ_ROW(AL, FXR_TRUNC(S[j] * VR[j]), lft[op]);
                FX_ADJ_ROW(AR, FXR_TRUNC(S[j] * VL[j]), rgt[op]);
            } else if (rounding == 1) {
                FX_ADJ_ROW(AL, FXR_UP(S[j] * VR[j]), lft[op]);
                FX_ADJ_ROW(AR, FXR_UP(S[j] * VL[j]), rgt[op]);
            } else {
                FX_ADJ_ROW(AL, FXR_EVEN(S[j] * VR[j]), lft[op]);
                FX_ADJ_ROW(AR, FXR_EVEN(S[j] * VL[j]), rgt[op]);
            }
            break;
        }
        default: /* COPY */
            FX_ADJ_ROW(AL, S[j], lft[op]);
            break;
        }
    }
    return -1;
}
/* ------------------------------------------------------------------ */
/* float-emulation kernels ((mantissa, exponent) int64 word pairs)     */
/* ------------------------------------------------------------------ */
/* Guard window for addition alignment — must match FloatWordKernel's
 * _GUARD_BITS (>= 2 keeps the sticky compression sound; 3 mirrors
 * hardware guard/round/sticky). */
#define FLT_GUARD 3

/* Format parameters threaded through every float helper. */
typedef struct {
    int64_t mbits;
    int64_t min_e;
    int64_t max_e;
    int64_t one_m;
    int64_t one_e;
    int32_t rounding;
} flt_fmt;

static int64_t flt_round_shift(int64_t value, int64_t shift,
                               int32_t rounding)
{
    const int64_t q = value >> shift;
    int64_t rem, half;
    if (rounding == 0) return q; /* TRUNCATE */
    rem = value - (q << shift);
    /* shift == 0 lanes have rem == 0, so the (arbitrary) half value
     * never triggers a round-up there — same guard as the numpy core. */
    half = (int64_t)1 << ((shift > 1 ? shift : 1) - 1);
    if (rounding == 1) return q + (rem >= half); /* NEAREST_UP */
    return q + ((rem > half) || (rem == half && (q & 1)));
}

/* Round value · 2^scale to the format (exactly one rounding). The
 * value is known to have either mbits+1+excess or one more significant
 * bits (unsigned add/multiply never cancels). Overflow/underflow set
 * flags instead of raising — the caller tests them per operator, in
 * the numpy executors' overflow-before-underflow order. */
static void flt_normalize(const flt_fmt *F, int64_t value, int64_t scale,
                          int64_t excess, int64_t *rm, int64_t *re,
                          int64_t *ov, int64_t *un)
{
    const int64_t target = F->mbits + 1;
    const int64_t carry = value >= ((int64_t)1 << (target + excess));
    const int64_t shift = excess + carry;
    int64_t rounded = flt_round_shift(value, shift, F->rounding);
    int64_t exponent;
    scale += shift;
    /* Rounding may carry into a new MSB (all-ones mantissa); the
     * result is then a power of two, so halving is exact. */
    if (rounded >> target) {
        rounded >>= 1;
        scale += 1;
    }
    exponent = scale + F->mbits;
    *ov |= exponent > F->max_e;
    *un |= exponent < F->min_e;
    *rm = rounded;
    *re = exponent;
}

/* dm/de may alias am/ae (adjoint accumulation): every lane reads its
 * inputs into locals before writing index j, so in-place rows are
 * safe. Zero lanes ((0, 0) pairs) short-circuit exactly like the
 * scalar backend's is_zero checks. */
static void flt_add_rows(const flt_fmt *F, const int64_t *am,
                         const int64_t *ae, const int64_t *bm,
                         const int64_t *be, int64_t *dm, int64_t *de,
                         int64_t batch, int64_t *ov, int64_t *un)
{
    for (int64_t j = 0; j < batch; j++) {
        const int64_t ma = am[j], ea = ae[j], mb = bm[j], eb = be[j];
        int64_t hi_m, hi_e, lo_m, lo_e, distance, window, shift, capped;
        int64_t sticky, total;
        if (ma == 0) {
            dm[j] = mb;
            de[j] = eb;
            continue;
        }
        if (mb == 0) {
            dm[j] = ma;
            de[j] = ea;
            continue;
        }
        if (eb > ea) {
            hi_m = mb; hi_e = eb; lo_m = ma; lo_e = ea;
        } else {
            hi_m = ma; hi_e = ea; lo_m = mb; lo_e = eb;
        }
        distance = hi_e - lo_e;
        window = distance < FLT_GUARD ? distance : FLT_GUARD;
        shift = distance - window;
        /* Compress the shifted-out addend bits into a sticky LSB. */
        capped = shift < F->mbits + 1 ? shift : F->mbits + 1;
        sticky = (lo_m & (((int64_t)1 << capped) - 1)) != 0;
        total = (hi_m << window) + ((lo_m >> capped) | sticky);
        flt_normalize(F, total, lo_e - F->mbits + shift, window, dm + j,
                      de + j, ov, un);
    }
}

static void flt_mul_rows(const flt_fmt *F, const int64_t *am,
                         const int64_t *ae, const int64_t *bm,
                         const int64_t *be, int64_t *dm, int64_t *de,
                         int64_t batch, int64_t *ov, int64_t *un)
{
    for (int64_t j = 0; j < batch; j++) {
        const int64_t ma = am[j], ea = ae[j], mb = bm[j], eb = be[j];
        if (ma == 0 || mb == 0) {
            dm[j] = 0;
            de[j] = 0;
            continue;
        }
        /* excess_no_carry is mbits for every multiply lane. */
        flt_normalize(F, ma * mb, ea + eb - 2 * F->mbits, F->mbits, dm + j,
                      de + j, ov, un);
    }
}

static void flt_max_rows(const int64_t *am, const int64_t *ae,
                         const int64_t *bm, const int64_t *be, int64_t *dm,
                         int64_t *de, int64_t batch)
{
    #pragma GCC ivdep
    for (int64_t j = 0; j < batch; j++) {
        const int64_t ma = am[j], ea = ae[j], mb = bm[j], eb = be[j];
        const int64_t a_wins =
            ma != 0 && (mb == 0 || ea > eb || (ea == eb && ma >= mb));
        dm[j] = a_wins ? ma : mb;
        de[j] = a_wins ? ea : eb;
    }
}

/* Test the per-operator flags in the numpy order: any overflowing lane
 * raises overflow even when another lane underflowed in the same op. */
#define FLT_CHECK()                                                     \
    do {                                                                \
        if (ov) return 1;                                               \
        if (un) return 2;                                               \
        ov = un = 0;                                                    \
    } while (0)

static int64_t flt_forward_sweep(const problp_tape *t, const flt_fmt *F,
                                 const int64_t *param_m,
                                 const int64_t *param_e, int64_t per_lane,
                                 const uint8_t *active, int64_t batch,
                                 int64_t *ms, int64_t *es)
{
    TAPE_OPS(t);
    int64_t ov = 0, un = 0;
    seed_fixed(t, param_m, per_lane, active, batch, F->one_m, ms);
    seed_fixed(t, param_e, per_lane, active, batch, F->one_e, es);
    for (int32_t op = 0; op < n_ops; op++) {
        const int64_t *LM = ms + (int64_t)lft[op] * batch;
        const int64_t *LE = es + (int64_t)lft[op] * batch;
        const int64_t *RM = ms + (int64_t)rgt[op] * batch;
        const int64_t *RE = es + (int64_t)rgt[op] * batch;
        int64_t *DM = ms + (int64_t)dst[op] * batch;
        int64_t *DE = es + (int64_t)dst[op] * batch;
        switch (opc[op]) {
        case 0: /* SUM */
            flt_add_rows(F, LM, LE, RM, RE, DM, DE, batch, &ov, &un);
            FLT_CHECK();
            break;
        case 1: /* PRODUCT */
            flt_mul_rows(F, LM, LE, RM, RE, DM, DE, batch, &ov, &un);
            FLT_CHECK();
            break;
        case 2: /* MAX */
            flt_max_rows(LM, LE, RM, RE, DM, DE, batch);
            break;
        default: /* COPY */
            memcpy(DM, LM, (size_t)batch * sizeof(int64_t));
            memcpy(DE, LE, (size_t)batch * sizeof(int64_t));
            break;
        }
    }
    return -1;
}

int64_t flt_forward(const problp_tape *tape, const int64_t *param_m,
                    const int64_t *param_e, int64_t per_lane,
                    const uint8_t *active, int64_t batch,
                    int32_t mantissa_bits, int64_t min_exponent,
                    int64_t max_exponent, int64_t one_m, int64_t one_e,
                    int32_t rounding, int64_t *m_slots, int64_t *e_slots)
{
    const flt_fmt F = {mantissa_bits, min_exponent, max_exponent, one_m,
                       one_e, rounding};
    return flt_forward_sweep(tape, &F, param_m, param_e, per_lane, active,
                             batch, m_slots, e_slots);
}

int64_t flt_backward(const problp_tape *tape, const int64_t *param_m,
                     const int64_t *param_e, int64_t per_lane,
                     const uint8_t *active, int64_t batch,
                     int32_t mantissa_bits, int64_t min_exponent,
                     int64_t max_exponent, int64_t one_m, int64_t one_e,
                     int32_t rounding, int64_t *m_slots, int64_t *e_slots,
                     int64_t *adj_m, int64_t *adj_e, int64_t *scratch_m,
                     int64_t *scratch_e)
{
    const flt_fmt F = {mantissa_bits, min_exponent, max_exponent, one_m,
                       one_e, rounding};
    TAPE_OPS(tape);
    const size_t plane = (size_t)tape->num_slots * (size_t)batch;
    int64_t ov = 0, un = 0;
    const int64_t status =
        flt_forward_sweep(tape, &F, param_m, param_e, per_lane, active,
                          batch, m_slots, e_slots);
    if (status >= 0) return status;
    memset(adj_m, 0, plane * sizeof(int64_t));
    memset(adj_e, 0, plane * sizeof(int64_t));
    {
        int64_t *mrow = adj_m + (int64_t)tape->root * batch;
        for (int64_t j = 0; j < batch; j++) mrow[j] = one_m;
        if (one_e != 0) {
            int64_t *erow = adj_e + (int64_t)tape->root * batch;
            for (int64_t j = 0; j < batch; j++) erow[j] = one_e;
        }
    }
    for (int32_t op = n_ops - 1; op >= 0; op--) {
        const int64_t *SM = adj_m + (int64_t)dst[op] * batch;
        const int64_t *SE = adj_e + (int64_t)dst[op] * batch;
        int64_t *ALM = adj_m + (int64_t)lft[op] * batch;
        int64_t *ALE = adj_e + (int64_t)lft[op] * batch;
        int64_t *ARM = adj_m + (int64_t)rgt[op] * batch;
        int64_t *ARE = adj_e + (int64_t)rgt[op] * batch;
        switch (opc[op]) {
        case 1: { /* PRODUCT: rounded contribution, rounded add, per side */
            const int64_t *VLM = m_slots + (int64_t)lft[op] * batch;
            const int64_t *VLE = e_slots + (int64_t)lft[op] * batch;
            const int64_t *VRM = m_slots + (int64_t)rgt[op] * batch;
            const int64_t *VRE = e_slots + (int64_t)rgt[op] * batch;
            flt_mul_rows(&F, SM, SE, VRM, VRE, scratch_m, scratch_e, batch,
                         &ov, &un);
            FLT_CHECK();
            flt_add_rows(&F, ALM, ALE, scratch_m, scratch_e, ALM, ALE,
                         batch, &ov, &un);
            FLT_CHECK();
            flt_mul_rows(&F, SM, SE, VLM, VLE, scratch_m, scratch_e, batch,
                         &ov, &un);
            FLT_CHECK();
            flt_add_rows(&F, ARM, ARE, scratch_m, scratch_e, ARM, ARE,
                         batch, &ov, &un);
            FLT_CHECK();
            break;
        }
        default: /* SUM / COPY: adjoints flow through unscaled */
            flt_add_rows(&F, ALM, ALE, SM, SE, ALM, ALE, batch, &ov, &un);
            FLT_CHECK();
            if (opc[op] == 0) {
                flt_add_rows(&F, ARM, ARE, SM, SE, ARM, ARE, batch, &ov,
                             &un);
                FLT_CHECK();
            }
            break;
        }
    }
    return -1;
}
"""

#: The complete translation unit of the kernel module.
KERNEL_SOURCE = (
    "#include <stdint.h>\n#include <string.h>\n" + _TAPE_STRUCT + _KERNEL_TEMPLATE
)
