//! AVX2/FMA vector lanes behind [`super::SimdTier::Avx2`].
//!
//! Every function here carries `#[target_feature(enable = "avx2",
//! enable = "fma")]` and must only be reached through the dispatchers
//! in [`super`], which guarantee the features are present at runtime
//! (forced tiers are sanitized against [`super::avx2_available`]).
//!
//! ## Equivalence (see `docs/simd.md`)
//!
//! Every kernel here gives the scalar tier's bits on every input: the
//! scalar float kernels (`scalar.rs`) are the executable specification
//! of these lanes — the same accumulator assignment, [`hsum`] tree,
//! fused steps, [`exp8`] polynomial and `maxps` rule, one lane at a
//! time — and the integer kernels are exact in any order.
//!
//! The batch matmul computes every cell in the *same* fixed reduction
//! order as [`dot`] (the column-blocked [`dot4`] interleaves four
//! independent per-cell chains without changing any chain's
//! association), so batch scores and the per-key decode scores agree
//! bit for bit — the decode ≡ batch contract of `crate::decode` holds
//! by construction.
//!
//! Memory safety never depends on the shape preconditions: every trip
//! count is derived from `min`s of the slice lengths involved, so all
//! loads and stores are in bounds for arbitrary arguments. The shape
//! preconditions are debug-asserted; the `unsafe` in these signatures
//! is purely the CPU-feature requirement.

use core::arch::x86_64::*;
use std::ops::Range;

use crate::Matrix;

/// Loads 8 consecutive floats starting at `s[i]`.
///
/// # Safety
///
/// Requires AVX2+FMA; `i + 8 <= s.len()` must hold (debug-asserted).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn load8(s: &[f32], i: usize) -> __m256 {
    debug_assert!(i + 8 <= s.len(), "load8 out of bounds");
    // SAFETY: the caller guarantees `i + 8 <= s.len()`.
    unsafe { _mm256_loadu_ps(s.as_ptr().add(i)) }
}

/// Horizontal sum of one `__m256` in the tier's fixed pairwise tree:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. This is exactly the
/// per-cell association of the 4-wide transpose reduction in [`dot4`]
/// (`hadd` sums adjacent pairs), so a standalone [`dot`] and a
/// [`dot4`] lane reduce identically bit for bit.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn hsum(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let s = _mm_hadd_ps(lo, hi); // [l0+l1, l2+l3, l4+l5, l6+l7]
    let s = _mm_hadd_ps(s, s); // [(l0+l1)+(l2+l3), (l4+l5)+(l6+l7), ...]
    let s = _mm_add_ss(s, _mm_movehdup_ps(s));
    _mm_cvtss_f32(s)
}

/// Horizontal sum of eight `i32` lanes (order-free: integer addition
/// is associative).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn hsum_epi32(v: __m256i) -> i32 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0x4E>(s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0xB1>(s));
    _mm_cvtsi128_si32(s)
}

/// FMA dot product with the tier's one fixed reduction order: two
/// 8-lane accumulators over 16-float chunks, an optional trailing
/// 8-chunk into the first accumulator, one [`hsum`], then a scalar
/// `mul_add` tail — the scalar tier's `dot` bit for bit; reused
/// verbatim per matmul cell so decode ≡ batch.
///
/// # Safety
///
/// Requires AVX2+FMA. Slices should have equal length
/// (debug-asserted); the trip count is bounded by the shorter one.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    let n = a.len().min(b.len());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n` bounds all four loads.
        unsafe {
            acc0 = _mm256_fmadd_ps(load8(a, i), load8(b, i), acc0);
            acc1 = _mm256_fmadd_ps(load8(a, i + 8), load8(b, i + 8), acc1);
        }
        i += 16;
    }
    if i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds both loads.
        unsafe {
            acc0 = _mm256_fmadd_ps(load8(a, i), load8(b, i), acc0);
        }
        i += 8;
    }
    let mut sum = hsum(_mm256_add_ps(acc0, acc1));
    while i < n {
        sum = a[i].mul_add(b[i], sum);
        i += 1;
    }
    sum
}

/// Four independent [`dot`] chains sharing one pass over `a`: each of
/// the four results is produced in *exactly* the reduction order of a
/// standalone [`dot`] call (two accumulators over 16-float chunks, an
/// optional trailing 8-chunk into the first, one [`hsum`], scalar
/// `mul_add` tail) — the chains are interleaved for throughput but
/// never mixed, so `dot4(a, b0..b3)[k] == dot(a, bk)` bit for bit.
/// This is what makes the blocked matmul below keep the decode ≡
/// batch contract: sharing the `a` loads across four columns amortizes
/// half the memory traffic and fills the FMA pipeline (eight live
/// accumulators instead of two) without touching any cell's result.
///
/// # Safety
///
/// Requires AVX2+FMA. All five slices should have equal length
/// (debug-asserted); the trip count is bounded by the shortest.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    debug_assert!(
        a.len() == b0.len() && a.len() == b1.len() && a.len() == b2.len() && a.len() == b3.len(),
        "dot4 of unequal lengths"
    );
    let n = a
        .len()
        .min(b0.len())
        .min(b1.len())
        .min(b2.len())
        .min(b3.len());
    if n == 64 {
        // SAFETY: all five slices hold at least 64 floats.
        return unsafe { dot4_64(a, b0, b1, b2, b3) };
    }
    let mut a00 = _mm256_setzero_ps();
    let mut a01 = _mm256_setzero_ps();
    let mut a10 = _mm256_setzero_ps();
    let mut a11 = _mm256_setzero_ps();
    let mut a20 = _mm256_setzero_ps();
    let mut a21 = _mm256_setzero_ps();
    let mut a30 = _mm256_setzero_ps();
    let mut a31 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n` bounds every load below.
        unsafe {
            let va0 = load8(a, i);
            let va1 = load8(a, i + 8);
            a00 = _mm256_fmadd_ps(va0, load8(b0, i), a00);
            a01 = _mm256_fmadd_ps(va1, load8(b0, i + 8), a01);
            a10 = _mm256_fmadd_ps(va0, load8(b1, i), a10);
            a11 = _mm256_fmadd_ps(va1, load8(b1, i + 8), a11);
            a20 = _mm256_fmadd_ps(va0, load8(b2, i), a20);
            a21 = _mm256_fmadd_ps(va1, load8(b2, i + 8), a21);
            a30 = _mm256_fmadd_ps(va0, load8(b3, i), a30);
            a31 = _mm256_fmadd_ps(va1, load8(b3, i + 8), a31);
        }
        i += 16;
    }
    if i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds every load below.
        unsafe {
            let va0 = load8(a, i);
            a00 = _mm256_fmadd_ps(va0, load8(b0, i), a00);
            a10 = _mm256_fmadd_ps(va0, load8(b1, i), a10);
            a20 = _mm256_fmadd_ps(va0, load8(b2, i), a20);
            a30 = _mm256_fmadd_ps(va0, load8(b3, i), a30);
        }
        i += 8;
    }
    // 4-wide transpose reduction: `hadd` sums adjacent pairs, so each
    // cell reduces as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) — the
    // identical association [`hsum`] uses, one shuffle tree for all
    // four cells instead of four.
    let v0 = _mm256_add_ps(a00, a01);
    let v1 = _mm256_add_ps(a10, a11);
    let v2 = _mm256_add_ps(a20, a21);
    let v3 = _mm256_add_ps(a30, a31);
    let t0 = _mm256_hadd_ps(v0, v1);
    let t1 = _mm256_hadd_ps(v2, v3);
    let t2 = _mm256_hadd_ps(t0, t1);
    let r = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps::<1>(t2));
    let mut out = [0.0f32; 4];
    // SAFETY: `out` is a 4-float array, exactly one 128-bit store.
    unsafe { _mm_storeu_ps(out.as_mut_ptr(), r) };
    while i < n {
        out[0] = a[i].mul_add(b0[i], out[0]);
        out[1] = a[i].mul_add(b1[i], out[1]);
        out[2] = a[i].mul_add(b2[i], out[2]);
        out[3] = a[i].mul_add(b3[i], out[3]);
        i += 1;
    }
    out
}

/// [`dot4`] specialized to `d == 64` (every studied head size): the
/// loop fully unrolled with constant trip counts, the identical
/// chunk-to-accumulator assignment (first accumulator takes offsets
/// 0/16/32/48, second takes 8/24/40/56 — exactly the order the
/// generic 16-float loop produces) and the identical transpose
/// reduction, so results match the generic path and [`dot`] bit for
/// bit.
///
/// # Safety
///
/// Requires AVX2+FMA and at least 64 floats in every slice (checked
/// by the caller).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot4_64(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    debug_assert!(
        a.len() >= 64 && b0.len() >= 64 && b1.len() >= 64 && b2.len() >= 64 && b3.len() >= 64
    );
    let mut a00 = _mm256_setzero_ps();
    let mut a01 = _mm256_setzero_ps();
    let mut a10 = _mm256_setzero_ps();
    let mut a11 = _mm256_setzero_ps();
    let mut a20 = _mm256_setzero_ps();
    let mut a21 = _mm256_setzero_ps();
    let mut a30 = _mm256_setzero_ps();
    let mut a31 = _mm256_setzero_ps();
    let mut i = 0;
    while i < 64 {
        // SAFETY: `i ∈ {0, 16, 32, 48}` and every slice holds ≥ 64.
        unsafe {
            let va0 = load8(a, i);
            let va1 = load8(a, i + 8);
            a00 = _mm256_fmadd_ps(va0, load8(b0, i), a00);
            a01 = _mm256_fmadd_ps(va1, load8(b0, i + 8), a01);
            a10 = _mm256_fmadd_ps(va0, load8(b1, i), a10);
            a11 = _mm256_fmadd_ps(va1, load8(b1, i + 8), a11);
            a20 = _mm256_fmadd_ps(va0, load8(b2, i), a20);
            a21 = _mm256_fmadd_ps(va1, load8(b2, i + 8), a21);
            a30 = _mm256_fmadd_ps(va0, load8(b3, i), a30);
            a31 = _mm256_fmadd_ps(va1, load8(b3, i + 8), a31);
        }
        i += 16;
    }
    let v0 = _mm256_add_ps(a00, a01);
    let v1 = _mm256_add_ps(a10, a11);
    let v2 = _mm256_add_ps(a20, a21);
    let v3 = _mm256_add_ps(a30, a31);
    let t0 = _mm256_hadd_ps(v0, v1);
    let t1 = _mm256_hadd_ps(v2, v3);
    let t2 = _mm256_hadd_ps(t0, t1);
    let r = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps::<1>(t2));
    let mut out = [0.0f32; 4];
    // SAFETY: `out` is a 4-float array, exactly one 128-bit store.
    unsafe { _mm_storeu_ps(out.as_mut_ptr(), r) };
    out
}

/// Column-panel width of the blocked matmul: 32 key rows of up to
/// `d = 128` floats is a 16 KiB panel that stays L1-resident across
/// every query row of the sweep. Without panel blocking each query
/// row re-streams the whole `K` from L2 and the kernel is
/// bandwidth-bound rather than FMA-bound.
const COL_PANEL: usize = 32;

/// `out[i][j] = scale * dot(a.row(i), b.row(j))` over the requested
/// region — column panels of [`COL_PANEL`] swept over all rows (so
/// the panel of `b` rows stays cache-hot), four columns at a time
/// through [`dot4`] (remainder columns through [`dot`]). Cells are
/// independent, so neither the panel order nor the 4-blocking changes
/// any cell's reduction order: every cell is the tier's one fixed
/// [`dot`] chain, and batch scores agree with per-key decode scores
/// bit for bit.
///
/// `out` holds the region's rows only, each `b.rows()` wide.
///
/// # Safety
///
/// Requires AVX2+FMA. The region must lie inside `a`/`b`/`out` (the
/// row accessors and slices bounds-check, so violations panic rather
/// than read out of bounds).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn matmul_transposed_scaled_into(
    a: &Matrix,
    b: &Matrix,
    scale: f32,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut [f32],
) {
    debug_assert_eq!(a.cols(), b.cols(), "inner dimensions must agree");
    debug_assert!(rows.end <= a.rows() && rows.len() * b.rows() <= out.len());
    debug_assert!(cols.end <= b.rows());
    let width = b.rows();
    let mut jb = cols.start;
    while jb < cols.end {
        let jend = (jb + COL_PANEL).min(cols.end);
        for (r, i) in rows.clone().enumerate() {
            let a_row = a.row(i);
            let out_row = &mut out[r * width..(r + 1) * width];
            let mut j = jb;
            while j + 4 <= jend {
                // SAFETY: AVX2+FMA hold for the whole function.
                let cell =
                    unsafe { dot4(a_row, b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3)) };
                out_row[j] = scale * cell[0];
                out_row[j + 1] = scale * cell[1];
                out_row[j + 2] = scale * cell[2];
                out_row[j + 3] = scale * cell[3];
                j += 4;
            }
            while j < jend {
                // SAFETY: AVX2+FMA hold for the whole function.
                out_row[j] = scale * unsafe { dot(a_row, b.row(j)) };
                j += 1;
            }
        }
        jb = jend;
    }
}

/// Eight-lane `exp` via the classic Cephes `expf` reduction: split off
/// `n = round(x / ln 2)`, evaluate a degree-five polynomial on the
/// remainder, scale by `2^n` through the exponent bits. Relative error
/// ≲ 2⁻²¹ of `f32::exp` over the softmax-relevant domain. Lanes below
/// the flush cutoff (`x < -87.0`, including `-inf` from masked
/// scores) return *exactly* `0.0`, which the pruned AV walk's
/// `p == 0.0` skip relies on.
///
/// The cutoff sits at `-87.0` rather than the true `expf` underflow
/// boundary (`≈ -87.336`): for `x ≥ -87.0` the result is at least
/// `e^-87 ≈ 1.64e-38`, safely above the smallest normal `f32`, so the
/// final `p · 2^n` multiply can never produce a denormal. At the true
/// boundary it does — and masked rows (75%+ `-inf` lanes under paper
/// pruning rates) then pay the per-µop denormal assist on every lane,
/// an ~8x softmax slowdown measured end to end. The scalar tier's lane
/// flushes at the same cutoff, so the two tiers agree in the band
/// `[-87.336, -87.0)` where `f32::exp` would still return ~1e-38.
///
/// # Safety
///
/// Requires AVX2+FMA.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn exp8(x: __m256) -> __m256 {
    use super::cephes::{EXP_HI, EXP_LO, LN2_HI, LN2_LO, LOG2EF, P0, P1, P2, P3, P4, P5};
    let underflow = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_LO));
    let x = _mm256_min_ps(
        _mm256_max_ps(x, _mm256_set1_ps(EXP_LO)),
        _mm256_set1_ps(EXP_HI),
    );
    // n = floor(x * log2(e) + 0.5) — round-to-nearest in float form.
    let n = _mm256_floor_ps(_mm256_fmadd_ps(
        x,
        _mm256_set1_ps(LOG2EF),
        _mm256_set1_ps(0.5),
    ));
    // r = x - n*ln2, in two pieces for the low bits.
    let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), x);
    let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);
    let r2 = _mm256_mul_ps(r, r);
    let mut p = _mm256_set1_ps(P0);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P1));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P2));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P4));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P5));
    p = _mm256_fmadd_ps(p, r2, r);
    p = _mm256_add_ps(p, _mm256_set1_ps(1.0));
    // 2^n through the exponent field (|n| ≤ 128 after the clamps).
    let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_cvtps_epi32(n),
        _mm256_set1_epi32(127),
    )));
    _mm256_andnot_ps(underflow, _mm256_mul_ps(p, pow2))
}

/// The softmax exponent pass: `row[t] = exp(row[t] - max)` with the
/// sum of the results returned. Eight lanes at a time through [`exp8`]
/// with an 8-lane partial sum (reduced by [`hsum`]), scalar `f32::exp`
/// tail. `-inf` inputs (masked scores) become exactly `0.0` in both
/// the vector body and the tail. The scalar tier runs the same lanes,
/// sums and tail, bit for bit.
///
/// # Safety
///
/// Requires AVX2+FMA. `max` must be finite (debug-asserted): the
/// caller handles the all-`-inf` row before getting here.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn exp_rows(row: &mut [f32], max: f32) -> f32 {
    debug_assert!(max.is_finite(), "exp_rows requires a finite max");
    let n = row.len();
    let vmax = _mm256_set1_ps(max);
    let mut vsum = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds the load and store.
        unsafe {
            let e = exp8(_mm256_sub_ps(load8(row, i), vmax));
            _mm256_storeu_ps(row.as_mut_ptr().add(i), e);
            vsum = _mm256_add_ps(vsum, e);
        }
        i += 8;
    }
    let mut sum = hsum(vsum);
    while i < n {
        let s = row[i];
        let e = if s == f32::NEG_INFINITY {
            0.0
        } else {
            (s - max).exp()
        };
        row[i] = e;
        sum += e;
        i += 1;
    }
    sum
}

/// Expands the low 8 bits of a prune mask into 8 bytes of 0/1 (the
/// in-memory representation of `bool`), bit `t` → byte `t`.
const fn spread_mask_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut t = 0;
        while t < 8 {
            table[b] |= (((b >> t) & 1) as u64) << (8 * t);
            t += 1;
        }
        b += 1;
    }
    table
}

/// Byte-spread lookup for [`prune_mask_row`]'s flag writes.
static SPREAD_MASK: [u64; 256] = spread_mask_table();

/// The fused prune scan of one scores row: per element, `pruned =
/// s < threshold` (Eq. 3), the pruned positions masked to `-inf` in
/// *both* the scores row and the probability staging row, the flag
/// byte written, and the kept count returned. Comparison, select and
/// stores are exact operations, so the results are bit-identical to
/// the scalar tier's sequential loop (NaN scores compare false and
/// stay kept).
///
/// # Safety
///
/// Requires AVX2+FMA. All three slices should have equal length
/// (debug-asserted); the trip count is bounded by the shortest.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn prune_mask_row(
    srow: &mut [f32],
    prow: &mut [f32],
    flags: &mut [bool],
    threshold: f32,
) -> usize {
    debug_assert!(
        srow.len() == prow.len() && srow.len() == flags.len(),
        "prune_mask_row of unequal lengths"
    );
    let n = srow.len().min(prow.len()).min(flags.len());
    let th = _mm256_set1_ps(threshold);
    let ninf = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut kept = 0usize;
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds the loads, the two 8-float
        // stores, and the 8-byte flag store.
        unsafe {
            let s = load8(srow, i);
            let pruned = _mm256_cmp_ps::<_CMP_LT_OQ>(s, th);
            let masked = _mm256_blendv_ps(s, ninf, pruned);
            _mm256_storeu_ps(srow.as_mut_ptr().add(i), masked);
            _mm256_storeu_ps(prow.as_mut_ptr().add(i), masked);
            let bits = _mm256_movemask_ps(pruned) as u32 & 0xff;
            kept += 8 - bits.count_ones() as usize;
            // `bool` is guaranteed to be one byte holding 0 or 1; the
            // table spreads bit t of the mask into byte t.
            flags
                .as_mut_ptr()
                .add(i)
                .cast::<u64>()
                .write_unaligned(SPREAD_MASK[bits as usize]);
        }
        i += 8;
    }
    while i < n {
        let s = srow[i];
        let pruned = s < threshold;
        flags[i] = pruned;
        kept += usize::from(!pruned);
        let masked = if pruned { f32::NEG_INFINITY } else { s };
        srow[i] = masked;
        prow[i] = masked;
        i += 1;
    }
    kept
}

/// Maximum over a row: `maxps` lanes (`a > b ? a : b`), a 4 → 2 → 1
/// tree, an `f32::max` tail — the scalar tier's `row_max` bit for bit,
/// NaN handling included.
///
/// # Safety
///
/// Requires AVX2+FMA. `row` should be non-empty (debug-asserted; an
/// empty row returns `-inf`).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn row_max(row: &[f32]) -> f32 {
    debug_assert!(!row.is_empty(), "row_max of empty row");
    let n = row.len();
    let mut best = f32::NEG_INFINITY;
    let mut i = 0;
    if n >= 8 {
        // SAFETY: `n >= 8` bounds the first load; `i + 8 <= n` the rest.
        let mut m = unsafe { load8(row, 0) };
        i = 8;
        while i + 8 <= n {
            m = _mm256_max_ps(m, unsafe { load8(row, i) });
            i += 8;
        }
        let lo = _mm256_castps256_ps128(m);
        let hi = _mm256_extractf128_ps::<1>(m);
        let s = _mm_max_ps(lo, hi);
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_movehdup_ps(s));
        best = _mm_cvtss_f32(s);
    }
    while i < n {
        best = best.max(row[i]);
        i += 1;
    }
    best
}

/// `row[t] *= factor` — element-wise, bit-identical to the scalar loop.
///
/// # Safety
///
/// Requires AVX2+FMA (no shape precondition).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn scale_row(row: &mut [f32], factor: f32) {
    let n = row.len();
    let f = _mm256_set1_ps(factor);
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds the load and store.
        unsafe {
            let p = row.as_mut_ptr().add(i);
            _mm256_storeu_ps(p, _mm256_mul_ps(_mm256_loadu_ps(p), f));
        }
        i += 8;
    }
    while i < n {
        row[i] *= factor;
        i += 1;
    }
}

/// `out[t] = fma(a, x[t], out[t])` — one fused multiply-add per
/// element, one key's step of [`av_row`]'s generic path and the same
/// per-element chain as its register-resident `d_v == 64` path; the
/// scalar tier runs the same `mul_add` per element.
///
/// # Safety
///
/// Requires AVX2+FMA. Slices should have equal length
/// (debug-asserted); the trip count is bounded by the shorter one.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy of unequal lengths");
    let n = out.len().min(x.len());
    let va = _mm256_set1_ps(a);
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds the loads and the store.
        unsafe {
            let po = out.as_mut_ptr().add(i);
            let vx = load8(x, i);
            _mm256_storeu_ps(po, _mm256_fmadd_ps(va, vx, _mm256_loadu_ps(po)));
        }
        i += 8;
    }
    while i < n {
        out[i] = a.mul_add(x[i], out[i]);
        i += 1;
    }
}

/// One output row of the AV stage over a contiguous row-major `V`:
/// `out[t] += Σ_j probs[j] * v[j*d_v + t]`, ascending `j`, one fused
/// multiply-add per element — the scalar tier's accumulation chain.
/// Each element's chain starts from `out`, so walking the keys in
/// consecutive blocks over several calls gives the one-call bits. With
/// `skip_zero`, keys whose probability is exactly `0.0` are skipped
/// (the sparse pruned-AV contract); without it every key contributes
/// (the dense-crossover path).
///
/// The `d_v == 64` case (every studied model) keeps the output row
/// resident in eight `ymm` accumulators across all keys — one load
/// and one store of the row total, instead of one per key.
///
/// # Safety
///
/// Requires AVX2+FMA. Expects `out.len() == d_v` and
/// `probs.len() * d_v <= v.len()` (debug-asserted); trip counts are
/// clamped to the slice lengths regardless.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn av_row(
    out: &mut [f32],
    probs: &[f32],
    v: &[f32],
    d_v: usize,
    skip_zero: bool,
) {
    debug_assert_eq!(out.len(), d_v, "output row width");
    debug_assert!(probs.len() * d_v <= v.len(), "V too short for probs");
    if d_v == 64 && out.len() == 64 {
        // SAFETY: AVX2+FMA hold for the whole function.
        unsafe { av_row64(out, probs, v, skip_zero) };
        return;
    }
    let keys = probs.len().min(v.len().checked_div(d_v).unwrap_or(0));
    for (j, &p) in probs.iter().take(keys).enumerate() {
        if skip_zero && p == 0.0 {
            continue;
        }
        // SAFETY: `j < keys` bounds the V row; lengths match by slicing.
        unsafe { axpy(out, p, &v[j * d_v..(j + 1) * d_v]) };
    }
}

/// [`av_row`] specialized to `d_v == 64`: the output row lives in
/// eight `ymm` accumulators across the whole key loop. Same
/// per-element order (ascending `j`, one FMA per element) as the
/// generic path and [`axpy`].
///
/// # Safety
///
/// Requires AVX2+FMA and `out.len() == 64` (checked by the caller);
/// the key count is clamped to `v.len() / 64`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn av_row64(out: &mut [f32], probs: &[f32], v: &[f32], skip_zero: bool) {
    debug_assert_eq!(out.len(), 64);
    let keys = probs.len().min(v.len() / 64);
    let mut acc = [_mm256_setzero_ps(); 8];
    for (t, slot) in acc.iter_mut().enumerate() {
        // SAFETY: `out.len() == 64` bounds every 8-float load.
        *slot = unsafe { load8(out, t * 8) };
    }
    // SAFETY: `keys` is clamped so every V row in the span is in bounds.
    unsafe { av_span64(&mut acc, probs, 0, keys, v, skip_zero) };
    for (t, slot) in acc.iter().enumerate() {
        // SAFETY: `out.len() == 64` bounds every 8-float store.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(t * 8), *slot) };
    }
}

/// Accumulates keys `[j0, j1)` into the 64-wide register-resident AV
/// accumulators — the shared span walk of [`av_row64`] (one span) and
/// [`av_rows64`] (one span per key panel). With `skip_zero` the span
/// is scanned eight probabilities at a time (`p != 0.0` compare +
/// movemask; NaN compares true, matching the scalar `p == 0.0` skip)
/// and the surviving keys processed in ascending bit order — the
/// identical keys in the identical order as the per-key branch, so the
/// chunked scan never changes the accumulation chain.
///
/// # Safety
///
/// Requires AVX2+FMA, `j1 <= probs.len()` and `j1 * 64 <= v.len()`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn av_span64(
    acc: &mut [__m256; 8],
    probs: &[f32],
    j0: usize,
    j1: usize,
    v: &[f32],
    skip_zero: bool,
) {
    debug_assert!(j1 <= probs.len() && j1 * 64 <= v.len());
    if skip_zero {
        let zero = _mm256_setzero_ps();
        let mut j = j0;
        while j + 8 <= j1 {
            // SAFETY: `j + 8 <= j1 <= probs.len()` bounds the load.
            let vp8 = unsafe { load8(probs, j) };
            let mut bits =
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(vp8, zero)) as u32 & 0xff;
            while bits != 0 {
                let t = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // SAFETY: `j + t < j1` implies the V row is in bounds.
                unsafe { av_key64(acc, probs[j + t], v, j + t) };
            }
            j += 8;
        }
        for (off, &p) in probs[j..j1].iter().enumerate() {
            if p != 0.0 {
                // SAFETY: `j + off < j1` bounds the V row.
                unsafe { av_key64(acc, p, v, j + off) };
            }
        }
    } else {
        for (j, &p) in probs.iter().enumerate().take(j1).skip(j0) {
            // SAFETY: `j < j1` bounds the V row.
            unsafe { av_key64(acc, p, v, j) };
        }
    }
}

/// Key-panel width of the blocked row-block AV: 32 key rows of
/// `d_v = 64` floats is an 8 KiB panel of `V` that stays L1-resident
/// while every output row accumulates its contribution. The
/// single-pass walk streams all of `V` from L2 once *per output row*
/// and is bandwidth-bound; panel blocking streams it once per panel.
const KEY_PANEL: usize = 32;

/// Row-block AV for `d_v == 64`: every output row accumulates the
/// current key panel before the sweep advances, with each row's
/// partial sums spilled to and reloaded from the output row between
/// panels. A register spill is exact, and within a row the keys are
/// still visited in ascending order through the same [`av_key64`] FMA
/// chain — so each row's result is bit-identical to a standalone
/// [`av_row64`] call (asserted by the dispatch-layer tests).
///
/// `plans[i] = (live, skip_zero)` processes keys `0..live` of row `i`
/// (`live == 0` leaves the row untouched), skipping exactly-zero
/// probabilities when `skip_zero` is set. `out` rows are 64 wide and
/// `probs` rows hold one probability per `V` row (`v.len() / 64`).
///
/// # Safety
///
/// Requires AVX2+FMA. For every plan: row `i` of `out` and of `probs`
/// must exist, with `live * 64 <= v.len()` (debug-asserted; slices
/// bounds-check).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn av_rows64(out: &mut [f32], probs: &[f32], v: &[f32], plans: &[(usize, bool)]) {
    let s_k = v.len() / 64;
    debug_assert!(plans.len() * 64 <= out.len() && plans.len() * s_k <= probs.len());
    let max_live = plans.iter().map(|p| p.0).max().unwrap_or(0);
    debug_assert!(max_live <= s_k);
    let mut jb = 0;
    while jb < max_live {
        let panel_end = (jb + KEY_PANEL).min(max_live);
        for (i, &(live, skip_zero)) in plans.iter().enumerate() {
            let end = live.min(panel_end);
            if jb >= end {
                continue;
            }
            let orow = &mut out[i * 64..(i + 1) * 64];
            let mut acc = [_mm256_setzero_ps(); 8];
            for (t, slot) in acc.iter_mut().enumerate() {
                // SAFETY: `orow` is 64 long, bounding every 8-float load.
                *slot = unsafe { load8(orow, t * 8) };
            }
            // SAFETY: `end <= live <= s_k` bounds both the probability
            // row and the V rows.
            unsafe {
                av_span64(
                    &mut acc,
                    &probs[i * s_k..(i + 1) * s_k],
                    jb,
                    end,
                    v,
                    skip_zero,
                )
            };
            for (t, slot) in acc.iter().enumerate() {
                // SAFETY: `orow` is 64 long, bounding every 8-float store.
                unsafe { _mm256_storeu_ps(orow.as_mut_ptr().add(t * 8), *slot) };
            }
        }
        jb = panel_end;
    }
}

/// One key's contribution to the 64-wide register-resident AV
/// accumulators: one FMA per element, matching [`axpy`]'s chain so
/// the `d_v == 64` and generic walks agree bitwise.
///
/// # Safety
///
/// Requires AVX2+FMA and `(j + 1) * 64 <= v.len()` (callers bound `j`
/// by the clamped key count).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn av_key64(acc: &mut [__m256; 8], p: f32, v: &[f32], j: usize) {
    let vp = _mm256_set1_ps(p);
    let base = j * 64;
    for (t, slot) in acc.iter_mut().enumerate() {
        // SAFETY: the caller guarantees `base + 64 <= v.len()`.
        let vx = unsafe { load8(v, base + t * 8) };
        *slot = _mm256_fmadd_ps(vp, vx, *slot);
    }
}

/// The QK-PU's MAC chain over two `i8` code rows: sixteen codes at a
/// time are widened to `i16` and multiplied pairwise into eight `i32`
/// lanes (`vpmaddwd`: `i8` products and their pair sums are exact), the
/// lanes summed and the `len % 16` tail added scalar. Integer sums are
/// exact in any order, so the value is the scalar tier's.
///
/// # Safety
///
/// Requires AVX2+FMA. Slices should have equal length
/// (debug-asserted); the trip count is bounded by the shorter one.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn idot(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "idot of unequal lengths");
    let n = a.len().min(b.len());
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n` bounds both 16-byte loads.
        unsafe {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
        }
        i += 16;
    }
    let mut sum = hsum_epi32(acc);
    for (&x, &y) in a[i..n].iter().zip(&b[i..n]) {
        sum = sum.wrapping_add(i32::from(x) * i32::from(y));
    }
    sum
}

/// The QK-PU over one query row, one call for all its kept keys:
/// `out[n]` gets the [`idot`] of the `i8` query codes with key
/// `kept[n]`'s codes as `f32` times `lsb`.
///
/// # Safety
///
/// Requires AVX2+FMA. Every key row should have `q.len()` codes
/// (debug-asserted); the trip count is bounded by the shorter one.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn qk_row<'k>(
    q: &[i8],
    kept: &[u32],
    key: impl Fn(usize) -> &'k [i8],
    lsb: f32,
    out: &mut [f32],
) {
    for (slot, &j) in out.iter_mut().zip(kept) {
        let k = key(j as usize);
        debug_assert_eq!(k.len(), q.len(), "key row width");
        // SAFETY: the caller guarantees AVX2+FMA.
        *slot = unsafe { idot(q, k) } as f32 * lsb;
    }
}

/// The V-PU over one query row, one call for all its kept keys: `acc`
/// gets `Σ code(probs[n]) × value(kept[n])`, keys whose 8-bit
/// probability code ([`crate::softmax::prob_code`], at most 255) is
/// zero skipped. Each 64-column block of the row lives in eight `ymm`
/// accumulators across all the keys, one store per block; the
/// surviving keys go in pairs through [`vpu_pair64`]. The last
/// `d_v % 64` columns accumulate through memory eight at a time, then
/// scalar. Integer sums: exact in any order, the scalar tier's bits.
///
/// # Safety
///
/// Requires AVX2+FMA. Every value row should have `acc.len()` codes
/// (slicing panics otherwise, before any out-of-bounds load).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn vpu_row<'v>(
    acc: &mut [i32],
    kept: &[u32],
    probs: &[f32],
    value: impl Fn(usize) -> &'v [i8],
) {
    let d_v = acc.len();
    let mut cb = 0;
    while cb + 64 <= d_v {
        let (mut lo, mut hi) = ([_mm256_setzero_si256(); 4], [_mm256_setzero_si256(); 4]);
        let mut pending: Option<(i32, &[i8])> = None;
        let mut add = |code: i32, j: u32| {
            let v = &value(j as usize)[cb..cb + 64];
            match pending.take() {
                None => pending = Some((code, v)),
                // SAFETY: both rows hold 64 codes, both codes `0..=255`.
                Some(first) => unsafe { vpu_pair64(&mut lo, &mut hi, first, (code, v)) },
            }
        };
        let n = kept.len().min(probs.len());
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n <= probs.len()` bounds the load.
            let codes = prob_codes8(unsafe { load8(probs, i) });
            let mut lanes = [0i32; 8];
            // SAFETY: `lanes` holds eight `i32`.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), codes) };
            let mut live = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(
                codes,
                _mm256_setzero_si256(),
            ))) as u32;
            while live != 0 {
                let t = live.trailing_zeros() as usize;
                live &= live - 1;
                add(lanes[t], kept[i + t]);
            }
            i += 8;
        }
        for (&j, &p) in kept[i..n].iter().zip(&probs[i..n]) {
            let code = crate::softmax::prob_code(p);
            if code != 0 {
                add(code, j);
            }
        }
        if let Some(first) = pending {
            // SAFETY: the row holds 64 codes; a zero code adds nothing.
            unsafe { vpu_pair64(&mut lo, &mut hi, first, (0, first.1)) };
        }
        for (g, (l, h)) in lo.iter().zip(&hi).enumerate() {
            // SAFETY: `cb + 64 <= d_v` bounds both 8-lane stores.
            unsafe {
                let out = acc.as_mut_ptr().add(cb + 16 * g);
                _mm256_storeu_si256(out.cast(), _mm256_permute2x128_si256::<0x20>(*l, *h));
                _mm256_storeu_si256(out.add(8).cast(), _mm256_permute2x128_si256::<0x31>(*l, *h));
            }
        }
        cb += 64;
    }
    let rest = &mut acc[cb..];
    if rest.is_empty() {
        return;
    }
    rest.fill(0);
    let n = rest.len();
    for (&j, &p) in kept.iter().zip(probs) {
        let code = crate::softmax::prob_code(p);
        if code == 0 {
            continue;
        }
        let vp = _mm256_set1_epi32(code);
        let v = &value(j as usize)[cb..cb + n];
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds the loads and the store.
            unsafe {
                let pa: *mut __m256i = rest.as_mut_ptr().add(i).cast();
                let c = _mm256_cvtepi8_epi32(_mm_loadl_epi64(v.as_ptr().add(i).cast()));
                _mm256_storeu_si256(
                    pa,
                    _mm256_add_epi32(_mm256_loadu_si256(pa), _mm256_mullo_epi32(vp, c)),
                );
            }
            i += 8;
        }
        for (a, &c) in rest[i..].iter_mut().zip(&v[i..]) {
            *a = a.wrapping_add(code.wrapping_mul(i32::from(c)));
        }
    }
}

/// `y` rounded half up after clamping it to `[0, top]` (a NaN to 0), in
/// eight lanes: the truncation, plus one where the exact fraction is at
/// least one half. For an integer `top` below `2²⁴` this is the scalar
/// `round_half_up(y).min(top)` of `crate::softmax`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn round_clamped(y: __m256, top: f32) -> __m256i {
    // `maxps` returns its second operand for a NaN first one.
    let y = _mm256_min_ps(_mm256_max_ps(y, _mm256_setzero_ps()), _mm256_set1_ps(top));
    let whole = _mm256_cvttps_epi32(y);
    let frac = _mm256_sub_ps(y, _mm256_cvtepi32_ps(whole));
    // All ones (−1) in the lanes that round up.
    let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5)));
    _mm256_sub_epi32(whole, up)
}

/// [`crate::softmax::prob_code`] of eight probabilities.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn prob_codes8(p: __m256) -> __m256i {
    round_clamped(_mm256_mul_ps(p, _mm256_set1_ps(255.0)), 255.0)
}

/// The two-LUT exponent pass, eight scores at a time: the offset
/// `max − s` over the step (`vdivps`), its 12-bit code by
/// [`round_clamped`], the coarse and fine entries gathered from `i32`
/// copies of the two tables, their product over `255²` (`vdivps`), and
/// `+0.0` where `s` is `-inf`. Each lane is the scalar
/// `SoftmaxLut::exp_score`; the tail calls it.
///
/// # Safety
///
/// Requires AVX2+FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn lut_exps(unit: &crate::SoftmaxLut, row: &mut [f32], max: f32) {
    let (step, coarse, fine) = unit.tables();
    let widen = |table: &[u8; 64]| -> [i32; 64] { std::array::from_fn(|t| i32::from(table[t])) };
    let (coarse32, fine32) = (widen(coarse), widen(fine));
    let (vmax, vstep) = (_mm256_set1_ps(max), _mm256_set1_ps(step));
    let (low6, square) = (_mm256_set1_epi32(63), _mm256_set1_ps(255.0 * 255.0));
    let n = row.len();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds the load and the store; every
        // gather index is a 6-bit half of a code in `0..4096`.
        unsafe {
            let s = load8(row, i);
            let code = round_clamped(_mm256_div_ps(_mm256_sub_ps(vmax, s), vstep), 4095.0);
            let hi = _mm256_i32gather_epi32::<4>(coarse32.as_ptr(), _mm256_srli_epi32::<6>(code));
            let lo = _mm256_i32gather_epi32::<4>(fine32.as_ptr(), _mm256_and_si256(code, low6));
            let e = _mm256_div_ps(_mm256_cvtepi32_ps(_mm256_mullo_epi32(hi, lo)), square);
            let masked = _mm256_cmp_ps::<_CMP_EQ_OQ>(s, _mm256_set1_ps(f32::NEG_INFINITY));
            _mm256_storeu_ps(row.as_mut_ptr().add(i), _mm256_andnot_ps(masked, e));
        }
        i += 8;
    }
    for s in &mut row[i..] {
        *s = unit.exp_score(max, *s);
    }
}

/// The divider pass, eight exponents at a time: `e / sum · 255` coded
/// by [`round_clamped`], over 255. Each lane is the scalar
/// `softmax::divide8`; the tail calls it.
///
/// # Safety
///
/// Requires AVX2+FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn lut_normalize(row: &mut [f32], sum: f32) {
    let (vsum, scale) = (_mm256_set1_ps(sum), _mm256_set1_ps(255.0));
    let n = row.len();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds the load and the store.
        unsafe {
            let y = _mm256_mul_ps(_mm256_div_ps(load8(row, i), vsum), scale);
            let p = _mm256_div_ps(_mm256_cvtepi32_ps(round_clamped(y, 255.0)), scale);
            _mm256_storeu_ps(row.as_mut_ptr().add(i), p);
        }
        i += 8;
    }
    for p in &mut row[i..] {
        *p = crate::softmax::divide8(*p, sum);
    }
}

/// Two keys' contribution to a 64-column V-PU block. Per 16 columns,
/// both rows' codes widen to `i16` and interleave (`vpunpck*wd`, within
/// each 128-bit half), so one `vpmaddwd` against the broadcast code
/// pair gives `c0·v0[t] + c1·v1[t]` for eight columns: `lo[g]` holds
/// columns `16g + {0..4, 8..12}`, `hi[g]` columns `16g + {4..8, 12..16}`
/// (the caller's `vperm2i128` restores the order). Codes of at most 255
/// times `i8` values, summed in pairs, are exact in `i16` × `i16` → `i32`.
///
/// # Safety
///
/// Requires AVX2+FMA; both value rows must hold at least 64 codes and
/// both codes lie in `0..=255`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn vpu_pair64(
    lo: &mut [__m256i; 4],
    hi: &mut [__m256i; 4],
    (c0, v0): (i32, &[i8]),
    (c1, v1): (i32, &[i8]),
) {
    debug_assert!(
        v0.len() >= 64 && v1.len() >= 64 && (0..=255).contains(&c0) && (0..=255).contains(&c1)
    );
    let codes = _mm256_set1_epi32(c1 << 16 | c0);
    for (g, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
        // SAFETY: `16 g + 16 <= 64` bounds both 16-byte loads.
        let (a, b) = unsafe {
            (
                _mm256_cvtepi8_epi16(_mm_loadu_si128(v0.as_ptr().add(16 * g).cast())),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(v1.as_ptr().add(16 * g).cast())),
            )
        };
        *l = _mm256_add_epi32(*l, _mm256_madd_epi16(_mm256_unpacklo_epi16(a, b), codes));
        *h = _mm256_add_epi32(*h, _mm256_madd_epi16(_mm256_unpackhi_epi16(a, b), codes));
    }
}

/// [`super::lane_sums`]: two blocks at a time (one at the end when
/// their count is odd), each block's 16 column sums in four `ymm`
/// accumulators of four `f64` lanes; per row, the weights times the
/// broadcast drive (`mulpd`, then `addpd`: never fused). Every sum is
/// the scalar tier's chain; pairing blocks only interleaves eight
/// independent chains.
///
/// # Safety
///
/// Requires AVX2. `weights` should hold whole blocks of
/// `drive.len() × 16` cells (debug-asserted); a ragged end is ignored.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn lane_sums(weights: &[f64], drive: &[f64], out: &mut Vec<f64>) {
    const LANES: usize = super::SUM_LANES;
    let block = drive.len() * LANES;
    debug_assert_eq!(weights.len() % block, 0, "ragged lane blocks");
    let mut pairs = weights.chunks_exact(2 * block);
    for pair in pairs.by_ref() {
        let (a, b) = pair.split_at(block);
        // SAFETY: both blocks hold `drive.len() × LANES` cells.
        unsafe { block_sums::<2>([a, b], drive, out) };
    }
    if let Some(last) = pairs.remainder().chunks_exact(block).next() {
        // SAFETY: the block holds `drive.len() × LANES` cells.
        unsafe { block_sums::<1>([last], drive, out) };
    }
}

/// The column sums of `B` lane blocks of `drive.len() × 16` cells,
/// appended block by block.
///
/// # Safety
///
/// Requires AVX2; every block must hold `drive.len() × 16` cells.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn block_sums<const B: usize>(blocks: [&[f64]; B], drive: &[f64], out: &mut Vec<f64>) {
    const LANES: usize = super::SUM_LANES;
    let mut acc = [[_mm256_setzero_pd(); LANES / 4]; B];
    for (r, &x) in drive.iter().enumerate() {
        let x = _mm256_set1_pd(x);
        for (block, acc) in blocks.iter().zip(acc.iter_mut()) {
            for (k, a) in acc.iter_mut().enumerate() {
                // SAFETY: row `r` of a block is `LANES` = 4 · 4 cells at
                // `r · LANES`, inside the block by the caller's promise.
                let w = unsafe { _mm256_loadu_pd(block.as_ptr().add(r * LANES + 4 * k)) };
                *a = _mm256_add_pd(*a, _mm256_mul_pd(w, x));
            }
        }
    }
    for acc in &acc {
        let mut sums = [0.0f64; LANES];
        for (k, a) in acc.iter().enumerate() {
            // SAFETY: `sums` holds `LANES` = 4 · 4 entries.
            unsafe { _mm256_storeu_pd(sums.as_mut_ptr().add(4 * k), *a) };
        }
        out.extend_from_slice(&sums);
    }
}
