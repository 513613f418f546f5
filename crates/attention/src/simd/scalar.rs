//! The scalar tier: the executable specification of the float bits.
//!
//! Every float kernel here performs the [`super::avx2`] kernel's
//! arithmetic one lane at a time — the same eight-lane accumulator
//! assignment, the same [`hsum`] reduction tree, `f32::mul_add` wherever
//! the vector body fuses, the same Cephes `exp` polynomial with its
//! `-87.0` flush, and the `maxps` select rule for maxima — so the two
//! tiers agree bit for bit on every input, non-finite ones included.
//! A future rung (AVX-512, NEON) is correct exactly when it reproduces
//! these functions' bits.
//!
//! Without target FMA, `f32::mul_add` is a libm `fmaf` call: this tier
//! is the slow, portable fallback, and its speed is the price of having
//! one answer per input. Never emulate the fused step through `f64`
//! (`(a as f64 * b as f64 + c as f64) as f32` rounds twice).

use std::ops::Range;

use super::cephes::{EXP_HI, EXP_LO, LN2_HI, LN2_LO, LOG2EF, P0, P1, P2, P3, P4, P5};
use super::SUM_LANES;
use crate::softmax::divide8;
use crate::{Matrix, SoftmaxLut};

/// Lane count of the float kernels' accumulators (one `ymm` of `f32`).
const LANES: usize = 8;

/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — the AVX2 tier's horizontal
/// sum tree.
fn hsum(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The `maxps` select: `a > b ? a : b` (a NaN in either operand yields
/// `b`).
fn maxps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `acc[l] = fma(a[l], b[l], acc[l])` over one 8-float chunk.
fn fma_lanes(acc: &mut [f32; LANES], a: &[f32], b: &[f32]) {
    for ((s, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *s = x.mul_add(y, *s);
    }
}

/// Dot product in the tier's one reduction order: two 8-lane
/// accumulators over 16-float chunks, an optional trailing 8-chunk into
/// the first, lane-wise `acc0 + acc1`, one [`hsum`], then a `mul_add`
/// tail.
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    let n = a.len().min(b.len());
    let (mut acc0, mut acc1) = ([0.0f32; LANES], [0.0f32; LANES]);
    let mut i = 0;
    while i + 2 * LANES <= n {
        fma_lanes(&mut acc0, &a[i..i + LANES], &b[i..i + LANES]);
        fma_lanes(
            &mut acc1,
            &a[i + LANES..i + 2 * LANES],
            &b[i + LANES..i + 2 * LANES],
        );
        i += 2 * LANES;
    }
    if i + LANES <= n {
        fma_lanes(&mut acc0, &a[i..i + LANES], &b[i..i + LANES]);
        i += LANES;
    }
    let mut sum = hsum(std::array::from_fn(|l| acc0[l] + acc1[l]));
    for (&x, &y) in a[i..n].iter().zip(&b[i..n]) {
        sum = x.mul_add(y, sum);
    }
    sum
}

/// `out[i][j] = scale * dot(a.row(i), b.row(j))` over the region,
/// leaving the rest of `out` (the region's rows, `b.rows()` wide)
/// untouched.
pub(super) fn matmul_transposed_scaled_into(
    a: &Matrix,
    b: &Matrix,
    scale: f32,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut [f32],
) {
    debug_assert_eq!(a.cols(), b.cols(), "inner dimensions must agree");
    for (i, out_row) in rows.zip(out.chunks_exact_mut(b.rows())) {
        let a_row = a.row(i);
        for j in cols.clone() {
            out_row[j] = scale * dot(a_row, b.row(j));
        }
    }
}

/// One lane of the AVX2 tier's `exp8`: clamp with the `maxps`/`minps`
/// rules (a NaN becomes `EXP_LO`), `n = floor(x·log2 e + 0.5)`, a
/// two-piece `ln 2` reduction, the degree-five polynomial, `2^n` through
/// the exponent field, and exactly `0.0` below the flush cutoff.
fn exp_lane(x: f32) -> f32 {
    let underflow = x < EXP_LO;
    let x = maxps(x, EXP_LO);
    let x = if x < EXP_HI { x } else { EXP_HI };
    let n = x.mul_add(LOG2EF, 0.5).floor();
    let r = (-n).mul_add(LN2_HI, x);
    let r = (-n).mul_add(LN2_LO, r);
    let r2 = r * r;
    let p = [P1, P2, P3, P4, P5]
        .into_iter()
        .fold(P0, |p, c| p.mul_add(r, c));
    let p = p.mul_add(r2, r) + 1.0;
    // |n| ≤ 128 after the clamps, so the biased exponent fits 8 bits.
    let pow2 = f32::from_bits(((n as i32 + 127) as u32) << 23);
    if underflow {
        0.0
    } else {
        p * pow2
    }
}

/// The softmax exponent pass: `row[t] = exp(row[t] - max)` through
/// [`exp_lane`] over whole 8-chunks with 8 lane partial sums and one
/// [`hsum`], then `f32::exp` (`-inf` → exactly `0.0`) on the tail.
pub(super) fn exp_rows(row: &mut [f32], max: f32) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut chunks = row.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for (s, lane) in chunk.iter_mut().zip(&mut lanes) {
            *s = exp_lane(*s - max);
            *lane += *s;
        }
    }
    let mut sum = hsum(lanes);
    for s in chunks.into_remainder() {
        *s = if *s == f32::NEG_INFINITY {
            0.0
        } else {
            (*s - max).exp()
        };
        sum += *s;
    }
    sum
}

/// Maximum of a row: 8 lane maxima by the `maxps` rule over whole
/// 8-chunks, the 8 → 4 → 2 → 1 `maxps` tree, then an `f32::max` fold
/// over the tail. `-inf` for an empty row.
pub(super) fn row_max(row: &[f32]) -> f32 {
    let mut chunks = row.chunks_exact(LANES);
    let mut best = f32::NEG_INFINITY;
    if let Some(first) = chunks.next() {
        let mut m: [f32; LANES] = first.try_into().expect("an 8-chunk");
        for chunk in &mut chunks {
            for (l, &x) in m.iter_mut().zip(chunk) {
                *l = maxps(*l, x);
            }
        }
        let s: [f32; 4] = std::array::from_fn(|l| maxps(m[l], m[l + 4]));
        best = maxps(maxps(s[0], s[2]), maxps(s[1], s[3]));
    }
    chunks.remainder().iter().fold(best, |b, &x| b.max(x))
}

/// `out[t] = fma(a, x[t], out[t])`.
fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy of unequal lengths");
    for (o, &xv) in out.iter_mut().zip(x) {
        *o = a.mul_add(xv, *o);
    }
}

/// One AV output row: [`axpy`] per key in ascending order, skipping
/// exactly-zero probabilities when `skip_zero` is set.
pub(super) fn av_row(out: &mut [f32], probs: &[f32], v: &[f32], d_v: usize, skip_zero: bool) {
    debug_assert_eq!(out.len(), d_v, "output row width");
    for (&p, v_row) in probs.iter().zip(v.chunks_exact(d_v)) {
        if !skip_zero || p != 0.0 {
            axpy(out, p, v_row);
        }
    }
}

/// The QK-PU's MAC chain: the `i8 × i8` dot of `a` and `b`, summed in
/// `i32` (exact: 8-bit products of any row length the crossbars and
/// heads use stay far inside `i32`).
pub(super) fn idot(a: &[i8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| i32::from(x) * i32::from(y))
        .sum()
}

/// The QK-PU over one query row: `out[n]` gets the [`idot`] of `q`
/// with key `kept[n]`'s codes as `f32` times `lsb`.
pub(super) fn qk_row<'k>(
    q: &[i8],
    kept: &[u32],
    key: impl Fn(usize) -> &'k [i8],
    lsb: f32,
    out: &mut [f32],
) {
    for (slot, &j) in out.iter_mut().zip(kept) {
        *slot = idot(q, key(j as usize)) as f32 * lsb;
    }
}

/// The V-PU over one query row: `acc` is zeroed, then every kept key
/// whose 8-bit probability code ([`crate::softmax::prob_code`] of
/// `probs[n]`) is not zero adds `code × value(kept[n])` element-wise.
pub(super) fn vpu_row<'v>(
    acc: &mut [i32],
    kept: &[u32],
    probs: &[f32],
    value: impl Fn(usize) -> &'v [i8],
) {
    acc.fill(0);
    for (&j, &p) in kept.iter().zip(probs) {
        let code = crate::softmax::prob_code(p);
        if code != 0 {
            for (a, &c) in acc.iter_mut().zip(value(j as usize)) {
                *a += code * i32::from(c);
            }
        }
    }
}

/// The two-LUT exponent pass: `row[t] = unit.exp_score(max, row[t])`.
pub(super) fn lut_exps(unit: &SoftmaxLut, row: &mut [f32], max: f32) {
    for s in row.iter_mut() {
        *s = unit.exp_score(max, *s);
    }
}

/// The divider pass: `row[t] = divide8(row[t], sum)`.
pub(super) fn lut_normalize(row: &mut [f32], sum: f32) {
    for p in row.iter_mut() {
        *p = divide8(*p, sum);
    }
}

/// The crossbar column sums over a lane-blocked `f64` weight image
/// `[block][row][lane]`: per block, every lane starts at `0.0` and takes
/// the rows ascending, `acc += w * x` as a multiply then an add (Rust
/// never fuses them).
pub(super) fn lane_sums(weights: &[f64], drive: &[f64], out: &mut Vec<f64>) {
    for block in weights.chunks_exact(drive.len() * SUM_LANES) {
        let mut acc = [0.0f64; SUM_LANES];
        for (cells, &x) in block.chunks_exact(SUM_LANES).zip(drive) {
            for (a, &w) in acc.iter_mut().zip(cells) {
                *a += w * x;
            }
        }
        out.extend_from_slice(&acc);
    }
}
