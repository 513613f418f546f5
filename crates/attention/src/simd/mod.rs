//! Runtime-dispatched SIMD kernel tiers for the hot attention loops.
//!
//! Two tiers exist: [`SimdTier::Avx2`], AVX2/FMA lanes for the fused
//! `Q × Kᵀ`, softmax, AV, and 8-bit QK-PU/V-PU paths, and
//! [`SimdTier::Scalar`], portable Rust that is the executable
//! specification of those lanes' bits. Tier selection is automatic at
//! runtime ([`active_tier`]) and overridable for testing via the
//! `SPRINT_SIMD={auto,scalar,avx2}` environment variable or
//! per-[`crate::Workspace`] / per-engine knobs.
//!
//! ## Equivalence contract
//!
//! Every kernel is bit-identical across tiers, on every input — NaN,
//! ±inf and the `exp` flush band included. The scalar float kernels
//! (`scalar.rs`) run the AVX2 operation order one lane at a time: the
//! same eight-lane accumulators and horizontal-sum tree, `f32::mul_add`
//! wherever a vector body fuses, the same Cephes `exp` polynomial and
//! `-87.0` flush, and the `maxps` select rule for maxima. The integer
//! kernels and the element-wise stages are exact in any order. So the
//! float modes' outputs do not depend on the host CPU, and a masked
//! `-inf` score is exactly `0.0` probability everywhere. The one host
//! dependence left is libm `f32::exp` on the exponent pass's tail
//! (the last `len % 8` entries of a row), which both tiers call:
//! replacing it would move the AVX2 tier's bits. `docs/simd.md`
//! documents the contract and how to add a lane.
//!
//! A forced [`SimdTier::Avx2`] on a host without AVX2+FMA is sanitized
//! back to [`SimdTier::Scalar`] everywhere a tier enters the system
//! ([`active_tier`], [`crate::Workspace::set_simd_tier`]), so a tier
//! in flight is always safe to dispatch on.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::ops::Range;
use std::sync::OnceLock;

use crate::Matrix;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

/// The Cephes `expf` constants both tiers' `exp` lanes share.
mod cephes {
    /// Flush-to-zero cutoff: lanes below it return exactly `0.0`.
    pub(super) const EXP_LO: f32 = -87.0;
    /// Above this, `expf` overflows to `inf`.
    pub(super) const EXP_HI: f32 = 88.376_26;
    pub(super) const LOG2EF: f32 = std::f32::consts::LOG2_E;
    pub(super) const LN2_HI: f32 = 0.693_359_4;
    pub(super) const LN2_LO: f32 = -2.121_944_4e-4;
    pub(super) const P0: f32 = 1.987_569_1e-4;
    pub(super) const P1: f32 = 1.398_199_9e-3;
    pub(super) const P2: f32 = 8.333_452e-3;
    pub(super) const P3: f32 = 4.166_579_6e-2;
    pub(super) const P4: f32 = 1.666_666_6e-1;
    pub(super) const P5: f32 = 5.000_000_3e-1;
}

/// One kernel tier. The scalar tier is always available; the AVX2 tier
/// requires runtime-detected AVX2 *and* FMA support. Both give the same
/// bits on every input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Portable Rust — the executable specification: the AVX2 tier's
    /// operation order one lane at a time.
    Scalar,
    /// AVX2/FMA vector lanes (x86-64 hosts with both features).
    Avx2,
}

impl SimdTier {
    /// The tier's canonical lowercase name (`"scalar"` / `"avx2"`),
    /// matching the `SPRINT_SIMD` knob values.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2() -> bool {
    false
}

/// Whether this host can run the AVX2 tier (runtime detection of AVX2
/// *and* FMA — the float lanes use fused multiply-adds).
pub fn avx2_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(detect_avx2)
}

/// Clamps a requested tier to what the host supports: forcing
/// [`SimdTier::Avx2`] on a host without AVX2+FMA falls back to
/// [`SimdTier::Scalar`] rather than faulting. Every entry point that
/// accepts a tier sanitizes through here, so a tier in flight can
/// always be dispatched on safely.
pub fn sanitize_tier(tier: SimdTier) -> SimdTier {
    match tier {
        SimdTier::Avx2 if !avx2_available() => SimdTier::Scalar,
        t => t,
    }
}

/// Parses an `SPRINT_SIMD` knob value. `None` means "auto" (unset,
/// `auto`, or anything unrecognized).
fn parse_knob(raw: Option<&str>) -> Option<SimdTier> {
    match raw.map(|s| s.trim().to_ascii_lowercase()).as_deref() {
        Some("scalar") => Some(SimdTier::Scalar),
        Some("avx2") => Some(SimdTier::Avx2),
        _ => None,
    }
}

/// The process-wide default tier: `SPRINT_SIMD` when set (sanitized),
/// otherwise the fastest tier the host supports. Read once and cached;
/// freshly constructed [`crate::Workspace`]s and engines inherit it.
pub fn active_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let forced = parse_knob(std::env::var("SPRINT_SIMD").ok().as_deref());
        sanitize_tier(forced.unwrap_or(if avx2_available() {
            SimdTier::Avx2
        } else {
            SimdTier::Scalar
        }))
    })
}

/// Dot product of two equal-length float rows: two 8-lane FMA
/// accumulators, one horizontal-sum tree, a `mul_add` tail.
pub(crate) fn dot(tier: SimdTier, a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::dot(a, b) };
    }
    let _ = tier;
    scalar::dot(a, b)
}

/// Tiered `out[i][j] = scale * (a.row(i) · b.row(j))` over a region,
/// leaving the rest of `out` untouched. `out` holds the region's rows
/// only, one `b.rows()`-wide row per row of `rows` (its first row is
/// `a`'s row `rows.start`), so a caller can hand each worker its own
/// block of a score matrix. Every cell is one [`dot`], so decode ≡
/// batch by construction.
pub(crate) fn matmul_transposed_scaled_into(
    tier: SimdTier,
    a: &Matrix,
    b: &Matrix,
    scale: f32,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; row accesses are bounds-checked.
        unsafe { avx2::matmul_transposed_scaled_into(a, b, scale, rows, cols, out) };
        return;
    }
    let _ = tier;
    scalar::matmul_transposed_scaled_into(a, b, scale, rows, cols, out);
}

/// Maximum of a row (`-inf` for an empty row): 8 lane maxima by the
/// `maxps` rule `a > b ? a : b`, a 4 → 2 → 1 tree, an `f32::max` tail.
pub(crate) fn row_max(tier: SimdTier, row: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && !row.is_empty() {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::row_max(row) };
    }
    let _ = tier;
    scalar::row_max(row)
}

/// `row[t] *= factor` (the softmax normalization).
pub(crate) fn scale_row(tier: SimdTier, row: &mut [f32], factor: f32) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::scale_row(row, factor) };
        return;
    }
    let _ = tier;
    for s in row.iter_mut() {
        *s *= factor;
    }
}

/// The fused prune scan of one scores row (Eq. 3): per element,
/// `pruned = s < threshold`; pruned positions are masked to `-inf` in
/// both the scores row and the probability staging row; the decision
/// flag is written; the kept count is returned. NaN scores compare
/// false and stay kept.
pub(crate) fn prune_mask_row(
    tier: SimdTier,
    srow: &mut [f32],
    prow: &mut [f32],
    flags: &mut [bool],
    threshold: f32,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::prune_mask_row(srow, prow, flags, threshold) };
    }
    let _ = tier;
    let mut kept = 0usize;
    for ((flag, s), p) in flags.iter_mut().zip(srow.iter_mut()).zip(prow.iter_mut()) {
        let pruned = *s < threshold;
        *flag = pruned;
        kept += usize::from(!pruned);
        let masked = if pruned { f32::NEG_INFINITY } else { *s };
        *s = masked;
        *p = masked;
    }
    kept
}

/// The softmax exponent pass: `row[t] = exp(row[t] - max)`, returning
/// the sum of the exponentials: the Cephes polynomial over whole
/// 8-chunks (flushing below `-87.0`) with 8 lane partial sums, then
/// `f32::exp` on the tail. `-inf` entries (masked scores) become
/// exactly `0.0`. `max` must be finite; callers handle the all-`-inf`
/// row before this.
pub(crate) fn exp_rows(tier: SimdTier, row: &mut [f32], max: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::exp_rows(row, max) };
    }
    let _ = tier;
    scalar::exp_rows(row, max)
}

/// One output row of the AV stage over a contiguous row-major `V`:
/// ascending-key accumulation, with `skip_zero` skipping exactly-zero
/// probabilities (the sparse pruned path) or visiting every key (the
/// dense-crossover path). One FMA per element, `out[t] = fma(p, v[t],
/// out[t])`; the skip and stream walks are bit-identical to each other.
/// Every element's chain starts from `out`, so walking the keys in
/// consecutive blocks (the decode kernel's `KvCache` pages) gives the
/// one-call bits.
pub(crate) fn av_row(
    tier: SimdTier,
    out: &mut [f32],
    probs: &[f32],
    v: &[f32],
    d_v: usize,
    skip_zero: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; trip counts are clamped to the slice lengths.
        unsafe { avx2::av_row(out, probs, v, d_v, skip_zero) };
        return;
    }
    let _ = tier;
    scalar::av_row(out, probs, v, d_v, skip_zero);
}

/// The row-block AV stage: row `i` of `out` (`d_v` floats) accumulates
/// row `i` of `probs` over its first `live` keys × V for each plan
/// `(live, skip_zero)` (`live == 0` leaves the row untouched — padded
/// queries). `probs` rows hold one probability per row of `v`
/// (`v.len() / d_v`). Every row is bit-identical to a standalone
/// [`av_row`] call: the AVX2 `d_v == 64` arm sweeps key panels across
/// all rows so the `V` panel stays L1-resident (spilling each row's
/// partial sums between panels, which is exact), every other
/// combination simply loops [`av_row`].
pub(crate) fn av_rows(
    tier: SimdTier,
    out: &mut [f32],
    probs: &[f32],
    v: &[f32],
    d_v: usize,
    plans: &[(usize, bool)],
) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && d_v == 64 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; plan bounds are debug-asserted and row slices
        // bounds-check.
        unsafe { avx2::av_rows64(out, probs, v, plans) };
        return;
    }
    let s_k = v.len() / d_v.max(1);
    for (i, &(live, skip_zero)) in plans.iter().enumerate() {
        if live > 0 {
            av_row(
                tier,
                &mut out[i * d_v..(i + 1) * d_v],
                &probs[i * s_k..i * s_k + live],
                v,
                d_v,
                skip_zero,
            );
        }
    }
}

/// Integer QK-PU dot of two `i8` code rows over the shorter row's
/// length, summed exactly in `i32`.
/// Public for `sprint-reram`'s one exact MSB dot, which walks its
/// crossbars' `i8` code image; a forced [`SimdTier::Avx2`] on a host
/// without it takes the scalar arm.
pub fn idot(tier: SimdTier, a: &[i8], b: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && avx2_available() {
        // SAFETY: AVX2+FMA were just confirmed; memory accesses are
        // slice-bounded.
        return unsafe { avx2::idot(a, b) };
    }
    let _ = tier;
    scalar::idot(a, b)
}

/// The two-LUT softmax's exponent pass over a row with maximum `max`:
/// `row[t] = unit.exp_score(max, row[t])` — the offset `max − s`
/// divided by the 12-bit step, rounded half up and saturated to a
/// 12-bit code, the two 6-bit halves' table entries multiplied and
/// divided by `255²`; exactly `0.0` for a `-inf` score. Every step is
/// exact or one correctly rounded operation, so lanes give the scalar
/// bits.
pub(crate) fn lut_exps(tier: SimdTier, unit: &crate::SoftmaxLut, row: &mut [f32], max: f32) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::lut_exps(unit, row, max) };
        return;
    }
    let _ = tier;
    scalar::lut_exps(unit, row, max);
}

/// The two-LUT softmax's divider over a row of exponents summing to
/// `sum`: `row[t] = round(row[t] / sum · 255) / 255`, the code
/// saturated to `0..=255`.
pub(crate) fn lut_normalize(tier: SimdTier, row: &mut [f32], sum: f32) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::lut_normalize(row, sum) };
        return;
    }
    let _ = tier;
    scalar::lut_normalize(row, sum);
}

/// The QK-PU over one query row: `out[n]` is `lsb` times the dot of
/// `q` with `key(kept[n])`, the exact `i32` sum of `i8 × i8` code
/// products, as `f32` (`out` and `kept` pair up to the shorter). One dispatch serves the
/// whole row; `key` maps a key index to its codes (a contiguous code
/// matrix in the batch kernel, a `KvCache` page in decode).
pub(crate) fn qk_row<'k>(
    tier: SimdTier,
    q: &[i8],
    kept: &[u32],
    key: impl Fn(usize) -> &'k [i8],
    lsb: f32,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::qk_row(q, kept, key, lsb, out) };
        return;
    }
    let _ = tier;
    scalar::qk_row(q, kept, key, lsb, out);
}

/// The V-PU over one query row: `acc` (one `i32` per value column) gets
/// `Σ code(probs[n]) × value(kept[n])`, where `code` is the 8-bit
/// probability code [`crate::softmax::prob_code`] and keys whose code
/// is zero are skipped. One dispatch serves the whole row; the sums
/// are exact integers, the same in any order.
pub(crate) fn vpu_row<'v>(
    tier: SimdTier,
    acc: &mut [i32],
    kept: &[u32],
    probs: &[f32],
    value: impl Fn(usize) -> &'v [i8],
) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::vpu_row(acc, kept, probs, value) };
        return;
    }
    let _ = tier;
    scalar::vpu_row(acc, kept, probs, value);
}

/// Columns per block of [`lane_sums`]' lane-blocked weight image.
pub const SUM_LANES: usize = 16;

/// The analog crossbar's noiseless column sums, one block of
/// [`SUM_LANES`] columns at a time, appended to `out`. `weights` is
/// lane-blocked, `[block][row][lane]` with `drive.len()` rows per block;
/// every column's sum starts at `0.0` and takes its rows ascending,
/// `acc += w * x` as a multiply then an add (never fused). Public for
/// `sprint-reram`'s crossbar tile (crate-private there), whose weight
/// image this is; a forced [`SimdTier::Avx2`] on a host without it
/// takes the scalar arm.
/// An empty `drive` appends nothing.
pub fn lane_sums(tier: SimdTier, weights: &[f64], drive: &[f64], out: &mut Vec<f64>) {
    if drive.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && avx2_available() {
        // SAFETY: AVX2+FMA were just confirmed; memory accesses are
        // chunk-bounded.
        unsafe { avx2::lane_sums(weights, drive, out) };
        return;
    }
    let _ = tier;
    scalar::lane_sums(weights, drive, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random floats in roughly [-1, 1).
    fn rand_f32(seed: u64, n: usize) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        (0..n)
            .map(|_| {
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51AFD7ED558CCD);
                ((x >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect()
    }

    /// Deterministic pseudo-random 8-bit-range codes.
    fn rand_codes(seed: u64, n: usize) -> Vec<i32> {
        let mut x = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(3);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                ((x >> 32) as i32 % 256) - 128
            })
            .collect()
    }

    /// Lengths crossing every remainder branch of the 8- and 16-wide
    /// loops: 0, 1, lane−1, lane, lane+1 for both widths, plus the
    /// studied head sizes.
    const TAIL_LENGTHS: &[usize] = &[
        0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129,
    ];

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `f64` bits as low, high `u32` halves.
    fn bits64(xs: &[f64]) -> Vec<u32> {
        xs.iter()
            .flat_map(|x| [x.to_bits() as u32, (x.to_bits() >> 32) as u32])
            .collect()
    }

    /// The tiers this host runs, scalar first.
    fn host_tiers() -> Vec<SimdTier> {
        let mut tiers = vec![SimdTier::Scalar];
        if avx2_available() {
            tiers.push(SimdTier::Avx2);
        }
        tiers
    }

    /// Every float kernel of one tier over the equal-length rows `x`
    /// and `y`, each kernel's outputs as bits under its name. `exp_rows`
    /// takes `max = 0`, so an entry of `x` is its own exponent offset.
    fn float_kernels(tier: SimdTier, x: &[f32], y: &[f32]) -> Vec<(&'static str, Vec<u32>)> {
        let n = x.len();
        let mut scaled = x.to_vec();
        scale_row(tier, &mut scaled, 0.7311);
        let (mut srow, mut prow, mut flags) = (x.to_vec(), y.to_vec(), vec![false; n]);
        let kept = prune_mask_row(tier, &mut srow, &mut prow, &mut flags, 0.1);
        let mut exps = x.to_vec();
        let sum = exp_rows(tier, &mut exps, 0.0);
        // The two-LUT passes see scores at or below their maximum, or
        // `-inf`; offsets run past the 12-bit range (the flush band).
        let unit = crate::SoftmaxLut::new(5.3).unwrap();
        let mut lut = x
            .iter()
            .map(|&s| {
                if s == f32::NEG_INFINITY || s <= 2.0 {
                    s
                } else {
                    1.5
                }
            })
            .collect::<Vec<_>>();
        lut_exps(tier, &unit, &mut lut, 2.0);
        let lut_sum = lut.iter().sum::<f32>().max(1e-3);
        let mut divided = lut.clone();
        lut_normalize(tier, &mut divided, lut_sum);
        // A sum below the largest exponent saturates codes at 255.
        let mut saturated = lut.clone();
        lut_normalize(tier, &mut saturated, 0.37);
        let mut out = vec![
            ("dot", vec![dot(tier, x, y).to_bits()]),
            ("row_max", vec![row_max(tier, x).to_bits()]),
            ("scale_row", bits(&scaled)),
            ("prune_mask_row scores", bits(&srow)),
            ("prune_mask_row probs", bits(&prow)),
            (
                "prune_mask_row flags",
                flags.iter().map(|&f| f.into()).collect(),
            ),
            ("prune_mask_row kept", vec![kept as u32]),
            ("exp_rows", bits(&exps)),
            ("exp_rows sum", vec![sum.to_bits()]),
            ("lut_exps", bits(&lut)),
            ("lut_normalize", bits(&divided)),
            ("lut_normalize saturated", bits(&saturated)),
        ];
        if n > 0 {
            // One key: a single fused multiply-add per element.
            let mut acc = y.to_vec();
            av_row(tier, &mut acc, &[0.4821], x, n, false);
            out.push(("av_row one key", bits(&acc)));
            let v = [x, y, x].concat();
            let probs = [0.3, 0.0, 0.7];
            for (name, skip_zero) in [("av_row skip", true), ("av_row stream", false)] {
                let mut row = y.to_vec();
                av_row(tier, &mut row, &probs, &v, n, skip_zero);
                out.push((name, bits(&row)));
            }
            let a = Matrix::from_vec(2, n, [x, y].concat()).unwrap();
            let b = Matrix::from_vec(3, n, v.clone()).unwrap();
            let mut scores = [0.0f32; 6];
            matmul_transposed_scaled_into(tier, &a, &b, 0.125, 0..2, 0..3, &mut scores);
            out.push(("matmul", bits(&scores)));
            let p = [0.3, 0.0, 0.7, 0.5, 0.5, 0.0, 0.0, 0.2, 0.9];
            let mut rows = [y, x, y].concat();
            let plans = [(3, true), (3, false), (2, true)];
            av_rows(tier, &mut rows, &p, &v, n, &plans);
            out.push(("av_rows", bits(&rows)));
            // A crossbar of `n` rows × `n` columns: the drive from `x`,
            // the cells from `y`, lanes past the last column `0.0`;
            // both finite, like codes and conductances.
            let finite = |v: f32| f64::from(if v.is_finite() { v } else { 1.0 });
            let drive: Vec<f64> = x.iter().map(|&v| finite(v)).collect();
            let blocks = n.div_ceil(SUM_LANES);
            let weights: Vec<f64> = (0..blocks * n * SUM_LANES)
                .map(|i| {
                    let (col, row) = (
                        i / (n * SUM_LANES) * SUM_LANES + i % SUM_LANES,
                        i / SUM_LANES % n,
                    );
                    if col < n {
                        finite(y[(row + col) % n]) * 1.1
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut sums = Vec::new();
            lane_sums(tier, &weights, &drive, &mut sums);
            out.push(("lane_sums", bits64(&sums[..n])));
        }
        out
    }

    /// Every integer kernel of one tier over the equal-length code rows
    /// `a` and `b`. The row kernels see five keys of `i8` codes — `a`,
    /// `b`, their negations and the `-128` extreme — kept in a scrambled
    /// order, each twice, with probabilities whose codes run from 0
    /// (skipped) to 255 around `p_code`; the dot pairs `a` with `b` and
    /// with its negation, and the extreme with itself and with `b`.
    fn integer_kernels(tier: SimdTier, a: &[i32], b: &[i32], p_code: i32) -> Vec<Vec<i32>> {
        let i8s =
            |row: &[i32]| -> Vec<i8> { row.iter().map(|&c| c.clamp(-128, 127) as i8).collect() };
        let (a8, b8) = (i8s(a), i8s(b));
        let neg = |row: &[i8]| -> Vec<i8> { row.iter().map(|&c| c.saturating_neg()).collect() };
        let keys = [
            a8.clone(),
            b8.clone(),
            neg(&a8),
            neg(&b8),
            vec![-128i8; a.len()],
        ];
        let key = |j: usize| keys[j].as_slice();
        let kept = [3u32, 0, 4, 1, 2, 2, 4, 0, 1, 3];
        let mut scores = vec![0.0f32; kept.len()];
        qk_row(tier, &b8, &kept, key, 0.37, &mut scores);
        let probs: Vec<f32> = (0..kept.len())
            .map(|n| ((p_code + 41 * n as i32) % 256) as f32 / 255.0)
            .collect();
        let mut acc = vec![7i32; a.len()];
        vpu_row(tier, &mut acc, &kept, &probs, key);
        let dots = [
            (&a8, &b8),
            (&a8, &keys[2]),
            (&keys[4], &keys[4]),
            (&keys[4], &b8),
        ];
        vec![
            dots.iter().map(|(x, y)| idot(tier, x, y)).collect(),
            scores.iter().map(|s| s.to_bits() as i32).collect(),
            acc,
        ]
    }

    /// Both tiers give the same bits from every float kernel.
    fn assert_tiers_agree(x: &[f32], y: &[f32], what: &str) {
        let scalar = float_kernels(SimdTier::Scalar, x, y);
        let vector = float_kernels(SimdTier::Avx2, x, y);
        for ((name, s), (_, v)) in scalar.iter().zip(&vector) {
            assert_eq!(s, v, "{name}, {what}");
        }
    }

    #[test]
    fn knob_parsing_recognizes_tiers_and_defaults_to_auto() {
        assert_eq!(parse_knob(Some("scalar")), Some(SimdTier::Scalar));
        assert_eq!(parse_knob(Some(" AVX2 ")), Some(SimdTier::Avx2));
        assert_eq!(parse_knob(Some("auto")), None);
        assert_eq!(parse_knob(Some("sse9")), None);
        assert_eq!(parse_knob(None), None);
    }

    #[test]
    fn sanitize_clamps_to_host_support() {
        assert_eq!(sanitize_tier(SimdTier::Scalar), SimdTier::Scalar);
        let forced = sanitize_tier(SimdTier::Avx2);
        if avx2_available() {
            assert_eq!(forced, SimdTier::Avx2);
        } else {
            assert_eq!(forced, SimdTier::Scalar);
        }
        assert_eq!(sanitize_tier(active_tier()), active_tier());
    }

    #[test]
    fn tier_names_round_trip_through_the_knob() {
        for tier in [SimdTier::Scalar, SimdTier::Avx2] {
            assert_eq!(parse_knob(Some(tier.name())), Some(tier));
            assert_eq!(format!("{tier}"), tier.name());
        }
    }

    /// Every kernel of `float_kernels` whose name starts with one of
    /// `kernels` gives both tiers' bits alike at every tail length, on
    /// plain rows and on rows with masked (−inf) scores.
    fn assert_tail_lengths_agree(kernels: &[&str]) {
        if !avx2_available() {
            return;
        }
        let chosen = |name: &str| kernels.iter().any(|k| name.starts_with(k));
        for &n in TAIL_LENGTHS {
            let x: Vec<f32> = rand_f32(n as u64 + 1, n).iter().map(|v| 6.0 * v).collect();
            let y = rand_f32(n as u64 + 1000, n);
            // Masked scores appear in real rows.
            let mut masked = x.clone();
            for s in masked.iter_mut().step_by(3) {
                *s = f32::NEG_INFINITY;
            }
            for (x, what) in [(&x, "plain"), (&masked, "masked")] {
                let scalar = float_kernels(SimdTier::Scalar, x, &y);
                let vector = float_kernels(SimdTier::Avx2, x, &y);
                for ((name, s), (_, v)) in scalar.iter().zip(&vector) {
                    if chosen(name) {
                        assert_eq!(s, v, "{name}, {what}, len {n}");
                    }
                }
            }
        }
        let names = float_kernels(SimdTier::Scalar, &[1.0], &[1.0]);
        for k in kernels {
            assert!(
                names.iter().any(|(name, _)| name.starts_with(k)),
                "no kernel {k}"
            );
        }
    }

    #[test]
    fn tail_lengths_dot_within_ulp_budget() {
        // The budget is zero ULP: every cell is the one dot order.
        assert_tail_lengths_agree(&["dot", "matmul"]);
    }

    #[test]
    fn tail_lengths_row_max_and_scale_are_bit_identical() {
        assert_tail_lengths_agree(&["row_max", "scale_row", "prune_mask_row"]);
    }

    #[test]
    fn tail_lengths_axpy_agrees_within_the_av_tolerance() {
        // The tolerance is zero: one fused multiply-add per element.
        assert_tail_lengths_agree(&["av_row"]);
    }

    #[test]
    fn tail_lengths_lut_softmax_passes_are_bit_identical() {
        assert_tail_lengths_agree(&["lut_exps", "lut_normalize"]);
    }

    #[test]
    fn tail_lengths_lane_sums_are_bit_identical() {
        // Rows and columns both sweep the tails: the 16-lane blocks
        // and the last block's unused lanes.
        assert_tail_lengths_agree(&["lane_sums"]);
    }

    #[test]
    fn tail_lengths_integer_kernels_are_bit_identical() {
        if !avx2_available() {
            return;
        }
        for &n in TAIL_LENGTHS {
            let (a, b) = (rand_codes(n as u64 + 41, n), rand_codes(n as u64 + 42, n));
            assert_eq!(
                integer_kernels(SimdTier::Scalar, &a, &b, 173),
                integer_kernels(SimdTier::Avx2, &a, &b, 173),
                "integer kernels, len {n}"
            );
        }
    }

    #[test]
    fn non_finite_and_flush_band_inputs_agree_across_tiers() {
        if !avx2_available() {
            return;
        }
        // 8: lanes 0–7 and no tail; 11: a chunk and a three-entry tail;
        // 19: the 16-wide dot chunk, an 8-lane row chunk and tails. The
        // flush band is `x − max` in [−87.336, −87.0): exactly 0.0 in a
        // lane, libm `exp` in the tail, on both tiers.
        for n in [8usize, 11, 19] {
            let base = rand_f32(n as u64 + 7, n);
            let y = rand_f32(n as u64 + 8, n);
            for pos in 0..n {
                let flush_band = [-87.0001, -87.2, -87.33];
                for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                    .into_iter()
                    .chain(flush_band)
                {
                    let mut x = base.clone();
                    x[pos] = value;
                    assert_tiers_agree(&x, &y, &format!("{value} at {pos} of {n}"));
                }
            }
        }
    }

    #[test]
    fn tail_lengths_av_row_modes_agree_and_walks_match_within_tier() {
        // d_v sweeps the lane boundaries; 64 exercises the
        // register-resident specialization.
        for &d_v in &[1usize, 7, 8, 9, 16, 31, 33, 64, 100] {
            for keys in [0usize, 1, 3, 17] {
                let v = rand_f32(d_v as u64 * 31 + keys as u64, keys * d_v);
                let mut probs = rand_f32(d_v as u64 + keys as u64 + 5, keys);
                // Mix in exact zeros so skip_zero has something to skip.
                for p in probs.iter_mut().step_by(2) {
                    *p = 0.0;
                }
                // Per tier, the skip walk and the stream walk visit the
                // surviving keys in the same order with the same
                // arithmetic (a visited zero probability is an exact
                // no-op), and every tier gives the scalar tier's bits.
                let mut walks = Vec::new();
                for tier in host_tiers() {
                    for skip_zero in [true, false] {
                        let mut out = rand_f32(9, d_v);
                        av_row(tier, &mut out, &probs, &v, d_v, skip_zero);
                        walks.push((tier, skip_zero, bits(&out)));
                    }
                }
                for (tier, skip_zero, walk) in &walks {
                    assert_eq!(
                        walk, &walks[0].2,
                        "{tier} skip {skip_zero}, d_v {d_v} keys {keys}"
                    );
                }
            }
        }
    }

    #[test]
    fn av_rows_is_bitwise_the_per_row_walk_on_both_tiers() {
        // The row-block stage only re-tiles the sweep (key panels
        // with exact register spills between them); every row must
        // match a standalone av_row call bit for bit. Key counts cross
        // the 32-key panel boundary both ways, d_v == 64 exercises the
        // panel kernel and 16 the fallback loop; plans mix skip/stream
        // rows, short live prefixes and untouched (live == 0) rows.
        for &d_v in &[64usize, 16] {
            for keys in [1usize, 31, 32, 33, 64, 65, 100] {
                let rows = 5;
                let v = rand_f32(keys as u64 * 7 + d_v as u64, keys * d_v);
                let mut probs = Matrix::zeros(rows, keys).unwrap();
                for i in 0..rows {
                    let mut row = rand_f32(i as u64 * 13 + keys as u64, keys);
                    for p in row.iter_mut().step_by(3) {
                        *p = 0.0;
                    }
                    probs.row_mut(i).copy_from_slice(&row);
                }
                let plans: Vec<(usize, bool)> = vec![
                    (keys, true),
                    (keys, false),
                    (0, true),
                    (keys.min(17), true),
                    (keys, true),
                ];
                for tier in host_tiers() {
                    let mut batched = Matrix::zeros(rows, d_v).unwrap();
                    av_rows(
                        tier,
                        batched.as_mut_slice(),
                        probs.as_slice(),
                        &v,
                        d_v,
                        &plans,
                    );
                    for (i, &(live, skip_zero)) in plans.iter().enumerate() {
                        let mut single = vec![0.0f32; d_v];
                        if live > 0 {
                            av_row(tier, &mut single, &probs.row(i)[..live], &v, d_v, skip_zero);
                        }
                        assert_eq!(
                            bits(batched.row(i)),
                            bits(&single),
                            "{tier} d_v {d_v} keys {keys} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiered_matmul_region_matches_scalar_within_ulp() {
        // Zero ULP: every cell is the one dot order on both tiers.
        if !avx2_available() {
            return;
        }
        for &d in &[31usize, 32, 33, 64, 100, 128] {
            let a = Matrix::from_vec(5, d, rand_f32(d as u64, 5 * d)).unwrap();
            let b = Matrix::from_vec(7, d, rand_f32(d as u64 + 7, 7 * d)).unwrap();
            let [scalar_out, vector_out] = [SimdTier::Scalar, SimdTier::Avx2].map(|tier| {
                let mut out = Matrix::zeros(5, 7).unwrap();
                let region = &mut out.as_mut_slice()[..4 * 7];
                matmul_transposed_scaled_into(tier, &a, &b, 0.125, 0..4, 0..6, region);
                out
            });
            assert_eq!(
                bits(scalar_out.as_slice()),
                bits(vector_out.as_slice()),
                "d {d}"
            );
            // Outside the region both stay zero.
            assert_eq!(vector_out.get(4, 6), 0.0);
        }
    }

    proptest! {
        #[test]
        fn prop_dot_tiers_agree_within_ulp(
            len in 0usize..130,
            seed in 0u64..500,
        ) {
            // Zero ULP: the scalar dot is the AVX2 reduction order.
            if avx2_available() {
                let a = rand_f32(seed, len);
                let b = rand_f32(seed.wrapping_add(77), len);
                prop_assert_eq!(
                    dot(SimdTier::Scalar, &a, &b).to_bits(),
                    dot(SimdTier::Avx2, &a, &b).to_bits(),
                    "len {}", len
                );
            }
        }

        #[test]
        fn prop_elementwise_kernels_agree(
            len in 0usize..130,
            seed in 0u64..500,
            factor in -2.0f32..2.0,
        ) {
            if avx2_available() {
                let x = rand_f32(seed, len);
                // One key of width `len`: one fused multiply-add per
                // element (a zero-width row has no key to walk).
                let [s_out, v_out] = [SimdTier::Scalar, SimdTier::Avx2].map(|tier| {
                    let mut out = rand_f32(seed.wrapping_add(5), len);
                    if len > 0 {
                        av_row(tier, &mut out, &[factor], &x, len, false);
                    }
                    out
                });
                prop_assert_eq!(bits(&s_out), bits(&v_out));
                let [s_scaled, v_scaled] = [SimdTier::Scalar, SimdTier::Avx2].map(|tier| {
                    let mut row = rand_f32(seed.wrapping_add(9), len);
                    scale_row(tier, &mut row, factor);
                    row
                });
                prop_assert_eq!(bits(&s_scaled), bits(&v_scaled));
            }
        }

        #[test]
        fn prop_integer_kernels_bit_identical(
            len in 0usize..130,
            seed in 0u64..500,
            p_code in 0i32..256,
        ) {
            if avx2_available() {
                let a = rand_codes(seed, len);
                let b = rand_codes(seed.wrapping_add(13), len);
                prop_assert_eq!(
                    integer_kernels(SimdTier::Scalar, &a, &b, p_code),
                    integer_kernels(SimdTier::Avx2, &a, &b, p_code)
                );
            }
        }

        #[test]
        fn prop_softmax_tiers_agree_with_exact_zeros_at_masks(
            len in 1usize..130,
            seed in 0u64..500,
            mask_every in 1usize..5,
        ) {
            if avx2_available() {
                let mut scores = rand_f32(seed, len);
                for s in scores.iter_mut().step_by(mask_every) {
                    *s = f32::NEG_INFINITY;
                }
                let [s_row, v_row] = [SimdTier::Scalar, SimdTier::Avx2].map(|tier| {
                    let mut row = scores.clone();
                    crate::softmax::softmax_inplace_tier(&mut row, tier);
                    row
                });
                prop_assert_eq!(bits(&s_row), bits(&v_row));
                // Masked positions are exactly +0.0: the pruned AV
                // walk's `p == 0.0` skip depends on it.
                for (i, _) in scores.iter().enumerate().filter(|(_, s)| **s == f32::NEG_INFINITY) {
                    prop_assert_eq!(v_row[i].to_bits(), 0.0f32.to_bits(), "masked slot {}", i);
                }
            }
        }

        #[test]
        fn prop_exp_rows_tiers_agree_and_sum_matches(
            len in 1usize..130,
            seed in 0u64..500,
        ) {
            if avx2_available() {
                let scores: Vec<f32> = rand_f32(seed, len).iter().map(|x| 6.0 * x).collect();
                let max = row_max(SimdTier::Scalar, &scores);
                let [(s_row, s_sum), (v_row, v_sum)] = [SimdTier::Scalar, SimdTier::Avx2].map(|tier| {
                    let mut row = scores.clone();
                    let sum = exp_rows(tier, &mut row, max);
                    (row, sum)
                });
                prop_assert_eq!(s_sum.to_bits(), v_sum.to_bits());
                prop_assert_eq!(bits(&s_row), bits(&v_row));
            }
        }
    }

    #[test]
    fn tail_lengths_exp_rows_zero_masked_slots_exactly() {
        assert_tail_lengths_agree(&["exp_rows"]);
        for tier in host_tiers() {
            for &n in TAIL_LENGTHS {
                if n == 0 {
                    continue;
                }
                let mut row: Vec<f32> =
                    rand_f32(n as u64 + 51, n).iter().map(|x| 3.0 * x).collect();
                // Masked scores, deep underflow, and a guaranteed max of 0.
                row[0] = 0.0;
                if n > 1 {
                    row[1] = f32::NEG_INFINITY;
                }
                if n > 2 {
                    row[2] = -120.0; // underflows expf: must be exactly 0.0
                }
                exp_rows(tier, &mut row, 0.0);
                for (slot, want) in [(0, 1.0f32), (1, 0.0), (2, 0.0)] {
                    if slot < n {
                        assert_eq!(
                            row[slot].to_bits(),
                            want.to_bits(),
                            "{tier} slot {slot} len {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_exp_tracks_f32_exp_to_relative_tolerance() {
        // The accuracy of the one `exp` polynomial (run on every tier
        // the host has; they agree bit for bit). The sweep covers the
        // softmax-relevant domain (offsets from the row max are always
        // ≤ 0) plus the positive side for completeness, and stops at
        // the flush cutoff (-87.0): below it the lanes return exactly
        // 0.0 by design while `f32::exp` still emits ~1e-38.
        for tier in host_tiers() {
            let mut worst = 0.0f32;
            for step in -3480..=300 {
                let x = step as f32 * 0.025;
                let mut row = [x; 8];
                exp_rows(tier, &mut row, 0.0);
                let exact = x.exp();
                let rel = if exact == 0.0 {
                    row[0].abs()
                } else {
                    (row[0] - exact).abs() / exact
                };
                worst = worst.max(rel);
            }
            assert!(worst <= 1e-6, "{tier}: worst relative exp error {worst}");
        }
    }

    #[test]
    fn avx2_matmul_cells_are_bitwise_equal_to_the_tier_dot() {
        // The decode ≡ batch contract: every cell of the blocked matmul
        // (dot4 lanes *and* remainder columns) must equal a standalone
        // tier `dot` bit for bit. Column counts 1..=9 cross the 4-block
        // boundary in every phase.
        for tier in host_tiers() {
            for &d in &[31usize, 33, 64, 100] {
                for cols in 1usize..=9 {
                    let a = Matrix::from_vec(3, d, rand_f32(d as u64 + 61, 3 * d)).unwrap();
                    let b = Matrix::from_vec(cols, d, rand_f32(d as u64 + 62, cols * d)).unwrap();
                    let mut out = Matrix::zeros(3, cols).unwrap();
                    let all = out.as_mut_slice();
                    matmul_transposed_scaled_into(tier, &a, &b, 1.0, 0..3, 0..cols, all);
                    for r in 0..3 {
                        for c in 0..cols {
                            let cell = out.get(r, c);
                            let lone = dot(tier, a.row(r), b.row(c));
                            assert_eq!(
                                cell.to_bits(),
                                lone.to_bits(),
                                "{tier} d {d} cols {cols} cell ({r},{c}): {cell} vs {lone}"
                            );
                        }
                    }
                }
            }
        }
    }
}
