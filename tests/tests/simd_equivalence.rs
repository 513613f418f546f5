//! The SIMD differential harness: every AVX2 lane is proven
//! bit-identical to the scalar tier it shadows, from raw kernels up
//! through the engine, decode sessions and the model server.
//!
//! # Equivalence contract
//!
//! One contract for every kernel, integer and float alike: the tiers
//! agree bit for bit. The scalar tier is the executable specification
//! of the AVX2 lanes (the same eight-lane accumulators and reduction
//! tree, `f32::mul_add` wherever a lane fuses, the same polynomial
//! `exp` and flush), so every score, probability, output, decision and
//! counter below is compared with `to_bits()` equality — all four
//! execution modes, batch and decode.
//!
//! Every AVX2-side assertion is gated on
//! [`sprint_attention::avx2_available`]; on non-AVX2 hosts the suite
//! degenerates to scalar-vs-scalar (still a valid, if tautological,
//! run) and prints a note.
//!
//! Geometry sweep: `d ∈ {31, 32, 33, 64, 100, 128}` crosses the 8-lane
//! boundary both ways (31/33), the one-register width (8), the
//! unrolled 64-wide specialization and a 4-remainder tail (100);
//! `s_q ≠ s_k` throughout; padded queries, all-pruned rows and
//! single-token histories ride along.

use proptest::prelude::*;
use sprint_attention::{
    pruned_attention_decode_with, pruned_attention_with, quantized_attention_decode_with,
    quantized_attention_with, AttentionConfig, KvCache, Matrix, PaddingMask, PruneDecision,
    SimdTier, Workspace,
};
use sprint_engine::{
    DecodeStep, Engine, ExecutionMode, HeadRequest, ModelProfile, ModelRequest, ModelServer,
    SessionRequest, SprintConfig,
};
use sprint_workloads::{ModelConfig, TraceGenerator};

/// Head dims crossing every lane-count regime of the AVX2 kernels.
const DIMS: [usize; 6] = [31, 32, 33, 64, 100, 128];

/// Rectangular (s_q, s_k) pairs — never square, never lane-aligned on
/// both sides at once.
const SHAPES: [(usize, usize); 4] = [(5, 33), (17, 8), (1, 64), (33, 31)];

/// Deterministic pseudo-random matrix from a seed (splitmix-style).
fn random_matrix(rows: usize, cols: usize, seed: u64, amp: f32) -> Matrix {
    let mut x = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(0x2545f4914f6cdd1d);
    let mut next = move || {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^= x >> 29;
        amp * (((x >> 40) as f32 / 16777216.0) - 0.5)
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
}

/// A pair of workspaces pinned to the two tiers, or `None` when the
/// host cannot execute the AVX2 tier (the differential then has
/// nothing to differentiate).
fn tier_pair() -> Option<(Workspace, Workspace)> {
    if !sprint_attention::avx2_available() {
        eprintln!("note: host lacks AVX2+FMA; simd differential degenerates to scalar-vs-scalar");
        return None;
    }
    let mut scalar = Workspace::new();
    scalar.set_simd_tier(SimdTier::Scalar);
    let mut avx2 = Workspace::new();
    avx2.set_simd_tier(SimdTier::Avx2);
    assert_eq!(scalar.simd_tier(), SimdTier::Scalar);
    assert_eq!(avx2.simd_tier(), SimdTier::Avx2);
    Some((scalar, avx2))
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts two matrices hold the same bits.
fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shapes");
    assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{what}");
}

// ---------------------------------------------------------------------------
// Kernel level
// ---------------------------------------------------------------------------

/// The float dot's contract is zero ULP: scores, probabilities and
/// outputs are bitwise equal across tiers. Dense attention is the pruned
/// kernel at threshold `f32::MIN`.
#[test]
fn dense_kernels_hold_the_ulp_contract_across_lane_boundaries() {
    let Some((mut scalar, mut avx2)) = tier_pair() else {
        return;
    };
    for &d in &DIMS {
        for &(s_q, s_k) in &SHAPES {
            for seed in [3u64, 77, 901] {
                let q = random_matrix(s_q, d, seed, 2.0);
                let k = random_matrix(s_k, d, seed ^ 1, 2.0);
                let v = random_matrix(s_k, d, seed ^ 2, 1.0);
                let cfg = AttentionConfig::new(d);
                let (s, sd) =
                    pruned_attention_with(&q, &k, &v, &cfg, f32::MIN, None, &mut scalar).unwrap();
                let (a, ad) =
                    pruned_attention_with(&q, &k, &v, &cfg, f32::MIN, None, &mut avx2).unwrap();
                let what = format!("d={d} ({s_q}x{s_k}) seed {seed}");
                assert_eq!(sd, ad, "dense decisions {what}");
                for dec in &sd {
                    assert_eq!(dec.kept_count(), s_k, "dense keeps every key {what}");
                }
                assert_bitwise(&s.scores, &a.scores, &format!("dense scores {what}"));
                assert_bitwise(&s.probs, &a.probs, &format!("dense probs {what}"));
                assert_bitwise(&s.output, &a.output, &format!("dense output {what}"));
            }
        }
    }
}

#[test]
fn pruned_kernels_agree_on_decisions_masks_and_all_pruned_rows() {
    let Some((mut scalar, mut avx2)) = tier_pair() else {
        return;
    };
    for &d in &DIMS {
        for &(s_q, s_k) in &SHAPES {
            let q = random_matrix(s_q, d, 11 + d as u64, 2.0);
            let k = random_matrix(s_k, d, 13 + d as u64, 2.0);
            let v = random_matrix(s_k, d, 17 + d as u64, 1.0);
            let cfg = AttentionConfig::new(d);
            // Padded queries: the mask prunes the tail of the key
            // sequence outright (live < s_k exercises the padded
            // region on rectangular shapes).
            let live = s_k - (s_k / 4);
            let mask = PaddingMask::new(s_k, live).unwrap();
            // Scores are bitwise equal across tiers, so decisions are
            // equal at any threshold; f32::MIN is dense attention over
            // the live keys.
            for threshold in [f32::MIN, -0.6, 0.05, 0.7] {
                let (s, sd) =
                    pruned_attention_with(&q, &k, &v, &cfg, threshold, Some(&mask), &mut scalar)
                        .unwrap();
                let (a, ad) =
                    pruned_attention_with(&q, &k, &v, &cfg, threshold, Some(&mask), &mut avx2)
                        .unwrap();
                assert_eq!(sd, ad, "decisions d={d} th={threshold}");
                let what = format!("d={d} ({s_q}x{s_k}) th={threshold}");
                assert_bitwise(&s.scores, &a.scores, &format!("pruned scores {what}"));
                assert_bitwise(&s.probs, &a.probs, &format!("pruned probs {what}"));
                assert_bitwise(&s.output, &a.output, &format!("pruned output {what}"));
            }
            // All-pruned rows: +inf threshold kills every key; both
            // tiers must produce the identical all-pruned decisions
            // and bitwise-zero outputs.
            let (s, sd) =
                pruned_attention_with(&q, &k, &v, &cfg, f32::INFINITY, None, &mut scalar).unwrap();
            let (a, ad) =
                pruned_attention_with(&q, &k, &v, &cfg, f32::INFINITY, None, &mut avx2).unwrap();
            assert_eq!(sd, ad);
            for dec in &sd {
                assert_eq!(dec.kept_count(), 0, "everything pruned at +inf");
            }
            assert_bitwise(&s.probs, &a.probs, &format!("all-pruned probs d={d}"));
            assert_bitwise(&s.output, &a.output, &format!("all-pruned output d={d}"));
        }
    }
}

#[test]
fn quantized_integer_paths_are_bit_identical() {
    let Some((mut scalar, mut avx2)) = tier_pair() else {
        return;
    };
    for &d in &DIMS {
        for &(s_q, s_k) in &SHAPES {
            let q = random_matrix(s_q, d, 23 + d as u64, 2.0);
            let k = random_matrix(s_k, d, 29 + d as u64, 2.0);
            let v = random_matrix(s_k, d, 31 + d as u64, 1.0);
            let cfg = AttentionConfig::new(d);
            // A mixed decision pattern: every third key pruned, plus
            // one fully pruned (padded) query row when there is room.
            let decisions: Vec<PruneDecision> = (0..s_q)
                .map(|i| {
                    if i + 1 == s_q && s_q > 1 {
                        PruneDecision::new(vec![true; s_k])
                    } else {
                        PruneDecision::new((0..s_k).map(|j| (i + j) % 3 == 0).collect())
                    }
                })
                .collect();
            let s =
                quantized_attention_with(&q, &k, &v, &cfg, Some(&decisions), &mut scalar).unwrap();
            let a =
                quantized_attention_with(&q, &k, &v, &cfg, Some(&decisions), &mut avx2).unwrap();
            assert_eq!(s.scores, a.scores, "quantized scores d={d} ({s_q}x{s_k})");
            assert_eq!(s.probs, a.probs, "quantized probs d={d}");
            assert_eq!(s.output, a.output, "quantized output d={d}");
            // And the dense (no-decision) datapath.
            let s = quantized_attention_with(&q, &k, &v, &cfg, None, &mut scalar).unwrap();
            let a = quantized_attention_with(&q, &k, &v, &cfg, None, &mut avx2).unwrap();
            assert_eq!(s.scores, a.scores);
            assert_eq!(s.probs, a.probs);
            assert_eq!(s.output, a.output);
        }
    }
}

#[test]
fn decode_kernels_match_across_tiers_including_grown_histories() {
    let Some((mut scalar, mut avx2)) = tier_pair() else {
        return;
    };
    for &d in &DIMS {
        // Histories straddling the lane boundary, including the
        // single-token case.
        for s_k in [1usize, 7, 32, 33] {
            let q = random_matrix(1, d, 41 + d as u64, 2.0);
            let k = random_matrix(s_k, d, 43 + d as u64, 2.0);
            let v = random_matrix(s_k, d, 47 + d as u64, 1.0);
            let cfg = AttentionConfig::new(d);

            let mut kv_s = KvCache::new(&k, &v).unwrap();
            let mut kv_a = KvCache::new(&k, &v).unwrap();
            // f32::MIN is the dense decode step.
            for threshold in [f32::MIN, -0.5, 0.3, f32::INFINITY] {
                let (so, sd) =
                    pruned_attention_decode_with(&q, &kv_s, &cfg, threshold, &mut scalar).unwrap();
                let (ao, ad) =
                    pruned_attention_decode_with(&q, &kv_a, &cfg, threshold, &mut avx2).unwrap();
                assert_eq!(sd, ad, "decode decisions d={d} th={threshold}");
                assert_eq!(bits(&so), bits(&ao), "decode output d={d} th={threshold}");
                let decision = sd;
                let so =
                    quantized_attention_decode_with(&q, &kv_s, &cfg, Some(&decision), &mut scalar)
                        .unwrap();
                let ao =
                    quantized_attention_decode_with(&q, &kv_a, &cfg, Some(&decision), &mut avx2)
                        .unwrap();
                assert_eq!(so, ao, "quantized decode bitwise d={d} th={threshold}");
            }

            // Grow both caches by a token and re-check: the appended
            // row lands in the page tail, the exact remainder-lane
            // territory the AVX2 gather has to get right.
            let grow = random_matrix(2, d, 53 + d as u64, 1.5);
            kv_s.push(grow.row(0), grow.row(1)).unwrap();
            kv_a.push(grow.row(0), grow.row(1)).unwrap();
            let so = quantized_attention_decode_with(&q, &kv_s, &cfg, None, &mut scalar).unwrap();
            let ao = quantized_attention_decode_with(&q, &kv_a, &cfg, None, &mut avx2).unwrap();
            assert_eq!(so, ao, "quantized decode after push d={d}");
        }
    }
}

// ---------------------------------------------------------------------------
// Engine level: the four ExecutionMode pipelines
// ---------------------------------------------------------------------------

/// Builds a forced-tier engine pair for a mode, or `None` off-AVX2.
fn engine_pair(mode: ExecutionMode) -> Option<(Engine, Engine)> {
    if !sprint_attention::avx2_available() {
        eprintln!("note: host lacks AVX2+FMA; skipping forced-tier engine differential");
        return None;
    }
    let build = |tier: SimdTier| {
        Engine::builder(SprintConfig::medium())
            .mode(mode)
            .seed(42)
            .simd_tier(tier)
            .build()
            .unwrap()
    };
    let scalar = build(SimdTier::Scalar);
    let avx2 = build(SimdTier::Avx2);
    assert_eq!(scalar.simd_tier(), SimdTier::Scalar);
    assert_eq!(avx2.simd_tier(), SimdTier::Avx2);
    Some((scalar, avx2))
}

#[test]
fn all_four_execution_modes_agree_across_tiers() {
    for mode in [
        ExecutionMode::Dense,
        ExecutionMode::Oracle,
        ExecutionMode::NoRecompute,
        ExecutionMode::Sprint,
    ] {
        let Some((scalar, avx2)) = engine_pair(mode) else {
            return;
        };
        for (seq, seed) in [(33usize, 5u64), (100, 6), (64, 7)] {
            let spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq);
            let trace = TraceGenerator::new(seed).generate(&spec).unwrap();
            let request = HeadRequest::from_trace(&trace);
            let s = scalar.run_head(&request).unwrap();
            let a = avx2.run_head(&request).unwrap();
            // Sprint recompute is the integer datapath end to end;
            // Dense and Oracle run the float matmul, softmax and AV, and
            // NoRecompute the float softmax. All are one answer.
            assert_eq!(s.decisions, a.decisions, "{mode:?} decisions seq={seq}");
            assert_bitwise(&s.output, &a.output, &format!("{mode:?} output seq={seq}"));
            assert_eq!(s, a, "{mode:?} full response seq={seq}");
        }
    }
}

#[test]
fn decode_sessions_inherit_engine_tier_and_stay_bit_identical() {
    let Some((scalar, avx2)) = engine_pair(ExecutionMode::Sprint) else {
        return;
    };
    let d = 64;
    let prefill = 33; // lane boundary + 1
    let k = random_matrix(prefill, d, 61, 2.0);
    let v = random_matrix(prefill, d, 67, 1.0);
    let cfg = AttentionConfig::new(d);
    let request = SessionRequest::new(&k, &v, cfg, 0.15);
    let mut sess_s = scalar.open_session(&request).unwrap();
    let mut sess_a = avx2.open_session(&request).unwrap();
    let steps = random_matrix(30, d, 71, 1.5);
    for t in 0..8 {
        let step = DecodeStep {
            q: steps.row(3 * t),
            k: steps.row(3 * t + 1),
            v: steps.row(3 * t + 2),
        };
        let rs = sess_s.step(&step).unwrap();
        let ra = sess_a.step(&step).unwrap();
        // Sprint decode is pruner decisions (untiered) + the integer
        // recompute datapath: the whole step response is bitwise.
        assert_eq!(rs, ra, "step {t} diverged across tiers");
    }
    assert_eq!(sess_s.perf(), sess_a.perf(), "session perf rollup");

    // Evict BOTH sessions and rehydrate each on the OPPOSITE engine:
    // resumed sessions adopt the resuming engine's tier (in both
    // directions), and because both sides rebuild from the same
    // replayed history with the same seed, the decode streams must
    // stay bitwise-identical even under the default noisy model.
    let mut evicted_s = sess_s.evict();
    let mut evicted_a = sess_a.evict();
    let mut hist_k = Matrix::zeros(prefill + 8, d).unwrap();
    let mut hist_v = Matrix::zeros(prefill + 8, d).unwrap();
    for r in 0..prefill {
        hist_k.row_mut(r).copy_from_slice(k.row(r));
        hist_v.row_mut(r).copy_from_slice(v.row(r));
    }
    for t in 0..8 {
        hist_k
            .row_mut(prefill + t)
            .copy_from_slice(steps.row(3 * t + 1));
        hist_v
            .row_mut(prefill + t)
            .copy_from_slice(steps.row(3 * t + 2));
    }
    let mut on_scalar = scalar
        .resume_session(&mut evicted_a, &hist_k, &hist_v)
        .unwrap();
    let mut on_avx2 = avx2
        .resume_session(&mut evicted_s, &hist_k, &hist_v)
        .unwrap();
    for t in 0..2 {
        let base = 3 * (8 + t);
        let step = DecodeStep {
            q: steps.row(base),
            k: steps.row(base + 1),
            v: steps.row(base + 2),
        };
        let rs = on_scalar.step(&step).unwrap();
        let rr = on_avx2.step(&step).unwrap();
        assert_eq!(rs, rr, "post-resume step {t} diverged across swapped tiers");
    }
    assert_eq!(on_scalar.perf(), on_avx2.perf(), "post-resume perf rollup");
}

#[test]
fn model_server_rollups_are_bit_identical_in_sprint_mode() {
    if !sprint_attention::avx2_available() {
        eprintln!("note: host lacks AVX2+FMA; skipping model-server tier differential");
        return;
    }
    // Energy, latency and accuracy roll up from integer op counts and
    // the (bitwise-identical) Sprint outputs, so the entire
    // ModelResponse — f64 energy/latency/accuracy fields included —
    // must compare equal across tiers, at any worker count.
    let server = |tier: SimdTier| {
        ModelServer::new(
            Engine::builder(SprintConfig::medium())
                .mode(ExecutionMode::Sprint)
                .seed(9)
                .simd_tier(tier)
                .build()
                .unwrap(),
        )
    };
    let scalar = server(SimdTier::Scalar);
    let avx2 = server(SimdTier::Avx2);
    let profile = ModelProfile::from_model(&ModelConfig::bert_base())
        .with_layers(2)
        .with_heads(2)
        .with_seq_len(48);
    let request = ModelRequest::new(profile).with_seed(17).with_accuracy(true);
    let request = std::slice::from_ref(&request);
    let (s, _) = scalar.serve_many_report(2, request).unwrap();
    let (a, _) = avx2.serve_many_report(4, request).unwrap();
    assert_eq!(s, a, "ModelResponse diverged across tiers/worker counts");
}

// ---------------------------------------------------------------------------
// Dispatch-layer property tests (ISSUE 10 satellite 2)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Forced-scalar and forced-AVX2 engines produce identical
    /// HeadResponses (Sprint mode: outputs, decisions and every
    /// stats field `to_bits()`-exact) for random SprintConfigs at
    /// 1/2/4/8 workers.
    #[test]
    fn prop_dispatch_tiers_agree_across_configs_and_worker_counts(
        cfg_pick in 0usize..3,
        seq in 16usize..72,
        heads in 2usize..5,
        seed in 0u64..500,
        workers_pick in 0usize..4,
    ) {
        if !sprint_attention::avx2_available() {
            return;
        }
        let config = match cfg_pick {
            0 => SprintConfig::small(),
            1 => SprintConfig::medium(),
            _ => SprintConfig::large(),
        };
        let workers = [1usize, 2, 4, 8][workers_pick];
        let build = |tier: SimdTier| {
            Engine::builder(config.clone())
                .mode(ExecutionMode::Sprint)
                .seed(seed)
                .simd_tier(tier)
                .build()
                .unwrap()
        };
        let scalar = build(SimdTier::Scalar);
        let avx2 = build(SimdTier::Avx2);
        let spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq);
        let traces = TraceGenerator::new(seed ^ 0xD1F).generate_many(&spec, heads).unwrap();
        let requests: Vec<HeadRequest> = traces.iter().map(HeadRequest::from_trace).collect();
        let (rs, _) = scalar.run_batch_report(workers, &requests).unwrap();
        let (ra, _) = avx2.run_batch_report(workers, &requests).unwrap();
        prop_assert_eq!(rs, ra, "Sprint batch diverged: config {} workers {}", cfg_pick, workers);
    }
}
