//! Golden checksums of the default-noise simulator.
//!
//! Under [`NoiseModel::default`] every crossbar draws programming
//! variation and read noise from one sequential RNG stream per array
//! (ARCHITECTURE.md, "Analog path: storage, summation and draw
//! order"), so any change to the analog path's summation order, draw
//! order or draw count moves these bits. The values below were recorded
//! at commit cad92d3; a host-speed change to `sprint-reram`,
//! `sprint-attention` or `sprint-engine` must leave them alone, and a
//! change that means to move them (ROADMAP item 1) re-records them in
//! the same commit that documents the new contract.
//!
//! The Sprint datapath is integer end to end and therefore one value
//! for every kernel tier. NoRecompute runs the float softmax, whose
//! exponent pass is tolerance-class across tiers (`docs/simd.md`), so
//! its output is pinned per tier; decisions and hardware counters are
//! tier-independent and pinned once.

use sprint_attention::{avx2_available, SimdTier};
use sprint_engine::{
    DecodeStep, Engine, ExecutionMode, HeadRequest, HeadResponse, SessionRequest, SprintConfig,
};
use sprint_memory::MemoryStats;
use sprint_reram::{NoiseModel, PruneHardwareStats};
use sprint_workloads::{ModelConfig, TraceGenerator};

/// FNV-1a over 64-bit words.
struct Checksum(u64);

impl Checksum {
    fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        xs.iter().for_each(|x| self.word(u64::from(x.to_bits())));
    }

    fn stats(&mut self, p: &PruneHardwareStats, m: &MemoryStats) {
        for w in [
            p.in_memory_ops,
            p.comparator_firings,
            p.dac_conversions,
            p.transposed_reads,
            p.queries_pruned,
            m.queries,
            m.fetched_vectors,
            m.reused_vectors,
            m.bytes_fetched,
            m.row_hits,
            m.row_misses,
            m.copyq_commands,
            m.readp_commands,
        ] {
            self.word(w);
        }
    }
}

fn engine(mode: ExecutionMode, tier: SimdTier) -> Engine {
    Engine::builder(SprintConfig::medium())
        .noise(NoiseModel::default())
        .mode(mode)
        .seed(0x5eed)
        .simd_tier(tier)
        .build()
        .unwrap()
}

/// `(decisions and counters, output bits)` of one head.
fn head_checksums(r: &HeadResponse) -> (u64, u64) {
    let mut structure = Checksum::new();
    for d in &r.decisions {
        structure.word(d.kept_count() as u64);
    }
    structure.stats(&r.prune_stats, &r.memory_stats);
    let mut output = Checksum::new();
    output.floats(r.output.as_slice());
    (structure.0, output.0)
}

/// The tiers this host can run, scalar first.
fn tiers() -> Vec<SimdTier> {
    let mut tiers = vec![SimdTier::Scalar];
    if avx2_available() {
        tiers.push(SimdTier::Avx2);
    }
    tiers
}

#[test]
fn default_noise_heads_keep_their_recorded_bits() {
    // BERT-base at s = 512 with the catalog's 46 % padding: 276 live
    // tokens, three column tiles, the `prefill_sprint` shape.
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(512);
    let trace = TraceGenerator::new(20_220_930).generate(&spec).unwrap();
    let request = HeadRequest::from_trace(&trace).with_head_id(3);
    for tier in tiers() {
        let sprint = engine(ExecutionMode::Sprint, tier)
            .run_head(&request)
            .unwrap();
        assert_eq!(
            head_checksums(&sprint),
            (0xf0f3_fc22_e5fc_092b, 0xc3e1_9a73_5e27_0d9e),
            "Sprint head, tier {tier}"
        );
        let approximate = engine(ExecutionMode::NoRecompute, tier)
            .run_head(&request)
            .unwrap();
        let (structure, output) = head_checksums(&approximate);
        assert_eq!(
            structure, 0xf0f3_fc22_e5fc_092b,
            "NoRecompute head, tier {tier}"
        );
        let recorded = match tier {
            SimdTier::Scalar => 0xce93_91d1_352d_c75b,
            SimdTier::Avx2 => 0x7e35_f9b1_de2d_e280,
        };
        assert_eq!(output, recorded, "NoRecompute output, tier {tier}");
    }
}

#[test]
fn a_default_noise_decode_session_keeps_its_recorded_bits() {
    const PREFILL: usize = 200;
    const STEPS: usize = 64;
    let spec = ModelConfig::bert_base()
        .trace_spec()
        .with_seq_len(PREFILL + STEPS)
        .with_padding(0.0);
    let trace = TraceGenerator::new(77_003_141).generate(&spec).unwrap();
    let (pk, pv) = (
        trace.k().prefix_rows(PREFILL).unwrap(),
        trace.v().prefix_rows(PREFILL).unwrap(),
    );
    for tier in tiers() {
        let engine = engine(ExecutionMode::Sprint, tier);
        let request =
            SessionRequest::new(&pk, &pv, trace.config(), trace.threshold()).with_head_id(5);
        let mut session = engine.open_session(&request).unwrap();
        let mut sum = Checksum::new();
        for t in PREFILL..PREFILL + STEPS {
            let step = session
                .step(&DecodeStep {
                    q: trace.q().row(t),
                    k: trace.k().row(t),
                    v: trace.v().row(t),
                })
                .unwrap();
            sum.floats(&step.output);
            sum.word(step.decision.kept_count() as u64);
            sum.stats(&step.prune_stats, &step.memory_stats);
        }
        assert_eq!(sum.0, 0xd79f_b510_8393_f510, "decode session, tier {tier}");
    }
}
