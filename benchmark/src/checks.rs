//! Checksums over everything a response carries, so every timed response
//! can be compared with the warm-up response for the same input.

use sprint_engine::{HeadResponse, StepResponse};

/// A word-at-a-time multiply-rotate hash (not cryptographic; it only has
/// to tell two responses apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x9e37_79b9_7f4a_7c15)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    pub fn floats(&mut self, xs: &[f32]) {
        self.word(xs.len() as u64);
        for pair in xs.chunks(2) {
            let hi = pair.get(1).map_or(0, |x| x.to_bits() as u64);
            self.word(pair[0].to_bits() as u64 | hi << 32);
        }
    }
}

/// Output bits, the kept count of every decision row, and every
/// `prune_stats` / `memory_stats` counter of one head.
pub fn head_checksum(r: &HeadResponse) -> u64 {
    let mut h = Digest::default();
    h.floats(r.output.as_slice());
    for d in &r.decisions {
        h.word(d.kept_count() as u64);
    }
    let p = &r.prune_stats;
    let m = &r.memory_stats;
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
        u64::from(r.faults.demoted),
    ] {
        h.word(w);
    }
    h.0
}

/// The same for one decode step, plus its simulated cycles and energy.
pub fn step_checksum(r: &StepResponse) -> u64 {
    let mut h = Digest::default();
    h.word(r.position as u64);
    h.floats(&r.output);
    let p = &r.prune_stats;
    let m = &r.memory_stats;
    for w in [
        r.decision.kept_count() as u64,
        p.in_memory_ops,
        p.comparator_firings,
        m.fetched_vectors,
        m.reused_vectors,
        m.bytes_fetched,
        r.perf.cycles,
        r.perf.energy.total().as_pj().to_bits(),
        r.perf.programmed_tokens,
    ] {
        h.word(w);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_order_length_and_every_bit() {
        let of = |xs: &[f32]| {
            let mut h = Digest::default();
            h.floats(xs);
            h.0
        };
        assert_eq!(of(&[1.0, 2.0, 3.0]), of(&[1.0, 2.0, 3.0]));
        assert_ne!(of(&[1.0, 2.0, 3.0]), of(&[1.0, 3.0, 2.0]));
        assert_ne!(of(&[1.0, 2.0]), of(&[1.0, 2.0, 0.0]));
        assert_ne!(of(&[0.0]), of(&[-0.0]));
        assert_ne!(of(&[1.0]), of(&[f32::from_bits(1.0f32.to_bits() + 1)]));
    }
}
