//! Thresholding queries over the key store: the prune calls and the
//! column-tile fan-out they run on.

use std::collections::BTreeSet;
use std::ops::Range;

use sprint_attention::PruneDecision;

use super::{
    exact_dot, round_msb_bits, row_pieces, InMemoryPruner, PruneOutcome, ThresholdSpec, ARRAY_COLS,
};
use crate::crossbar::{ColumnRead, CrossbarArray};
use crate::ReramError;

/// One fan-out worker's scratch: each row tile's read of the column
/// tile in flight, its keys' bracket ends, the columns that need their
/// exact score, and what it adds to the counters and to the full-scale
/// scan. Aligned so that no two workers' lanes share a cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(super) struct Lane {
    reads: Vec<ColumnRead>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    exact: Vec<usize>,
    in_memory_ops: u64,
    dac_conversions: u64,
    pub(super) largest: u64,
}

impl InMemoryPruner {
    /// Thresholds one query in memory and returns the binary pruning
    /// vector plus the approximate scores.
    ///
    /// `threshold` is in real score units (the learned `Th`).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] unless
    /// `q_row.len()` equals the embedding size, or
    /// [`ReramError::InvalidParameter`] for an unsupported
    /// `score_bits`.
    pub fn prune_query(
        &mut self,
        q_row: &[f32],
        threshold: f32,
        spec: &ThresholdSpec,
    ) -> Result<PruneOutcome, ReramError> {
        let mut pruned = vec![false; self.s];
        let mut approx_scores = vec![0.0; self.s];
        self.prune_rows_into(
            q_row,
            threshold,
            spec,
            &mut [&mut pruned[..]],
            Some(&mut [&mut approx_scores[..]]),
        )?;
        Ok(PruneOutcome {
            decision: PruneDecision::new(pruned),
            approx_scores,
        })
    }

    /// [`InMemoryPruner::prune_query`] for consecutive query rows at
    /// once, into caller-owned rows: `q_rows` holds `pruned.len()` rows
    /// of the embedding size back to back, and row `i`'s flags (and,
    /// when asked for, approximate scores) land in `pruned[i]` (and
    /// `approx_scores[i]`). A caller that embeds the key region in a
    /// longer row (padding), or never reads the approximate scores,
    /// stages neither twice.
    ///
    /// The column tiles are split over [`InMemoryPruner::set_threads`]
    /// workers, each walking every row in order over its own tiles.
    /// A tile draws its read noise from its own stream, in the same
    /// row order as the one-row call, and merges its row tiles' currents
    /// per column in row-tile order, so every output bit and counter is
    /// the same at any width.
    ///
    /// # Errors
    ///
    /// As [`InMemoryPruner::prune_query`] per row; additionally
    /// [`ReramError::LengthMismatch`] unless `q_rows` holds exactly one
    /// row per output row and every output row holds exactly
    /// [`InMemoryPruner::keys`] entries.
    pub fn prune_rows_into(
        &mut self,
        q_rows: &[f32],
        threshold: f32,
        spec: &ThresholdSpec,
        pruned: &mut [&mut [bool]],
        approx_scores: Option<&mut [&mut [f32]]>,
    ) -> Result<(), ReramError> {
        let (n, d, s) = (pruned.len(), self.d, self.s);
        if q_rows.len() != n * d {
            return Err(ReramError::LengthMismatch {
                what: "query rows",
                expected: n * d,
                found: q_rows.len(),
            });
        }
        if let Some(bits) = spec.score_bits {
            if !(1..=16).contains(&bits) {
                return Err(ReramError::InvalidParameter(format!(
                    "score_bits {bits} outside 1..=16"
                )));
            }
        }
        if let Some(approx) = approx_scores.as_ref().filter(|a| a.len() != n) {
            return Err(ReramError::LengthMismatch {
                what: "approximate score rows",
                expected: n,
                found: approx.len(),
            });
        }
        for (i, flags) in pruned.iter().enumerate() {
            let approx_len = approx_scores.as_ref().map_or(s, |a| a[i].len());
            for found in [flags.len(), approx_len] {
                if found != s {
                    return Err(ReramError::LengthMismatch {
                        what: "per-key output row",
                        expected: s,
                        found,
                    });
                }
            }
        }
        if n == 0 {
            return Ok(());
        }
        // Query MSB nibbles (the low-precision DAC input), rounded to
        // keep the approximation zero-mean. Query and key precision
        // are set identically (§III-B footnote).
        self.stage_rows(q_rows);

        // The analog noise is referenced to the crossbar's drive-based
        // full scale (that is what the ADC-equivalent accuracy of the
        // noise model is specified against), so the safety margin must
        // use the same reference to bound it.
        self.cuts.clear();
        for row in self.q_msb.chunks_exact(d) {
            let drive_fs: f64 = row_pieces(&self.tiles[0], row)
                .map(|(arr, piece)| arr.full_scale(piece))
                .sum();
            self.cuts
                .push(threshold as f64 / self.score_lsb - spec.margin_fraction * drive_fs);
        }

        let groups = tile_groups(s, self.threads);
        let columns: Vec<_> = groups
            .iter()
            .map(|g| g.start * ARRAY_COLS..(g.end * ARRAY_COLS).min(s))
            .collect();
        let mut flag_parts = split_columns(pruned, &columns);
        let mut approx_parts = approx_scores.map(|rows| split_columns(rows, &columns));
        self.lanes
            .resize_with(self.lanes.len().max(groups.len()), Lane::default);
        let mut parts: Vec<_> = sprint_parallel::split_ranges_mut(&mut self.tiles, &groups, 1)
            .into_iter()
            .zip(self.lanes.iter_mut())
            .zip(columns.iter().cloned())
            .zip(flag_parts.iter_mut())
            .map(|(((tiles, lane), cols), flags)| RowPart {
                tiles,
                lane,
                cols,
                flags,
                approx: None,
            })
            .collect();
        if let Some(approx) = approx_parts.as_mut() {
            for (part, rows) in parts.iter_mut().zip(approx.iter_mut()) {
                part.approx = Some(rows);
            }
        }
        let rows = Rows {
            q_msb: &self.q_msb,
            cuts: &self.cuts,
            d,
            remapped: &self.remapped,
            score_bits: spec.score_bits,
            full_scale_codes: self.full_scale_codes,
            score_lsb: self.score_lsb,
        };
        sprint_parallel::fan_out(&mut parts, |_, part| rows.prune(part))?;

        for lane in &self.lanes[..groups.len()] {
            self.stats.in_memory_ops += lane.in_memory_ops;
            self.stats.dac_conversions += lane.dac_conversions;
        }
        self.stats.queries_pruned += n as u64;
        self.stats.comparator_firings += (n * s) as u64;
        Ok(())
    }

    /// Stages consecutive query rows' MSB nibbles in `self.q_msb`.
    pub(super) fn stage_rows(&mut self, q_rows: &[f32]) {
        let shift = 8 - self.cell_bits;
        self.q_msb.clear();
        self.q_msb.extend(
            q_rows
                .iter()
                .map(|&x| round_msb_bits(self.q_params.quantize(x), shift, self.cell_bits)),
        );
    }

    /// Exact digital reference of the MSB-level scores (no analog
    /// effects), in real score units. Tests compare the analog path
    /// against this.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] for a wrong query length.
    pub fn exact_msb_scores(&self, q_row: &[f32]) -> Result<Vec<f32>, ReramError> {
        if q_row.len() != self.d {
            return Err(ReramError::LengthMismatch {
                what: "query row",
                expected: self.d,
                found: q_row.len(),
            });
        }
        let shift = 8 - self.cell_bits;
        let q_msb: Vec<i8> = q_row
            .iter()
            .map(|&x| round_msb_bits(self.q_params.quantize(x), shift, self.cell_bits))
            .collect();
        let mut out = Vec::with_capacity(self.s);
        for row_arrays in &self.tiles {
            for slot in 0..row_arrays[0].cols() {
                let dot = exact_dot(row_arrays, slot, &q_msb)?;
                out.push((dot as f64 * self.score_lsb) as f32);
            }
        }
        Ok(out)
    }
}

/// The shared, read-only side of a prune fan-out: the staged rows,
/// their cuts and the comparator settings.
struct Rows<'a> {
    q_msb: &'a [i8],
    cuts: &'a [f64],
    d: usize,
    remapped: &'a BTreeSet<usize>,
    score_bits: Option<u32>,
    full_scale_codes: f64,
    score_lsb: f64,
}

/// One prune worker's share: its column tiles (keys `cols`), its lane,
/// and the `cols` piece of every output row.
struct RowPart<'t, 'p, 'o> {
    tiles: &'t mut [Vec<CrossbarArray>],
    lane: &'t mut Lane,
    cols: Range<usize>,
    flags: &'p mut Vec<&'o mut [bool]>,
    approx: Option<&'p mut Vec<&'o mut [f32]>>,
}

impl Rows<'_> {
    /// Thresholds every staged row over one worker's columns, one
    /// column tile at a time: every row tile's read, then a comparator
    /// per key. A key's score is its row-tile outputs added in row-tile
    /// order from `0.0` (a remapped key's is its spare column's exact
    /// digital-shadow score), optionally quantized to `score_bits`.
    ///
    /// Unless the caller wants the approximate scores, an analog key is
    /// first bracketed: the same expression with every read's normal
    /// at `−R` and at `+R` ([`ColumnRead::add_brackets`]). Both ends on
    /// one side of the cut decide the key without the Box–Muller
    /// transform; only a straddling bracket pays for the exact score.
    fn prune(&self, part: &mut RowPart<'_, '_, '_>) -> Result<(), ReramError> {
        match self.score_bits {
            Some(bits) => {
                let full_scale = self.full_scale_codes;
                self.prune_with(part, |score| quantize_symmetric(score, full_scale, bits))
            }
            None => self.prune_with(part, |score| score),
        }
    }

    /// [`Rows::prune`] with the comparator's view of a code-unit score,
    /// `compared`: the score itself or its `score_bits` quantization.
    /// Monotone either way, so it keeps a bracket's order.
    fn prune_with(
        &self,
        part: &mut RowPart<'_, '_, '_>,
        compared: impl Fn(f64) -> f64,
    ) -> Result<(), ReramError> {
        let lane = &mut *part.lane;
        let (mut in_memory_ops, mut dac_conversions) = (0, 0);
        let first = part.cols.start;
        for (i, (q, flags)) in self
            .q_msb
            .chunks_exact(self.d)
            .zip(part.flags.iter_mut())
            .enumerate()
        {
            let cut = self.cuts[i];
            let mut approx = part.approx.as_mut().map(|rows| &mut *rows[i]);
            for t in 0..part.tiles.len() {
                let row_arrays = &mut part.tiles[t];
                let row_tiles = row_arrays.len();
                lane.reads
                    .resize_with(lane.reads.len().max(row_tiles), ColumnRead::default);
                for ((arr, piece), read) in
                    row_pieces(row_arrays.iter_mut(), q).zip(&mut lane.reads)
                {
                    arr.read_into(piece, read)?;
                    in_memory_ops += 1;
                    dac_conversions += arr.rows() as u64;
                }
                let reads = &lane.reads[..row_tiles];
                let cols = part.tiles[t][0].cols();
                let keys = t * ARRAY_COLS..t * ARRAY_COLS + cols;
                lane.exact.clear();
                if approx.is_none() {
                    for ends in [&mut lane.lo, &mut lane.hi] {
                        ends.clear();
                        ends.resize(cols, 0.0);
                    }
                    for read in reads {
                        read.add_brackets(&mut lane.lo, &mut lane.hi);
                    }
                    // Each key takes its `lo` end's decision; a key whose
                    // ends disagree is kept in `exact` (without a branch:
                    // every slot is written, only straddles advance).
                    lane.exact.resize(cols, 0);
                    let mut straddles = 0;
                    let ends = lane.lo.iter().zip(&lane.hi);
                    for (c, (flag, (&lo, &hi))) in
                        flags[keys.clone()].iter_mut().zip(ends).enumerate()
                    {
                        *flag = compared(lo) < cut;
                        lane.exact[straddles] = c;
                        straddles += usize::from(*flag != (compared(hi) < cut));
                    }
                    lane.exact.truncate(straddles);
                } else {
                    lane.exact.extend(0..cols);
                }
                for &c in &lane.exact {
                    let k = keys.start + c;
                    let score = compared(reads.iter().fold(0.0, |acc, read| acc + read.output(c)));
                    flags[k] = score < cut;
                    if let Some(scores) = approx.as_mut() {
                        scores[k] = (score * self.score_lsb) as f32;
                    }
                }
                // Keys remapped to spare columns are served by verified
                // fault-free cells: the controller substitutes their
                // exact digital-shadow scores for the faulty analog
                // readings.
                let remapped = self.remapped.range(first + keys.start..first + keys.end);
                for k in remapped.map(|&j| j - first) {
                    let slot = k % ARRAY_COLS;
                    let score = compared(exact_dot(&part.tiles[t], slot, q)? as f64);
                    flags[k] = score < cut;
                    if let Some(scores) = approx.as_mut() {
                        scores[k] = (score * self.score_lsb) as f32;
                    }
                }
            }
        }
        (lane.in_memory_ops, lane.dac_conversions) = (in_memory_ops, dac_conversions);
        Ok(())
    }
}

/// Cuts every row at the boundaries of `columns` (consecutive ranges
/// from 0): piece `g` of each row, in row order, lands in entry `g`.
fn split_columns<'o, T>(
    rows: &'o mut [&mut [T]],
    columns: &[Range<usize>],
) -> Vec<Vec<&'o mut [T]>> {
    let mut out: Vec<Vec<&mut [T]>> = columns
        .iter()
        .map(|_| Vec::with_capacity(rows.len()))
        .collect();
    for row in rows.iter_mut() {
        let mut rest: &mut [T] = row;
        for (pieces, cols) in out.iter_mut().zip(columns) {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(cols.len());
            pieces.push(piece);
            rest = tail;
        }
    }
    out
}

/// The column-tile groups of a `threads`-wide fan-out over `s` keys,
/// balanced by column count (a 128/128/20 head splits 128 | 148).
pub(super) fn tile_groups(s: usize, threads: usize) -> Vec<Range<usize>> {
    sprint_parallel::weighted_ranges(s.div_ceil(ARRAY_COLS), threads, |ct| {
        (s - ct * ARRAY_COLS).min(ARRAY_COLS)
    })
}

/// Symmetric uniform quantization of `x` to `bits` bits over
/// `[-full_scale, full_scale]`, returning the reconstructed value.
pub(super) fn quantize_symmetric(x: f64, full_scale: f64, bits: u32) -> f64 {
    let qmax = ((1i64 << (bits - 1)) - 1).max(1) as f64;
    let step = full_scale / qmax;
    let code = (x / step).round().clamp(-qmax, qmax);
    code * step
}
