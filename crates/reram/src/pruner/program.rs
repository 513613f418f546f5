//! Writing the key store: program, calibrate, extend and append.

use sprint_attention::{quantize_matrix, Matrix, QuantParams};

use super::query::{tile_groups, Lane};
use super::{
    exact_dot, round_msb_bits, row_pieces, InMemoryPruner, PruneHardwareStats, ARRAY_COLS,
    ARRAY_ROWS,
};
use crate::crossbar::CrossbarArray;
use crate::{NoiseModel, ReramError};

impl InMemoryPruner {
    /// Reprograms the engine in place for a new head, reusing the
    /// crossbar allocations (the tiles are re-tiled and programmed in
    /// place rather than reallocated). After a successful call the
    /// pruner behaves bit-identically to a freshly constructed
    /// [`InMemoryPruner::new`] with the same arguments: the per-tile
    /// RNGs are reseeded, the quantizers recalibrated, and the hardware
    /// operation counters zeroed. A column whose codes and noise draws
    /// are those of its last write keeps its weights instead of
    /// transforming its draws again, so reprogramming the same head's
    /// grown history pays only for the columns that changed.
    ///
    /// This is the steady-state entry of the serving engine: one pruner
    /// per worker amortizes its tile allocations across every head it
    /// executes, and a resumed decode session reprograms the crossbars
    /// it was evicted with.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InMemoryPruner::new`]. On error the pruner
    /// may hold partially reprogrammed state and must be successfully
    /// reprogrammed before further use.
    pub fn reprogram(
        &mut self,
        q: &Matrix,
        k: &Matrix,
        attention_scale: f32,
        noise: NoiseModel,
        seed: u64,
    ) -> Result<(), ReramError> {
        self.program_head(Some(q), k, attention_scale, noise, seed, 4)?;
        self.calibrate_query(q, true)
    }

    /// The key half of [`InMemoryPruner::reprogram`]: programs `k`
    /// exactly as `reprogram` does and leaves the query side to the
    /// [`InMemoryPruner::calibrate_query`] that must follow. A caller
    /// that never compares quantized scores calibrates without the
    /// full-scale scan; with it, the pair equals `reprogram`.
    ///
    /// # Errors
    ///
    /// As [`InMemoryPruner::reprogram`], except that the query shape is
    /// checked by the calibration.
    pub fn reprogram_keys(
        &mut self,
        k: &Matrix,
        attention_scale: f32,
        noise: NoiseModel,
        seed: u64,
    ) -> Result<(), ReramError> {
        self.program_head(None, k, attention_scale, noise, seed, 4)
    }

    /// Validates a head's parameters (and `q`'s embedding, when given)
    /// in the order fresh construction does, then programs `k`.
    pub(super) fn program_head(
        &mut self,
        q: Option<&Matrix>,
        k: &Matrix,
        attention_scale: f32,
        noise: NoiseModel,
        seed: u64,
        cell_bits: u32,
    ) -> Result<(), ReramError> {
        if !(1..=8).contains(&cell_bits) {
            return Err(ReramError::InvalidParameter(format!(
                "cell_bits {cell_bits} outside 1..=8"
            )));
        }
        // Denser cells are harder to sense and program accurately;
        // validate the scaled model up front (matching the pre-split
        // error order) even though `program_keys` rederives it.
        effective_noise(noise, cell_bits)?;
        if let Some(q) = q.filter(|q| q.cols() != k.cols()) {
            return Err(ReramError::LengthMismatch {
                what: "query embedding",
                expected: k.cols(),
                found: q.cols(),
            });
        }
        if !(attention_scale.is_finite() && attention_scale > 0.0) {
            return Err(ReramError::InvalidParameter(format!(
                "attention scale {attention_scale} must be positive"
            )));
        }
        self.cell_bits = cell_bits;
        self.noise = noise;
        self.seed = seed;
        self.attention_scale = attention_scale;
        self.d = k.cols();
        self.program_keys(k)
    }

    /// (Re)tiles and programs the full key matrix: quantizes `k` to
    /// 8 bits and programs every tile in place
    /// ([`CrossbarArray::program_all`]) with its derived seed and its
    /// keys' MSB codes, one key per column. Leaves the pruner's key-side
    /// state (`s`, `k_params`) consistent and zeroes the hardware
    /// counters — exactly what a fresh construction over `k` would hold.
    /// A column whose codes and draws are unchanged keeps its weights,
    /// which are the bits a fresh construction draws for it.
    ///
    /// The column tiles are split over the fan-out's workers; each
    /// tile programs its keys in slot order from its own noise stream,
    /// so the split never changes a drawn bit.
    fn program_keys(&mut self, k: &Matrix) -> Result<(), ReramError> {
        let noise = effective_noise(self.noise, self.cell_bits)?;
        let s = k.rows();
        let d = self.d;
        let (cell_bits, seed, fault) = (self.cell_bits, self.seed, self.fault);
        let qk = quantize_matrix(k, 8)
            .map_err(|e| ReramError::InvalidParameter(format!("key quantization: {e}")))?;

        let col_tiles = s.div_ceil(ARRAY_COLS);
        self.tiles.truncate(col_tiles);
        self.tiles.resize_with(col_tiles, Vec::new);
        let groups = tile_groups(s, self.threads);
        let mut parts: Vec<_> = groups
            .iter()
            .map(|g| g.start)
            .zip(sprint_parallel::split_ranges_mut(
                &mut self.tiles,
                &groups,
                1,
            ))
            .collect();
        let shift = 8 - cell_bits;
        let row_tiles = d.div_ceil(ARRAY_ROWS);
        sprint_parallel::fan_out(&mut parts, |_, (first, tiles)| {
            let mut image = Vec::new();
            for (ct, row_arrays) in (*first..).zip(tiles.iter_mut()) {
                let keys = ct * ARRAY_COLS..s.min((ct + 1) * ARRAY_COLS);
                row_arrays.truncate(row_tiles);
                for rt in 0..row_tiles {
                    // Row tile `rt`'s piece of every key's MSB nibbles.
                    let piece = rt * ARRAY_ROWS..d.min((rt + 1) * ARRAY_ROWS);
                    image.clear();
                    for j in keys.clone() {
                        let codes = &qk.code_row(j)[piece.clone()];
                        image.extend(
                            codes
                                .iter()
                                .map(|&code| round_msb_bits(code, shift, cell_bits)),
                        );
                    }
                    let (rows, cols) = (piece.len(), keys.len());
                    let tile_seed = tile_seed(seed, ct, rt);
                    if rt == row_arrays.len() {
                        row_arrays
                            .push(CrossbarArray::new(rows, cols, cell_bits, noise, tile_seed)?);
                    }
                    // Programmed detached: the overlay is a pure function
                    // of the finished cells, so the fault model goes back
                    // on once, after the last key.
                    let arr = &mut row_arrays[rt];
                    arr.set_fault_model(None);
                    arr.program_all(rows, cols, cell_bits, noise, tile_seed, &image)?;
                    if fault.is_some() {
                        arr.set_fault_model(fault);
                    }
                }
            }
            Ok(())
        })?;

        self.s = s;
        self.k_params = qk.params();
        self.k_max_abs = k.max_abs();
        // A full reprogram routes every key back to its own column, so
        // any earlier spare-column remap is stale.
        self.remapped.clear();
        self.stats = PruneHardwareStats::default();
        Ok(())
    }

    /// Recalibrates the query side: the 8-bit query quantizer (the
    /// per-query DAC reference) is set to `q`'s dynamic range and the
    /// score LSB rederived from both quantizer steps.
    ///
    /// With `with_full_scale`, additionally recalibrates the
    /// provisioned comparator/ADC full scale by sampling up to 128
    /// query rows — an `O(s·d)` pass that only affects quantized-score
    /// comparison ([`super::ThresholdSpec::quantized`]); pure analog
    /// comparison never reads the full scale, so decode sessions skip
    /// it unless their comparator needs it.
    ///
    /// Fresh construction performs exactly this calibration, so a
    /// long-lived pruner that calls [`InMemoryPruner::extend_row`] followed
    /// by `calibrate_query(step_q, ...)` matches a pruner freshly built
    /// from the same grown history and step query.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] unless `q.cols()` equals
    /// the embedding size.
    pub fn calibrate_query(&mut self, q: &Matrix, with_full_scale: bool) -> Result<(), ReramError> {
        if q.cols() != self.d {
            return Err(ReramError::LengthMismatch {
                what: "query embedding",
                expected: self.d,
                found: q.cols(),
            });
        }
        self.q_params = QuantParams::for_matrix(8, q)
            .map_err(|e| ReramError::InvalidParameter(format!("query quantization: {e}")))?;
        self.rederive_score_lsb();
        if !with_full_scale {
            return Ok(());
        }
        // Calibrate the analog full scale against the observed score
        // range: sample up to 128 query rows and take the largest
        // exact |code dot|, as the score the digital reference reports
        // for it (`exact_msb_scores` rounds each score to `f32`). That
        // round trip is monotone in |dot| and symmetric in its sign, so
        // it is applied once, to the largest integer dot. Each worker
        // scans its column tiles; the largest of their maxima is the
        // same `u64` in any split.
        let d = self.d;
        self.stage_rows(&q.as_slice()[..q.rows().min(128) * d]);
        let q_msb = &self.q_msb;
        let groups = tile_groups(self.s, self.threads);
        self.lanes
            .resize_with(self.lanes.len().max(groups.len()), Lane::default);
        let mut parts: Vec<_> = sprint_parallel::split_ranges_mut(&mut self.tiles, &groups, 1)
            .into_iter()
            .zip(self.lanes.iter_mut())
            .collect();
        sprint_parallel::fan_out(&mut parts, |_, (tiles, lane)| {
            lane.largest = 0;
            for row in q_msb.chunks_exact(d) {
                for row_arrays in tiles.iter() {
                    for slot in 0..row_arrays[0].cols() {
                        let dot = exact_dot(row_arrays, slot, row)?;
                        lane.largest = lane.largest.max(dot.unsigned_abs());
                    }
                }
            }
            Ok(())
        })?;
        let largest = self.lanes[..groups.len()]
            .iter()
            .map(|lane| lane.largest)
            .max()
            .unwrap_or(0);
        let reported = (largest as f64 * self.score_lsb) as f32;
        let observed = 0.0f64.max((reported as f64 / self.score_lsb).abs());
        // The comparator/ADC reference range is provisioned with 4x
        // headroom over the nominal workload (design-time margin for
        // process, temperature and workload drift). The Fig. 5 score
        // quantization is measured against this provisioned range,
        // which is why very low bit counts collapse accuracy.
        let floor = self.d as f64;
        self.full_scale_codes = (observed * 4.0).max(floor);
        Ok(())
    }

    /// Sets `score_lsb` from both quantizer steps, the MLC depth and
    /// the attention scale.
    fn rederive_score_lsb(&mut self) {
        let unit = 4f64.powi((8 - self.cell_bits) as i32);
        self.score_lsb = unit
            * self.q_params.step() as f64
            * self.k_params.step() as f64
            * self.attention_scale as f64;
    }

    /// Appends one key row to the programmed crossbars — the
    /// incremental entry of the autoregressive decode path. The paged
    /// decode path hands each step's key row straight from page
    /// storage; the full key history sits behind a closure and its
    /// `O(s·d)` gather is paid only when it is needed. Two regimes:
    ///
    /// * **Append** (the common case): the new key fits the calibrated
    ///   key-quantizer range, so its MSB codes are programmed into a
    ///   fresh column (the tile's crossbars grow by one column) without
    ///   touching any existing cell — `O(d)` work, `history` is not
    ///   called. Returns `Ok(false)`.
    /// * **Recalibration** (rare — the new key exceeds every magnitude
    ///   seen so far): the shared 8-bit quantizer must re-cover the
    ///   grown range, which changes every stored code, so the whole
    ///   history is requantized and reprogrammed exactly as a fresh
    ///   construction would be. `history()` must return the entire
    ///   grown key history, new row included. Returns `Ok(true)` and
    ///   **zeroes the hardware counters** (snapshot
    ///   [`InMemoryPruner::stats`] *after* `extend_row` when computing
    ///   per-step deltas).
    ///
    /// In both regimes the stored codes afterwards equal those of a
    /// pruner freshly built over the grown history, so — after a
    /// matching [`InMemoryPruner::calibrate_query`] — decode-step
    /// outcomes are bit-identical to a reprogram-from-scratch oracle
    /// under an ideal (noise-free) analog model. Under a noisy model
    /// the *draws* differ (a fresh pruner consumes its RNG streams in a
    /// different order), so equivalence is distributional, not bitwise.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] for a wrong embedding
    /// size and [`ReramError::InvalidParameter`] if `history()`
    /// disagrees with the grown geometry on a recalibration.
    pub fn extend_row(
        &mut self,
        row: &[f32],
        history: impl FnOnce() -> Matrix,
    ) -> Result<bool, ReramError> {
        if row.len() != self.d {
            return Err(ReramError::LengthMismatch {
                what: "key embedding",
                expected: self.d,
                found: row.len(),
            });
        }
        let new_max = row.iter().fold(self.k_max_abs, |m, v| m.max(v.abs()));
        let new_params = QuantParams::for_max_abs(8, new_max)
            .map_err(|e| ReramError::InvalidParameter(format!("key quantization: {e}")))?;
        if new_params != self.k_params {
            let full = history();
            if full.cols() != self.d || full.rows() != self.s + 1 {
                return Err(ReramError::InvalidParameter(format!(
                    "key history is {}x{}, expected {}x{}",
                    full.rows(),
                    full.cols(),
                    self.s + 1,
                    self.d
                )));
            }
            self.program_keys(&full)?;
            self.rederive_score_lsb();
            return Ok(true);
        }
        self.k_max_abs = new_max;
        self.append_key(self.s, row)?;
        self.s += 1;
        Ok(false)
    }

    /// Programs key `j` (== the current key count) into fresh crossbar
    /// columns under the already-calibrated quantizer — the append arm
    /// of [`InMemoryPruner::extend_row`]. Does not bump `self.s`.
    fn append_key(&mut self, j: usize, key: &[f32]) -> Result<(), ReramError> {
        let shift = 8 - self.cell_bits;
        let ct = j / ARRAY_COLS;
        let slot = j % ARRAY_COLS;
        let fresh = ct == self.tiles.len();
        if fresh {
            // First key of a new column tile: its row tiles get the
            // same derived seeds a full program would use.
            let noise = effective_noise(self.noise, self.cell_bits)?;
            let row_arrays = (0..self.d.div_ceil(ARRAY_ROWS))
                .map(|rt| {
                    let rows = (self.d - rt * ARRAY_ROWS).min(ARRAY_ROWS);
                    let seed = tile_seed(self.seed, ct, rt);
                    CrossbarArray::new(rows, 1, self.cell_bits, noise, seed)
                })
                .collect::<Result<_, _>>()?;
            self.tiles.push(row_arrays);
        } else if slot >= self.tiles[ct][0].cols() {
            for arr in &mut self.tiles[ct] {
                arr.append_cols(1);
            }
        }
        for (arr, piece) in row_pieces(self.tiles[ct].iter_mut(), key) {
            let codes: Vec<i8> = piece
                .iter()
                .map(|&x| round_msb_bits(self.k_params.quantize(x), shift, self.cell_bits))
                .collect();
            arr.program_column(slot, &codes)?;
            if fresh {
                arr.set_fault_model(self.fault);
            }
        }
        Ok(())
    }
}

/// The effective analog noise for a given MLC depth: cells denser than
/// the 4-bit design point halve their level spacing with every extra
/// bit, so both sigmas scale by `2^(cell_bits − 4)` beyond it.
fn effective_noise(noise: NoiseModel, cell_bits: u32) -> Result<NoiseModel, ReramError> {
    if cell_bits <= 4 {
        return Ok(noise);
    }
    let factor = 2f64.powi(cell_bits as i32 - 4);
    NoiseModel::from_sigmas(
        noise.relative_sigma() * factor,
        noise.programming_sigma() * factor,
    )
}

/// The derived RNG seed of tile `(col_tile, row_tile)`.
fn tile_seed(seed: u64, ct: usize, rt: usize) -> u64 {
    seed.wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add((ct * 1024 + rt) as u64)
}
