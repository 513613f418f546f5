//! The in-memory thresholding engine (§III-B "In-memory thresholding
//! dataflow").
//!
//! Key vectors live column-wise in transposable arrays, 4 MSBs per
//! element. To prune for a query: the memory controller ships the
//! query's MSB nibbles (CopyQ), a low-precision DAC drives them on the
//! wordlines, every column develops an analog dot product, analog
//! comparators check each against the threshold voltage, and a row of
//! 1-bit ADCs emits the binary pruning vector (ReadP). Scores land in
//! the analog domain only — no multi-bit ADC anywhere on this path.

use std::collections::BTreeSet;
use std::ops::Range;

use sprint_attention::{active_tier, quantize_matrix, simd, Matrix, PruneDecision, QuantParams};

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

use crate::crossbar::ColumnRead;
use crate::{
    FaultMap, FaultModel, FaultSite, NoiseModel, RepairOutcome, ReramError, TransposableArray,
};

/// Columns per transposable array (Table I: 64 × 128).
pub const ARRAY_COLS: usize = 128;
/// Wordlines per transposable array (Table I).
pub const ARRAY_ROWS: usize = 64;

/// How the analog score is compared against the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSpec {
    /// `Some(b)`: quantize the in-memory score to `b` bits before the
    /// comparison (Eq. 3's `Score_R^b`, the Fig. 5 sensitivity knob).
    /// `None`: pure analog comparison (SPRINT's actual design — the
    /// comparator sees the continuous analog value plus noise).
    pub score_bits: Option<u32>,
    /// Safety margin subtracted from the threshold, as a fraction of
    /// the analog full scale ("a modest negative margin on top of Th",
    /// §III-A). Positive values prune less and protect borderline keys.
    pub margin_fraction: f64,
}

impl Default for ThresholdSpec {
    /// The paper's design point: analog comparator, no extra margin.
    fn default() -> Self {
        ThresholdSpec {
            score_bits: None,
            margin_fraction: 0.0,
        }
    }
}

impl ThresholdSpec {
    /// Analog comparison with a 3σ noise margin for the given model —
    /// enough that noise alone almost never falsely prunes a key the
    /// digital threshold keeps.
    pub fn analog_with_noise_margin(noise: &NoiseModel) -> Self {
        ThresholdSpec {
            score_bits: None,
            margin_fraction: 3.0 * noise.relative_sigma(),
        }
    }

    /// Quantized-score comparison with `bits` bits (Fig. 5 study).
    pub fn quantized(bits: u32) -> Self {
        ThresholdSpec {
            score_bits: Some(bits),
            margin_fraction: 0.0,
        }
    }
}

/// Operation counters for energy accounting (§VII methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneHardwareStats {
    /// Analog in-memory vector-matrix operations (per array tile).
    pub in_memory_ops: u64,
    /// Individual analog comparator firings (one per key column).
    pub comparator_firings: u64,
    /// DAC wordline conversions (one per query element per row tile).
    pub dac_conversions: u64,
    /// Transposed reads of stored key vectors.
    pub transposed_reads: u64,
    /// Queries thresholded.
    pub queries_pruned: u64,
}

impl PruneHardwareStats {
    /// The per-field difference `self − earlier` (saturating), for
    /// per-step accounting over a long-lived pruner: snapshot the
    /// stats before an operation, subtract afterwards, and the delta
    /// equals what a freshly built pruner would have counted for that
    /// operation alone.
    pub fn delta_since(&self, earlier: &PruneHardwareStats) -> PruneHardwareStats {
        PruneHardwareStats {
            in_memory_ops: self.in_memory_ops.saturating_sub(earlier.in_memory_ops),
            comparator_firings: self
                .comparator_firings
                .saturating_sub(earlier.comparator_firings),
            dac_conversions: self.dac_conversions.saturating_sub(earlier.dac_conversions),
            transposed_reads: self
                .transposed_reads
                .saturating_sub(earlier.transposed_reads),
            queries_pruned: self.queries_pruned.saturating_sub(earlier.queries_pruned),
        }
    }
}

/// The outcome of in-memory thresholding for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneOutcome {
    /// The binary pruning vector (`true` = pruned), as shipped back to
    /// the memory controller by `ReadP`.
    pub decision: PruneDecision,
    /// The approximate scores the analog path produced, converted back
    /// to real score units. These are what "SPRINT w/o recompute"
    /// would feed the softmax (Fig. 9's third bar).
    pub approx_scores: Vec<f32>,
}

/// The complete in-memory pruning engine over one attention head's
/// key matrix.
///
/// # Example
///
/// ```
/// use sprint_attention::Matrix;
/// use sprint_reram::{InMemoryPruner, NoiseModel, ThresholdSpec};
///
/// # fn main() -> Result<(), sprint_reram::ReramError> {
/// let k = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// let q = Matrix::from_rows(&[vec![1.0, 0.0]]).unwrap();
/// let mut pruner = InMemoryPruner::new(&q, &k, 1.0, NoiseModel::ideal(), 1)?;
/// let out = pruner.prune_query(q.row(0), 0.5, &ThresholdSpec::default())?;
/// assert!(out.decision.is_kept(0));
/// assert!(out.decision.is_pruned(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InMemoryPruner {
    /// `tiles[col_tile][row_tile]`, each a transposable array.
    tiles: Vec<Vec<TransposableArray>>,
    s: usize,
    d: usize,
    /// Bits stored per MLC cell (4 in the paper's design).
    cell_bits: u32,
    q_params: QuantParams,
    /// The 8-bit key quantizer the stored MSB codes were derived from.
    /// [`InMemoryPruner::extend_row`] appends new keys under these params
    /// while they still cover the history's range, and reprograms
    /// everything when a new key forces a recalibration.
    k_params: QuantParams,
    /// Running `max_abs` of the programmed key history (append-only:
    /// never shrinks), so `extend_row`'s params check folds only the
    /// new row instead of rescanning the whole history.
    k_max_abs: f32,
    /// The score scaling (1/√d in the models), kept for recomputing
    /// `score_lsb` when either quantizer recalibrates.
    attention_scale: f32,
    /// The *base* (unscaled) noise model; the effective noise applied
    /// to tiles additionally scales with the MLC depth.
    noise: NoiseModel,
    /// The base seed every per-tile RNG seed derives from.
    seed: u64,
    /// Real score value of one MSB-code product unit:
    /// `(16·sq) · (16·sk) · attention_scale`.
    score_lsb: f64,
    /// Full-scale |score| in code units that the Fig. 5 score
    /// quantization is measured against: the provisioned comparator/
    /// ADC reference range, 4x the observed workload maximum (design
    /// margin for process, temperature and workload drift).
    full_scale_codes: f64,
    /// Optional hard-fault injector, stamped onto every tile (and onto
    /// tiles created later by [`InMemoryPruner::extend_row`]).
    fault: Option<FaultModel>,
    /// Keys remapped to verified fault-free spare columns: the memory
    /// controller routes their scores from the exact digital shadow
    /// instead of the faulty analog column.
    remapped: BTreeSet<usize>,
    stats: PruneHardwareStats,
    /// How many workers the next program, calibration or prune call
    /// splits the column tiles over ([`InMemoryPruner::set_threads`]).
    threads: usize,
    /// Staging kept from call to call: the staged query rows' MSB
    /// nibbles (row-major) and each staged row's comparator cut.
    q_msb: Vec<i32>,
    cuts: Vec<f64>,
    /// One scratch per fan-out worker, kept from head to head.
    lanes: Vec<Lane>,
}

/// One fan-out worker's scratch: each row tile's read of the column
/// tile in flight, its keys' bracket ends, the columns that need their
/// exact score, and what it adds to the counters and to the full-scale
/// scan. Aligned so that no two workers' lanes share a cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Lane {
    reads: Vec<ColumnRead>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    exact: Vec<usize>,
    in_memory_ops: u64,
    dac_conversions: u64,
    largest: u64,
}

impl InMemoryPruner {
    /// Builds the engine: quantizes `k` to 8 bits, stores each key's
    /// MSB nibbles in one transposable-array column, and calibrates
    /// the query quantizer from `q`'s dynamic range.
    ///
    /// `attention_scale` is the score scaling (1/√d in the models).
    /// Keys longer than one array's wordline count are split across
    /// row tiles whose currents are merged before comparison (§V
    /// "Scaling for embedding size").
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] if `q` and `k` disagree
    /// on the embedding size, or [`ReramError::InvalidParameter`] for
    /// a non-positive scale.
    pub fn new(
        q: &Matrix,
        k: &Matrix,
        attention_scale: f32,
        noise: NoiseModel,
        seed: u64,
    ) -> Result<Self, ReramError> {
        InMemoryPruner::with_cell_bits(q, k, attention_scale, noise, seed, 4)
    }

    /// Builds the engine with a non-default MLC depth (§III studies
    /// the bits-per-cell robustness/density trade-off; 4 is cited as
    /// the optimal balance).
    ///
    /// Cells denser than 4 bits grow *more* sensitive to circuit
    /// noise: the per-cell level spacing halves with every extra bit,
    /// so both the read-noise and programming-variation sigmas are
    /// scaled by `2^(cell_bits − 4)` beyond the 4-bit design point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InMemoryPruner::new`]; additionally
    /// `cell_bits` must be in `1..=8`.
    pub fn with_cell_bits(
        q: &Matrix,
        k: &Matrix,
        attention_scale: f32,
        noise: NoiseModel,
        seed: u64,
        cell_bits: u32,
    ) -> Result<Self, ReramError> {
        let unit_params = QuantParams::new(8, 1.0)
            .map_err(|e| ReramError::InvalidParameter(format!("query quantization: {e}")))?;
        let mut pruner = InMemoryPruner {
            tiles: Vec::new(),
            s: 0,
            d: 0,
            cell_bits,
            q_params: unit_params,
            k_params: unit_params,
            k_max_abs: 0.0,
            attention_scale: 1.0,
            noise,
            seed,
            score_lsb: 1.0,
            full_scale_codes: 1.0,
            fault: None,
            remapped: BTreeSet::new(),
            stats: PruneHardwareStats::default(),
            threads: 1,
            q_msb: Vec::new(),
            cuts: Vec::new(),
            lanes: Vec::new(),
        };
        pruner.reprogram_with_cell_bits(q, k, attention_scale, noise, seed, cell_bits)?;
        Ok(pruner)
    }

    /// Reprograms the engine in place for a new head, reusing the
    /// crossbar allocations (the [`crate::TransposableArray`] tiles are
    /// [reset](crate::TransposableArray::reset) and re-tiled rather than
    /// reallocated). After a successful call the pruner behaves
    /// bit-identically to a freshly constructed
    /// [`InMemoryPruner::new`] with the same arguments: the per-tile
    /// RNGs are reseeded, the quantizers recalibrated, and the hardware
    /// operation counters zeroed.
    ///
    /// This is the steady-state entry of the serving engine: one pruner
    /// per worker amortizes its tile allocations across every head it
    /// executes.
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
        self.reprogram_with_cell_bits(q, k, attention_scale, noise, seed, 4)
    }

    /// [`InMemoryPruner::reprogram`] with a non-default MLC depth (the
    /// in-place counterpart of [`InMemoryPruner::with_cell_bits`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`InMemoryPruner::with_cell_bits`]; on error
    /// the pruner must be reprogrammed before further use.
    pub fn reprogram_with_cell_bits(
        &mut self,
        q: &Matrix,
        k: &Matrix,
        attention_scale: f32,
        noise: NoiseModel,
        seed: u64,
        cell_bits: u32,
    ) -> Result<(), ReramError> {
        self.program_head(Some(q), k, attention_scale, noise, seed, cell_bits)?;
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
    fn program_head(
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
    /// 8 bits, resets or creates every tile with its derived seed, and
    /// stores each key's MSB codes in its column. Leaves the pruner's
    /// key-side state (`s`, `k_params`) consistent and zeroes the
    /// hardware counters — exactly what a fresh construction over `k`
    /// would hold.
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
        let row_tiles = d.div_ceil(ARRAY_ROWS);
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
        sprint_parallel::fan_out(&mut parts, |_, (first, tiles)| {
            let mut codes = Vec::with_capacity(ARRAY_ROWS);
            for (ct, row_arrays) in (*first..).zip(tiles.iter_mut()) {
                let cols = (s - ct * ARRAY_COLS).min(ARRAY_COLS);
                row_arrays.truncate(row_tiles);
                for rt in 0..row_tiles {
                    let rows = (d - rt * ARRAY_ROWS).min(ARRAY_ROWS);
                    let tile_seed = tile_seed(seed, ct, rt);
                    if rt == row_arrays.len() {
                        row_arrays.push(TransposableArray::with_cell_bits(
                            rows, cols, cell_bits, noise, tile_seed,
                        )?);
                    } else {
                        // Programmed detached: the overlay is a pure
                        // function of the finished cells, so the fault
                        // model goes back on once, after the last key.
                        row_arrays[rt].set_fault_model(None);
                        row_arrays[rt].reset(rows, cols, cell_bits, noise, tile_seed)?;
                    }
                }
                // Program the tile's keys' MSB nibbles.
                for slot in 0..cols {
                    let key = qk.code_row(ct * ARRAY_COLS + slot);
                    for (rt, arr) in row_arrays.iter_mut().enumerate() {
                        let base = rt * ARRAY_ROWS;
                        codes.clear();
                        codes.extend(
                            key[base..base + arr.rows()]
                                .iter()
                                .map(|&code| round_msb_bits(code, shift, cell_bits)),
                        );
                        arr.store_key(slot, &codes)?;
                    }
                }
                if fault.is_some() {
                    for arr in row_arrays.iter_mut() {
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
    /// comparison ([`ThresholdSpec::quantized`]); pure analog
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
        let qq_params = QuantParams::for_matrix(8, q)
            .map_err(|e| ReramError::InvalidParameter(format!("query quantization: {e}")))?;
        let unit = 4f64.powi((8 - self.cell_bits) as i32);
        self.q_params = qq_params;
        self.score_lsb = unit
            * qq_params.step() as f64
            * self.k_params.step() as f64
            * self.attention_scale as f64;
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
        let tier = active_tier();
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
                        let mut dot = 0i64;
                        for (rt, arr) in row_arrays.iter().enumerate() {
                            let base = rt * ARRAY_ROWS;
                            let nibbles = &row[base..base + arr.rows()];
                            dot += i64::from(simd::idot(tier, arr.intended_key(slot)?, nibbles));
                        }
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

    /// Appends one key row to the programmed crossbars — the
    /// incremental entry of the autoregressive decode path. The paged
    /// decode path hands each step's key row straight from page
    /// storage; the full key history sits behind a closure and its
    /// `O(s·d)` gather is paid only when it is needed. Two regimes:
    ///
    /// * **Append** (the common case): the new key fits the calibrated
    ///   key-quantizer range, so its MSB codes are programmed into a
    ///   fresh column ([`TransposableArray::append_slots`]) without
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
            let unit = 4f64.powi((8 - self.cell_bits) as i32);
            self.score_lsb = unit
                * self.q_params.step() as f64
                * self.k_params.step() as f64
                * self.attention_scale as f64;
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
        let noise = effective_noise(self.noise, self.cell_bits)?;
        let shift = 8 - self.cell_bits;
        let ct = j / ARRAY_COLS;
        let slot = j % ARRAY_COLS;
        if ct == self.tiles.len() {
            // First key of a new column tile: create its row tiles
            // with the same derived seeds a fresh build would use.
            let row_tiles = self.d.div_ceil(ARRAY_ROWS);
            let mut row_arrays = Vec::with_capacity(row_tiles);
            for rt in 0..row_tiles {
                let rows = (self.d - rt * ARRAY_ROWS).min(ARRAY_ROWS);
                let mut arr = TransposableArray::with_cell_bits(
                    rows,
                    1,
                    self.cell_bits,
                    noise,
                    tile_seed(self.seed, ct, rt),
                )?;
                arr.set_fault_model(self.fault);
                row_arrays.push(arr);
            }
            self.tiles.push(row_arrays);
        } else if slot >= self.tiles[ct][0].cols() {
            for arr in &mut self.tiles[ct] {
                arr.append_slots(1);
            }
        }
        for (rt, arr) in self.tiles[ct].iter_mut().enumerate() {
            let base = rt * ARRAY_ROWS;
            let codes: Vec<i32> = (0..arr.rows())
                .map(|r| {
                    round_msb_bits(self.k_params.quantize(key[base + r]), shift, self.cell_bits)
                })
                .collect();
            arr.store_key(slot, &codes)?;
        }
        Ok(())
    }

    /// Number of keys covered.
    pub fn keys(&self) -> usize {
        self.s
    }

    /// Embedding size.
    pub fn embedding(&self) -> usize {
        self.d
    }

    /// Bits per MLC cell.
    pub fn cell_bits(&self) -> u32 {
        self.cell_bits
    }

    /// Accumulated hardware operation counts.
    pub fn stats(&self) -> PruneHardwareStats {
        self.stats
    }

    /// The real score value of one analog code unit (diagnostics).
    pub fn score_lsb(&self) -> f64 {
        self.score_lsb
    }

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
        self.prune_query_into(
            q_row,
            threshold,
            spec,
            &mut pruned,
            Some(&mut approx_scores),
        )?;
        Ok(PruneOutcome {
            decision: PruneDecision::new(pruned),
            approx_scores,
        })
    }

    /// [`InMemoryPruner::prune_query`] into caller-owned rows: one
    /// pruned flag per key in `pruned` and, when asked for, one
    /// approximate score per key in `approx_scores`. A caller that
    /// embeds the key region in a longer row (padding), or never reads
    /// the approximate scores, stages neither twice.
    ///
    /// # Errors
    ///
    /// As [`InMemoryPruner::prune_query`]; additionally
    /// [`ReramError::LengthMismatch`] unless both rows hold exactly
    /// [`InMemoryPruner::keys`] entries.
    pub fn prune_query_into(
        &mut self,
        q_row: &[f32],
        threshold: f32,
        spec: &ThresholdSpec,
        pruned: &mut [bool],
        approx_scores: Option<&mut [f32]>,
    ) -> Result<(), ReramError> {
        if q_row.len() != self.d {
            return Err(ReramError::LengthMismatch {
                what: "query row",
                expected: self.d,
                found: q_row.len(),
            });
        }
        let mut approx_rows = approx_scores.map(|row| [row]);
        self.prune_rows_into(
            q_row,
            threshold,
            spec,
            &mut [pruned],
            approx_rows.as_mut().map(|rows| &mut rows[..]),
        )
    }

    /// [`InMemoryPruner::prune_query_into`] for consecutive query rows
    /// at once: `q_rows` holds `pruned.len()` rows of the embedding
    /// size back to back, and row `i`'s flags (and approximate scores)
    /// land in `pruned[i]` (and `approx_scores[i]`).
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
    /// As [`InMemoryPruner::prune_query_into`] per row; additionally
    /// [`ReramError::LengthMismatch`] unless `q_rows` holds exactly one
    /// row per output row.
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
            let drive_fs: f64 = self.tiles[0]
                .iter()
                .enumerate()
                .map(|(rt, arr)| {
                    let base = rt * ARRAY_ROWS;
                    arr.full_scale(&row[base..base + arr.rows()])
                })
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

    /// Sets how many workers [`InMemoryPruner::reprogram`] (and its
    /// key half), [`InMemoryPruner::calibrate_query`] and the prune
    /// calls split the column tiles over (at least 1; never more than
    /// the tiles). Every output bit and counter is the same at any
    /// width, and a freshly built pruner runs at width 1.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Stages consecutive query rows' MSB nibbles in `self.q_msb`.
    fn stage_rows(&mut self, q_rows: &[f32]) {
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
        let q_msb: Vec<i32> = q_row
            .iter()
            .map(|&x| round_msb_bits(self.q_params.quantize(x), shift, self.cell_bits))
            .collect();
        let mut out = vec![0i64; self.s];
        for (ct, row_arrays) in self.tiles.iter().enumerate() {
            let base_col = ct * ARRAY_COLS;
            for (rt, arr) in row_arrays.iter().enumerate() {
                let base_row = rt * ARRAY_ROWS;
                let input = &q_msb[base_row..base_row + arr.rows()];
                let partial = arr.exact_compute(input)?;
                for (c, p) in partial.iter().enumerate() {
                    out[base_col + c] += p;
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|c| (c as f64 * self.score_lsb) as f32)
            .collect())
    }

    /// Fetches the stored MSB codes of key `j` via a transposed read
    /// (the selective unpruned-vector fetch of §III-B).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad key index.
    pub fn read_key_msb(&mut self, j: usize) -> Result<Vec<i32>, ReramError> {
        if j >= self.s {
            return Err(ReramError::IndexOutOfRange {
                what: "key",
                index: j,
                bound: self.s,
            });
        }
        let ct = j / ARRAY_COLS;
        let slot = j % ARRAY_COLS;
        let mut codes = Vec::with_capacity(self.d);
        for arr in &mut self.tiles[ct] {
            codes.extend(arr.transposed_read(slot)?);
        }
        self.stats.transposed_reads += 1;
        Ok(codes)
    }

    /// Attaches (or detaches, with `None`) a hard-fault model, stamping
    /// it onto every crossbar tile. Attachment is retroactive and
    /// overlay-based (see [`crate::CrossbarArray::set_fault_model`]):
    /// no noise draw is spent, so a detach restores fault-free behavior
    /// bit-for-bit. Changing the model also clears any spare-column
    /// remap, which was derived under the old fault pattern.
    pub fn set_fault_model(&mut self, fault: Option<FaultModel>) {
        self.fault = fault;
        self.remapped.clear();
        for row_arrays in &mut self.tiles {
            for arr in row_arrays {
                arr.set_fault_model(fault);
            }
        }
    }

    /// The attached fault model, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// Scrubs the whole programmed key set: transposed-reads every key
    /// and compares the readout against the intended (write-verified)
    /// digital shadow, returning the map of every disagreeing cell.
    /// Each scanned key costs one transposed read in the hardware
    /// stats. Without a fault model the map is always clean.
    ///
    /// Scrubbing is only ever invoked explicitly by the layer above —
    /// programming and extending never scrub implicitly, so their
    /// hardware-stats contracts are unchanged.
    ///
    /// # Errors
    ///
    /// Propagates read errors (none occur on a consistent pruner).
    pub fn scrub(&mut self) -> Result<FaultMap, ReramError> {
        let mut sites = Vec::new();
        for j in 0..self.s {
            self.scrub_key_into(j, &mut sites)?;
        }
        Ok(FaultMap {
            keys_scanned: self.s,
            sites,
        })
    }

    /// Scrubs a single key (the decode path's per-append check).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad key index.
    pub fn scrub_key(&mut self, j: usize) -> Result<FaultMap, ReramError> {
        if j >= self.s {
            return Err(ReramError::IndexOutOfRange {
                what: "key",
                index: j,
                bound: self.s,
            });
        }
        let mut sites = Vec::new();
        self.scrub_key_into(j, &mut sites)?;
        Ok(FaultMap {
            keys_scanned: 1,
            sites,
        })
    }

    /// Appends key `j`'s faulty cells (readout vs. intended shadow) to
    /// `sites`, charging one transposed read.
    fn scrub_key_into(&mut self, j: usize, sites: &mut Vec<FaultSite>) -> Result<(), ReramError> {
        let ct = j / ARRAY_COLS;
        let slot = j % ARRAY_COLS;
        for (rt, arr) in self.tiles[ct].iter_mut().enumerate() {
            let read = arr.transposed_read(slot)?;
            let intended = arr.intended_key(slot)?;
            for (r, (got, want)) in read.iter().zip(intended).enumerate() {
                if got != want {
                    sites.push(FaultSite {
                        crossbar: arr.identity(),
                        row: rt * ARRAY_ROWS + r,
                        col: j,
                    });
                }
            }
        }
        self.stats.transposed_reads += 1;
        Ok(())
    }

    /// Attempts to repair every faulty key in `map` by reprogramming
    /// its columns from the intended digital shadow with write-verify
    /// and bounded retry (`max_attempts` per column; backoff advances
    /// the program epoch, which re-rolls transient upsets). The
    /// returned outcome counts retries and deterministic backoff ticks
    /// and re-scrubs the touched keys into `remaining` — permanent
    /// faults survive and stay listed there.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] if `map` names a key
    /// this pruner does not hold.
    pub fn repair(
        &mut self,
        map: &FaultMap,
        max_attempts: u32,
    ) -> Result<RepairOutcome, ReramError> {
        let mut outcome = RepairOutcome::default();
        let faulty = map.faulty_keys();
        for &j in &faulty {
            if j >= self.s {
                return Err(ReramError::IndexOutOfRange {
                    what: "key",
                    index: j,
                    bound: self.s,
                });
            }
            let ct = j / ARRAY_COLS;
            let slot = j % ARRAY_COLS;
            for arr in self.tiles[ct].iter_mut() {
                let intended = arr.intended_codes(slot)?;
                let program = arr.store_key_verified(slot, &intended, max_attempts)?;
                outcome.retries += u64::from(program.attempts.saturating_sub(1));
                outcome.backoff_ticks += program.backoff_ticks;
            }
        }
        outcome.remaining.keys_scanned = faulty.len();
        for &j in &faulty {
            self.scrub_key_into(j, &mut outcome.remaining.sites)?;
        }
        Ok(outcome)
    }

    /// Remaps `keys` to verified fault-free spare columns: their scores
    /// are thereafter routed from the exact digital shadow instead of
    /// the faulty analog columns ([`InMemoryPruner::prune_query`]
    /// substitutes them before the comparator). Replaces any previous
    /// remap; a full reprogram or fault-model change clears it.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] if any key is out of
    /// range.
    pub fn set_remapped(&mut self, keys: &[usize]) -> Result<(), ReramError> {
        for &j in keys {
            if j >= self.s {
                return Err(ReramError::IndexOutOfRange {
                    what: "key",
                    index: j,
                    bound: self.s,
                });
            }
        }
        self.remapped = keys.iter().copied().collect();
        Ok(())
    }

    /// The keys currently remapped to spare columns, ascending.
    pub fn remapped_keys(&self) -> Vec<usize> {
        self.remapped.iter().copied().collect()
    }
}

/// The exact digital-shadow score of key `j` for the given query
/// nibbles, in code units (the spare-column substitute for a remapped
/// key).
fn exact_key_score(
    tiles: &[Vec<TransposableArray>],
    q_msb: &[i32],
    j: usize,
) -> Result<i64, ReramError> {
    let ct = j / ARRAY_COLS;
    let slot = j % ARRAY_COLS;
    let mut acc = 0i64;
    for (rt, arr) in tiles[ct].iter().enumerate() {
        let base = rt * ARRAY_ROWS;
        for (r, &w) in arr.intended_key(slot)?.iter().enumerate() {
            acc += w as i64 * q_msb[base + r] as i64;
        }
    }
    Ok(acc)
}

/// The shared, read-only side of a prune fan-out: the staged rows,
/// their cuts and the comparator settings.
struct Rows<'a> {
    q_msb: &'a [i32],
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
    tiles: &'t mut [Vec<TransposableArray>],
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
                for (rt, (arr, read)) in row_arrays.iter_mut().zip(&mut lane.reads).enumerate() {
                    let base_row = rt * ARRAY_ROWS;
                    arr.in_situ_read_into(&q[base_row..base_row + arr.rows()], read)?;
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
                    let score = compared(exact_key_score(part.tiles, q, k)? as f64);
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
fn tile_groups(s: usize, threads: usize) -> Vec<Range<usize>> {
    sprint_parallel::weighted_ranges(s.div_ceil(ARRAY_COLS), threads, |ct| {
        (s - ct * ARRAY_COLS).min(ARRAY_COLS)
    })
}

/// The derived RNG seed of tile `(col_tile, row_tile)` — shared by the
/// full reprogram and the incremental append so a tile created either
/// way draws from the same stream.
fn tile_seed(seed: u64, ct: usize, rt: usize) -> u64 {
    seed.wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add((ct * 1024 + rt) as u64)
}

/// Rounded top bits of an 8-bit code for a `cell_bits`-deep cell
/// (zero-mean split; see `QuantizedMatrix::msb_rounded`).
fn round_msb_bits(code: i32, shift: u32, cell_bits: u32) -> i32 {
    let denom = 1i32 << shift;
    let half = denom / 2;
    let rounded = if code >= 0 {
        (code + half) / denom
    } else {
        (code - half) / denom
    };
    let hi = (1i32 << (cell_bits - 1)) - 1;
    rounded.clamp(-hi - 1, hi)
}

/// Symmetric uniform quantization of `x` to `bits` bits over
/// `[-full_scale, full_scale]`, returning the reconstructed value.
fn quantize_symmetric(x: f64, full_scale: f64, bits: u32) -> f64 {
    let qmax = ((1i64 << (bits - 1)) - 1).max(1) as f64;
    let step = full_scale / qmax;
    let code = (x / step).round().clamp(-qmax, qmax);
    code * step
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_attention::Matrix;

    /// A deterministic pseudo-random matrix in [-1, 1].
    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / 8388608.0) - 1.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
    }

    fn digital_decision(pruner: &InMemoryPruner, q_row: &[f32], th: f32) -> PruneDecision {
        let exact = pruner.exact_msb_scores(q_row).unwrap();
        PruneDecision::from_scores(&exact, th)
    }

    #[test]
    fn construction_validates_shapes_and_scale() {
        let k = random_matrix(8, 16, 1);
        let q_bad = random_matrix(4, 8, 2);
        assert!(InMemoryPruner::new(&q_bad, &k, 1.0, NoiseModel::ideal(), 0).is_err());
        let q = random_matrix(4, 16, 2);
        assert!(InMemoryPruner::new(&q, &k, 0.0, NoiseModel::ideal(), 0).is_err());
        assert!(InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 0).is_ok());
    }

    #[test]
    fn ideal_analog_matches_digital_msb_decision() {
        // Invariant 2 of DESIGN.md.
        let q = random_matrix(6, 32, 3);
        let k = random_matrix(40, 32, 4);
        let mut pruner = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::ideal(), 5).unwrap();
        let spec = ThresholdSpec::default();
        for i in 0..q.rows() {
            let out = pruner.prune_query(q.row(i), 0.05, &spec).unwrap();
            let reference = digital_decision(&pruner, q.row(i), 0.05);
            assert_eq!(out.decision, reference, "query {i}");
        }
    }

    #[test]
    fn tiling_covers_multiple_arrays() {
        // 300 keys -> 3 column tiles; d=128 -> 2 row tiles.
        let q = random_matrix(2, 128, 7);
        let k = random_matrix(300, 128, 8);
        let mut pruner = InMemoryPruner::new(&q, &k, 0.09, NoiseModel::ideal(), 9).unwrap();
        let out = pruner
            .prune_query(q.row(0), 0.0, &ThresholdSpec::default())
            .unwrap();
        assert_eq!(out.decision.len(), 300);
        // 3 col tiles x 2 row tiles analog ops for one query.
        assert_eq!(pruner.stats().in_memory_ops, 6);
        let reference = digital_decision(&pruner, q.row(0), 0.0);
        assert_eq!(out.decision, reference, "tiled must equal monolithic");
    }

    #[test]
    fn noise_margin_protects_kept_keys() {
        // Invariant 3: with a 3-sigma margin, in-memory pruning keeps
        // (almost surely) every key the digital threshold keeps.
        let q = random_matrix(8, 64, 11);
        let k = random_matrix(128, 64, 12);
        let noise = NoiseModel::default();
        let mut pruner = InMemoryPruner::new(&q, &k, 0.125, noise, 13).unwrap();
        let spec = ThresholdSpec::analog_with_noise_margin(&noise);
        for i in 0..q.rows() {
            let th = 0.02f32;
            let out = pruner.prune_query(q.row(i), th, &spec).unwrap();
            let reference = digital_decision(&pruner, q.row(i), th);
            for j in 0..reference.len() {
                if reference.is_kept(j) {
                    assert!(
                        out.decision.is_kept(j),
                        "query {i} falsely pruned key {j} despite margin"
                    );
                }
            }
        }
    }

    #[test]
    fn margin_increases_kept_count() {
        let q = random_matrix(4, 32, 21);
        let k = random_matrix(64, 32, 22);
        let mut a = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::ideal(), 23).unwrap();
        let mut b = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::ideal(), 23).unwrap();
        let no_margin = a
            .prune_query(q.row(0), 0.05, &ThresholdSpec::default())
            .unwrap();
        let with_margin = b
            .prune_query(
                q.row(0),
                0.05,
                &ThresholdSpec {
                    score_bits: None,
                    margin_fraction: 0.05,
                },
            )
            .unwrap();
        assert!(with_margin.decision.kept_count() >= no_margin.decision.kept_count());
    }

    #[test]
    fn fewer_score_bits_degrade_the_decision() {
        // The Fig. 5 mechanism: coarse score quantization makes the
        // pruning decision diverge from the reference.
        let q = random_matrix(16, 64, 31);
        let k = random_matrix(96, 64, 32);
        let divergence = |bits: u32| -> usize {
            let mut pruner = InMemoryPruner::new(&q, &k, 0.125, NoiseModel::ideal(), 33).unwrap();
            let spec = ThresholdSpec::quantized(bits);
            let mut diffs = 0;
            for i in 0..q.rows() {
                let th = 0.03f32;
                let out = pruner.prune_query(q.row(i), th, &spec).unwrap();
                let reference = digital_decision(&pruner, q.row(i), th);
                diffs += (0..reference.len())
                    .filter(|&j| out.decision.is_pruned(j) != reference.is_pruned(j))
                    .count();
            }
            diffs
        };
        let coarse = divergence(1);
        let four = divergence(4);
        let fine = divergence(10);
        assert!(
            coarse > four,
            "1-bit ({coarse}) must diverge more than 4-bit ({four})"
        );
        assert!(
            four >= fine,
            "4-bit ({four}) must diverge at least as much as 10-bit ({fine})"
        );
    }

    #[test]
    fn transposed_reads_return_stored_msb_codes() {
        let q = random_matrix(1, 64, 41);
        let k = random_matrix(200, 64, 42);
        let qk = quantize_matrix(&k, 8).unwrap();
        let mut pruner = InMemoryPruner::new(&q, &k, 0.125, NoiseModel::default(), 43).unwrap();
        for j in [0usize, 64, 127, 128, 199] {
            let fetched = pruner.read_key_msb(j).unwrap();
            let expected: Vec<i32> = (0..64).map(|c| qk.msb_rounded(j, c)).collect();
            assert_eq!(fetched, expected, "key {j}");
        }
        assert_eq!(pruner.stats().transposed_reads, 5);
        assert!(pruner.read_key_msb(200).is_err());
    }

    #[test]
    fn stats_accumulate_per_query() {
        let q = random_matrix(3, 64, 51);
        let k = random_matrix(128, 64, 52);
        let mut pruner = InMemoryPruner::new(&q, &k, 0.125, NoiseModel::ideal(), 53).unwrap();
        let spec = ThresholdSpec::default();
        for i in 0..3 {
            pruner.prune_query(q.row(i), 0.0, &spec).unwrap();
        }
        let stats = pruner.stats();
        assert_eq!(stats.queries_pruned, 3);
        assert_eq!(stats.comparator_firings, 3 * 128);
        assert_eq!(stats.in_memory_ops, 3, "one 64x128 tile per query");
        assert_eq!(stats.dac_conversions, 3 * 64);
    }

    #[test]
    fn prune_query_validates_inputs() {
        let q = random_matrix(1, 16, 61);
        let k = random_matrix(8, 16, 62);
        let mut pruner = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 63).unwrap();
        assert!(pruner
            .prune_query(&[0.0; 8], 0.0, &ThresholdSpec::default())
            .is_err());
        assert!(pruner
            .prune_query(q.row(0), 0.0, &ThresholdSpec::quantized(0))
            .is_err());
        assert!(pruner
            .prune_query(q.row(0), 0.0, &ThresholdSpec::quantized(17))
            .is_err());
        // Caller-owned rows must cover exactly the stored keys.
        let spec = ThresholdSpec::default();
        let (mut flags, mut scores) = ([false; 8], [0.0f32; 8]);
        assert!(pruner
            .prune_query_into(q.row(0), 0.0, &spec, &mut flags[..7], None)
            .is_err());
        assert!(pruner
            .prune_query_into(q.row(0), 0.0, &spec, &mut flags, Some(&mut scores[..7]))
            .is_err());
        pruner
            .prune_query_into(q.row(0), 0.0, &spec, &mut flags, Some(&mut scores))
            .unwrap();
        let outcome = pruner.prune_query(q.row(0), 0.0, &spec).unwrap();
        assert_eq!(outcome.decision.as_slice(), flags);
        assert_eq!(outcome.approx_scores, scores);
    }

    #[test]
    fn reprogram_is_bit_identical_to_fresh_construction() {
        // The serving-engine contract: a pruner reused across heads of
        // different shapes produces exactly the outputs a freshly built
        // pruner would, noise draws included.
        let noise = NoiseModel::default();
        let heads = [
            (random_matrix(6, 32, 3), random_matrix(40, 32, 4), 0.176f32),
            (random_matrix(4, 128, 5), random_matrix(300, 128, 6), 0.09),
            (random_matrix(8, 64, 7), random_matrix(96, 64, 8), 0.125),
        ];
        let mut reused =
            InMemoryPruner::new(&heads[0].0, &heads[0].1, heads[0].2, noise, 999).unwrap();
        for (i, (q, k, scale)) in heads.iter().enumerate() {
            let seed = 50 + i as u64;
            reused.reprogram(q, k, *scale, noise, seed).unwrap();
            let mut fresh = InMemoryPruner::new(q, k, *scale, noise, seed).unwrap();
            let spec = ThresholdSpec::default();
            for r in 0..q.rows() {
                let a = reused.prune_query(q.row(r), 0.02, &spec).unwrap();
                let b = fresh.prune_query(q.row(r), 0.02, &spec).unwrap();
                assert_eq!(a, b, "head {i} query {r}");
            }
            assert_eq!(reused.stats(), fresh.stats(), "head {i}");
            assert_eq!(reused.keys(), k.rows());
            assert_eq!(reused.embedding(), k.cols());
        }
    }

    /// Rows-at-once over `threads` workers, against the one-row loop
    /// of a width-1 twin: flags, approximate scores and counters.
    fn assert_rows_call_matches_the_row_loop(
        q: &Matrix,
        k: &Matrix,
        noise: NoiseModel,
        spec: ThresholdSpec,
        setup: impl Fn(&mut InMemoryPruner),
        label: &str,
    ) {
        let s = k.rows();
        let mut serial = InMemoryPruner::new(q, k, 0.125, noise, 17).unwrap();
        setup(&mut serial);
        let mut want_flags = vec![vec![false; s]; q.rows()];
        let mut want_scores = vec![vec![0.0f32; s]; q.rows()];
        for (i, (f, a)) in want_flags.iter_mut().zip(&mut want_scores).enumerate() {
            serial
                .prune_query_into(q.row(i), 0.02, &spec, f, Some(a))
                .unwrap();
        }
        for threads in 1..=4 {
            let mut wide = InMemoryPruner::new(q, k, 0.5, NoiseModel::ideal(), 3).unwrap();
            wide.set_threads(threads);
            wide.reprogram(q, k, 0.125, noise, 17).unwrap();
            setup(&mut wide);
            let mut flags = vec![vec![true; s]; q.rows()];
            let mut scores = vec![vec![0.0f32; s]; q.rows()];
            let mut flag_rows: Vec<&mut [bool]> = flags.iter_mut().map(|f| &mut f[..]).collect();
            let mut score_rows: Vec<&mut [f32]> = scores.iter_mut().map(|a| &mut a[..]).collect();
            wide.prune_rows_into(
                q.as_slice(),
                0.02,
                &spec,
                &mut flag_rows,
                Some(&mut score_rows),
            )
            .unwrap();
            assert_eq!(flags, want_flags, "{label} at {threads} threads");
            let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
                rows.iter()
                    .map(|r| r.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                bits(&scores),
                bits(&want_scores),
                "{label} at {threads} threads"
            );
            assert_eq!(wide.stats(), serial.stats(), "{label} at {threads} threads");
            assert_eq!(
                wide.full_scale_codes.to_bits(),
                serial.full_scale_codes.to_bits(),
                "{label} at {threads} threads"
            );
        }
    }

    #[test]
    fn the_tile_parallel_rows_call_equals_the_one_row_loop() {
        // 48 keys: one tile; 257: the last tile holds one column; 276:
        // tiles of 128/128/20; d = 128 merges two row tiles per key.
        for (s, d) in [(48usize, 64usize), (257, 64), (276, 64), (276, 128)] {
            let q = random_matrix(9, d, 40 + s as u64);
            let k = random_matrix(s, d, 41 + s as u64);
            for (noise, name) in [
                (NoiseModel::ideal(), "ideal"),
                (NoiseModel::default(), "default"),
            ] {
                for spec in [ThresholdSpec::default(), ThresholdSpec::quantized(5)] {
                    let label = format!("s {s} d {d} {name} {spec:?}");
                    assert_rows_call_matches_the_row_loop(&q, &k, noise, spec, |_| {}, &label);
                }
            }
            // Spare-column substitutes on both sides of a tile border,
            // under a stuck-cell fault overlay.
            let remap = |p: &mut InMemoryPruner| {
                p.set_fault_model(Some(FaultModel::uniform(0.02, 7).unwrap()));
                p.set_remapped(&[0, s / 2, s - 1]).unwrap();
            };
            let label = format!("s {s} d {d} remapped");
            assert_rows_call_matches_the_row_loop(
                &q,
                &k,
                NoiseModel::default(),
                ThresholdSpec::default(),
                remap,
                &label,
            );
        }
    }

    #[test]
    fn the_rows_call_validates_its_rows() {
        let q = random_matrix(2, 16, 61);
        let k = random_matrix(8, 16, 62);
        let mut pruner = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 63).unwrap();
        let spec = ThresholdSpec::default();
        let (mut a, mut b) = ([false; 8], [false; 8]);
        assert!(pruner
            .prune_rows_into(&q.as_slice()[..16], 0.0, &spec, &mut [&mut a, &mut b], None)
            .is_err());
        let mut scores = [0.0f32; 8];
        assert!(pruner
            .prune_rows_into(
                q.as_slice(),
                0.0,
                &spec,
                &mut [&mut a, &mut b],
                Some(&mut [&mut scores])
            )
            .is_err());
        pruner
            .prune_rows_into(q.as_slice(), 0.0, &spec, &mut [], None)
            .unwrap_err();
        pruner
            .prune_rows_into(&[], 0.0, &spec, &mut [], None)
            .unwrap();
        assert_eq!(pruner.stats().queries_pruned, 0);
    }

    /// The rows `0..n` of `m` as an owned matrix.
    fn prefix(m: &Matrix, n: usize) -> Matrix {
        m.prefix_rows(n).unwrap()
    }

    #[test]
    fn extend_matches_fresh_construction_at_every_length() {
        // The decode contract: growing the programmed key set one row
        // at a time (plus per-step query calibration) is bit-identical
        // to rebuilding the pruner over each prefix, ideal-noise-wise.
        // 300 keys at d = 128 crosses both column- and row-tile
        // boundaries along the way.
        let q_all = random_matrix(48, 128, 71);
        let k_all = random_matrix(300, 128, 72);
        let noise = NoiseModel::ideal();
        let spec = ThresholdSpec::quantized(6); // exercises the full scale
        let start = 260;
        let mut grown =
            InMemoryPruner::new(&prefix(&q_all, 1), &prefix(&k_all, start), 0.09, noise, 5)
                .unwrap();
        for s in start + 1..=300 {
            let q_row = Matrix::from_vec(1, 128, q_all.row(s - start).to_vec()).unwrap();
            let k = prefix(&k_all, s);
            let before = grown.stats();
            let reprogrammed = grown.extend_row(k.row(s - 1), || k.clone()).unwrap();
            grown.calibrate_query(&q_row, true).unwrap();
            let mut fresh = InMemoryPruner::new(&q_row, &k, 0.09, noise, 5).unwrap();
            let a = grown.prune_query(q_row.row(0), 0.02, &spec).unwrap();
            let b = fresh.prune_query(q_row.row(0), 0.02, &spec).unwrap();
            assert_eq!(a, b, "s = {s}");
            assert_eq!(grown.keys(), s);
            let base = if reprogrammed {
                PruneHardwareStats::default()
            } else {
                before
            };
            assert_eq!(
                grown.stats().delta_since(&base),
                fresh.stats(),
                "s = {s} stats delta"
            );
        }
    }

    #[test]
    fn extend_recalibrates_when_a_key_widens_the_range() {
        let q = random_matrix(1, 32, 81);
        let k = random_matrix(64, 32, 82);
        let noise = NoiseModel::ideal();
        let mut grown = InMemoryPruner::new(&q, &k, 0.176, noise, 9).unwrap();
        // Append a key 3x beyond anything seen: the shared quantizer
        // must re-cover the range, forcing a full reprogram.
        let mut widened = k.as_slice().to_vec();
        widened.extend(k.row(0).iter().map(|x| x * 3.0));
        let k_wide = Matrix::from_vec(65, 32, widened).unwrap();
        assert!(
            grown.extend_row(k_wide.row(64), || k_wide.clone()).unwrap(),
            "range grew: must reprogram"
        );
        grown.calibrate_query(&q, true).unwrap();
        let mut fresh = InMemoryPruner::new(&q, &k_wide, 0.176, noise, 9).unwrap();
        let spec = ThresholdSpec::default();
        let a = grown.prune_query(q.row(0), 0.02, &spec).unwrap();
        let b = fresh.prune_query(q.row(0), 0.02, &spec).unwrap();
        assert_eq!(a, b);
        // An in-range append afterwards goes back to the cheap path
        // and never gathers the history.
        let appended = grown.extend_row(k.row(1), || unreachable!("in-range append"));
        assert!(!appended.unwrap());
        assert_eq!(grown.keys(), 66);
    }

    #[test]
    fn extend_validates_inputs() {
        let q = random_matrix(1, 16, 91);
        let k = random_matrix(8, 16, 92);
        let mut p = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 3).unwrap();
        // Wrong embedding.
        assert!(p.extend_row(&[0.5; 8], || unreachable!()).is_err());
        // A widening row whose history is not the grown geometry.
        let wide = [1e3f32; 16];
        assert!(p.extend_row(&wide, || k.clone()).is_err());
        assert!(p.extend_row(&wide, || random_matrix(9, 8, 93)).is_err());
        assert_eq!(p.keys(), 8, "a rejected row appends nothing");
        // Query calibration validates the embedding too.
        assert!(p.calibrate_query(&random_matrix(1, 8, 95), false).is_err());
    }

    #[test]
    fn stats_delta_saturates_and_subtracts() {
        let a = PruneHardwareStats {
            in_memory_ops: 5,
            comparator_firings: 100,
            dac_conversions: 64,
            transposed_reads: 2,
            queries_pruned: 3,
        };
        let b = PruneHardwareStats {
            in_memory_ops: 7,
            comparator_firings: 150,
            dac_conversions: 128,
            transposed_reads: 2,
            queries_pruned: 4,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.in_memory_ops, 2);
        assert_eq!(d.comparator_firings, 50);
        assert_eq!(d.queries_pruned, 1);
        // Saturation after a counter reset (recalibration event).
        let z = PruneHardwareStats::default().delta_since(&a);
        assert_eq!(z, PruneHardwareStats::default());
    }

    #[test]
    fn quantize_symmetric_is_sane() {
        assert_eq!(quantize_symmetric(0.0, 100.0, 4), 0.0);
        // Saturation at the full scale.
        let sat = quantize_symmetric(1e9, 100.0, 4);
        assert!((sat - 100.0).abs() < 100.0 / 7.0);
        // 1-bit quantization collapses to {-fs, 0, fs}.
        let one = quantize_symmetric(30.0, 100.0, 1);
        assert!(one == 0.0 || (one - 100.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::FaultModel;
    use proptest::prelude::*;
    use sprint_attention::Matrix;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / 8388608.0) - 1.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
    }

    fn digital_decision(pruner: &InMemoryPruner, q_row: &[f32], th: f32) -> PruneDecision {
        let exact = pruner.exact_msb_scores(q_row).unwrap();
        PruneDecision::from_scores(&exact, th)
    }

    #[test]
    fn quiet_fault_model_keeps_the_pruner_bit_identical() {
        let q = random_matrix(4, 64, 201);
        let k = random_matrix(96, 64, 202);
        let noise = NoiseModel::default();
        let mut plain = InMemoryPruner::new(&q, &k, 0.125, noise, 7).unwrap();
        let mut stamped = InMemoryPruner::new(&q, &k, 0.125, noise, 7).unwrap();
        stamped.set_fault_model(Some(FaultModel::new(55)));
        let spec = ThresholdSpec::default();
        for i in 0..q.rows() {
            let a = plain.prune_query(q.row(i), 0.02, &spec).unwrap();
            let b = stamped.prune_query(q.row(i), 0.02, &spec).unwrap();
            assert_eq!(a, b, "query {i}");
        }
        assert!(stamped.scrub().unwrap().is_clean());
    }

    #[test]
    fn fault_free_scrub_is_clean_and_charges_reads() {
        let q = random_matrix(1, 32, 211);
        let k = random_matrix(20, 32, 212);
        let mut p = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::default(), 3).unwrap();
        let before = p.stats();
        let map = p.scrub().unwrap();
        assert!(map.is_clean());
        assert_eq!(map.keys_scanned, 20);
        assert_eq!(p.stats().delta_since(&before).transposed_reads, 20);
    }

    #[test]
    fn repair_clears_transients_completely() {
        let q = random_matrix(1, 32, 221);
        let k = random_matrix(16, 32, 222);
        let fault = FaultModel::new(9).with_transient_rate(0.1).unwrap();
        let mut p = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::default(), 31).unwrap();
        p.set_fault_model(Some(fault));
        let map = p.scrub().unwrap();
        assert!(!map.is_clean(), "10% upsets over 512 cells must show");
        let outcome = p.repair(&map, 64).unwrap();
        assert!(
            outcome.remaining.is_clean(),
            "transients must clear: {:?}",
            outcome.remaining
        );
        assert!(outcome.retries > 0);
        assert!(p.scrub().unwrap().is_clean(), "repair persists");
    }

    #[test]
    fn permanent_faults_survive_repair() {
        let q = random_matrix(1, 32, 231);
        let k = random_matrix(16, 32, 232);
        let fault = FaultModel::new(4).with_stuck_rates(0.1, 0.1).unwrap();
        let mut p = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::default(), 41).unwrap();
        p.set_fault_model(Some(fault));
        let map = p.scrub().unwrap();
        assert!(!map.is_clean());
        let outcome = p.repair(&map, 8).unwrap();
        assert_eq!(
            outcome.remaining.sites, map.sites,
            "stuck cells shrug off every retry"
        );
    }

    #[test]
    fn dead_columns_flag_every_key() {
        let q = random_matrix(1, 32, 241);
        let k = random_matrix(24, 32, 242);
        let fault = FaultModel::new(6).with_line_rates(1.0, 0.0).unwrap();
        let mut p = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::default(), 51).unwrap();
        p.set_fault_model(Some(fault));
        let map = p.scrub().unwrap();
        assert_eq!(map.faulty_keys(), (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn remapped_keys_score_from_the_digital_shadow() {
        // Ideal noise: clean analog columns are exact, so once the
        // faulty keys are remapped the decision must equal the digital
        // reference despite heavy stuck faults.
        let q = random_matrix(4, 64, 251);
        let k = random_matrix(96, 64, 252);
        let fault = FaultModel::new(12).with_stuck_rates(0.1, 0.1).unwrap();
        let mut p = InMemoryPruner::new(&q, &k, 0.125, NoiseModel::ideal(), 61).unwrap();
        p.set_fault_model(Some(fault));
        let map = p.scrub().unwrap();
        assert!(!map.is_clean());
        p.set_remapped(&map.faulty_keys()).unwrap();
        assert_eq!(p.remapped_keys(), map.faulty_keys());
        let spec = ThresholdSpec::default();
        for i in 0..q.rows() {
            let out = p.prune_query(q.row(i), 0.02, &spec).unwrap();
            let reference = digital_decision(&p, q.row(i), 0.02);
            assert_eq!(out.decision, reference, "query {i}");
        }
    }

    #[test]
    fn scrub_key_and_repair_validate_indices() {
        let q = random_matrix(1, 16, 261);
        let k = random_matrix(8, 16, 262);
        let mut p = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 71).unwrap();
        assert!(p.scrub_key(8).is_err());
        assert!(p.scrub_key(7).unwrap().is_clean());
        assert!(p.set_remapped(&[8]).is_err());
        let bogus = FaultMap {
            keys_scanned: 1,
            sites: vec![FaultSite {
                crossbar: 0,
                row: 0,
                col: 9,
            }],
        };
        assert!(p.repair(&bogus, 2).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_permanent_fault_maps_survive_reprogram_cycles(
            seed in 0u64..40,
            fault_seed in 0u64..40,
        ) {
            // The determinism contract: a permanent-fault map derives
            // from crossbar identity alone, so independently built
            // pruners agree and reprogram/reset cycles change nothing.
            let q = random_matrix(2, 64, seed ^ 0xaaaa);
            let k = random_matrix(160, 64, seed ^ 0xbbbb);
            let fault = FaultModel::new(fault_seed)
                .with_stuck_rates(0.05, 0.05).unwrap()
                .with_line_rates(0.05, 0.02).unwrap();
            let noise = NoiseModel::default();
            let mut a = InMemoryPruner::new(&q, &k, 0.125, noise, seed).unwrap();
            a.set_fault_model(Some(fault));
            let map = a.scrub().unwrap();
            let mut b = InMemoryPruner::new(&q, &k, 0.125, noise, seed).unwrap();
            b.set_fault_model(Some(fault));
            prop_assert_eq!(&map, &b.scrub().unwrap());
            a.reprogram(&q, &k, 0.125, noise, seed).unwrap();
            prop_assert_eq!(&map, &a.scrub().unwrap());
        }
    }
}

#[cfg(test)]
mod cell_bit_tests {
    use super::*;
    use sprint_attention::Matrix;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / 8388608.0) - 1.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
    }

    #[test]
    fn cell_bits_are_validated() {
        let q = random_matrix(2, 16, 1);
        let k = random_matrix(8, 16, 2);
        assert!(InMemoryPruner::with_cell_bits(&q, &k, 0.25, NoiseModel::ideal(), 3, 0).is_err());
        assert!(InMemoryPruner::with_cell_bits(&q, &k, 0.25, NoiseModel::ideal(), 3, 9).is_err());
        let p = InMemoryPruner::with_cell_bits(&q, &k, 0.25, NoiseModel::ideal(), 3, 6).unwrap();
        assert_eq!(p.cell_bits(), 6);
    }

    #[test]
    fn default_constructor_uses_four_bit_cells() {
        let q = random_matrix(2, 16, 4);
        let k = random_matrix(8, 16, 5);
        let p = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 6).unwrap();
        assert_eq!(p.cell_bits(), 4);
    }

    /// The full scale as it was calibrated before the integer walk:
    /// every sampled row's exact scores, each rounded to `f32` and
    /// converted back to code units, scanned for the largest.
    fn full_scale_by_float_scan(p: &InMemoryPruner, q: &Matrix) -> f64 {
        let mut observed = 0.0f64;
        for i in 0..q.rows().min(128) {
            for sc in p.exact_msb_scores(q.row(i)).unwrap() {
                observed = observed.max((sc as f64 / p.score_lsb).abs());
            }
        }
        (observed * 4.0).max(p.d as f64)
    }

    #[test]
    fn integer_full_scale_calibration_equals_the_float_scan() {
        // d = 128 merges two row tiles per key; 140 query rows exceed
        // the 128-row sample; 200 keys span two column tiles.
        for d in [64usize, 128] {
            let q = random_matrix(140, d, 21);
            let k = random_matrix(200, d, 22);
            for cell_bits in 2..=8 {
                let build = || {
                    InMemoryPruner::with_cell_bits(
                        &q,
                        &k,
                        0.11,
                        NoiseModel::default(),
                        5,
                        cell_bits,
                    )
                    .unwrap()
                };
                let mut calibrated = build();
                let mut scanned = build();
                scanned.full_scale_codes = full_scale_by_float_scan(&scanned, &q);
                assert_eq!(
                    calibrated.full_scale_codes.to_bits(),
                    scanned.full_scale_codes.to_bits(),
                    "d {d} cell_bits {cell_bits}"
                );
                let spec = ThresholdSpec::quantized(4);
                for i in [0, 77, 139] {
                    assert_eq!(
                        calibrated.prune_query(q.row(i), 0.02, &spec).unwrap(),
                        scanned.prune_query(q.row(i), 0.02, &spec).unwrap(),
                        "d {d} cell_bits {cell_bits} query {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_cell_bits_approximate_the_full_score_better_under_ideal_analog() {
        // With noise held at zero, deeper cells keep more of the code
        // and the in-memory score converges on the full 8-bit score.
        let q = random_matrix(8, 32, 7);
        let k = random_matrix(48, 32, 8);
        let exact_full: Vec<f32> = {
            // Full-precision digital reference through the same
            // quantizers (8-bit codes).
            let p8 =
                InMemoryPruner::with_cell_bits(&q, &k, 0.18, NoiseModel::ideal(), 9, 8).unwrap();
            p8.exact_msb_scores(q.row(0)).unwrap()
        };
        let err_of = |bits: u32| -> f64 {
            let p =
                InMemoryPruner::with_cell_bits(&q, &k, 0.18, NoiseModel::ideal(), 9, bits).unwrap();
            let approx = p.exact_msb_scores(q.row(0)).unwrap();
            approx
                .iter()
                .zip(&exact_full)
                .map(|(a, e)| ((a - e).abs()) as f64)
                .sum::<f64>()
                / approx.len() as f64
        };
        let e2 = err_of(2);
        let e4 = err_of(4);
        let e6 = err_of(6);
        assert!(e2 > e4, "2-bit err {e2} must exceed 4-bit err {e4}");
        assert!(e4 > e6, "4-bit err {e4} must exceed 6-bit err {e6}");
    }

    #[test]
    fn deeper_cells_carry_more_noise() {
        // The robustness half of the section III trade-off: beyond the
        // 4-bit design point, the effective noise model degrades.
        let q = random_matrix(4, 64, 11);
        let k = random_matrix(96, 64, 12);
        let spread_of = |bits: u32| -> f64 {
            let mut p =
                InMemoryPruner::with_cell_bits(&q, &k, 0.125, NoiseModel::default(), 13, bits)
                    .unwrap();
            let exact = p.exact_msb_scores(q.row(0)).unwrap();
            let mut sq = 0.0f64;
            let n = 20;
            for _ in 0..n {
                let out = p
                    .prune_query(q.row(0), 0.0, &ThresholdSpec::default())
                    .unwrap();
                for (a, e) in out.approx_scores.iter().zip(&exact) {
                    sq += ((a - e) as f64).powi(2);
                }
            }
            (sq / (n * exact.len()) as f64).sqrt()
        };
        let s4 = spread_of(4);
        let s7 = spread_of(7);
        assert!(
            s7 > 1.5 * s4,
            "7-bit cells ({s7}) must be noisier than 4-bit cells ({s4})"
        );
    }
}
