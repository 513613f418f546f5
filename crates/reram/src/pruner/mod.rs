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
//!
//! The engine is split along its seams: this module holds the type,
//! its constructors and accessors; `program` writes and calibrates the
//! key store, `query` thresholds queries over it (the column-tile
//! fan-out), and `scrub` carries the fault model, scrub, repair and
//! spare-column remap.

use std::collections::BTreeSet;

use sprint_attention::{active_tier, simd, Matrix, PruneDecision, QuantParams};

use crate::crossbar::CrossbarArray;
use crate::{FaultModel, NoiseModel, ReramError};

mod program;
mod query;
mod scrub;

#[cfg(test)]
mod cell_bit_tests;
#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod tests;

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
    /// `tiles[col_tile][row_tile]`, each a transposable crossbar.
    tiles: Vec<Vec<CrossbarArray>>,
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
    q_msb: Vec<i8>,
    cuts: Vec<f64>,
    /// One scratch per fan-out worker, kept from head to head.
    lanes: Vec<query::Lane>,
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
        pruner.program_head(Some(q), k, attention_scale, noise, seed, cell_bits)?;
        pruner.calibrate_query(q, true)?;
        Ok(pruner)
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

    /// Sets how many workers [`InMemoryPruner::reprogram`] (and its
    /// key half), [`InMemoryPruner::calibrate_query`] and the prune
    /// calls split the column tiles over (at least 1; never more than
    /// the tiles). Every output bit and counter is the same at any
    /// width, and a freshly built pruner runs at width 1.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The attached fault model, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// The keys currently remapped to spare columns, ascending.
    pub fn remapped_keys(&self) -> Vec<usize> {
        self.remapped.iter().copied().collect()
    }
}

/// Pairs each row tile of one column tile with its piece of the
/// embedding-length vector `v`: row tile `rt` covers elements
/// `rt · ARRAY_ROWS ..`, the last one whatever remains.
fn row_pieces<A: IntoIterator, T>(arrays: A, v: &[T]) -> impl Iterator<Item = (A::Item, &[T])> {
    arrays.into_iter().zip(v.chunks(ARRAY_ROWS))
}

/// The exact MSB code dot of key `slot` of one column tile (`arrays`,
/// its row tiles) with the query nibbles `q`: each row tile's `idot`
/// over the intended codes, summed in `i64`. Integer sums are exact, so
/// every SIMD tier gives the same value. This is the one digital
/// reference of the analog score: the comparator full-scale
/// calibration, [`InMemoryPruner::exact_msb_scores`] and a remapped
/// key's spare-column score.
///
/// # Errors
///
/// Returns [`ReramError::IndexOutOfRange`] for a bad slot.
pub(crate) fn exact_dot(
    arrays: &[CrossbarArray],
    slot: usize,
    q: &[i8],
) -> Result<i64, ReramError> {
    let tier = active_tier();
    let mut dot = 0i64;
    for (arr, piece) in row_pieces(arrays, q) {
        dot += i64::from(simd::idot(tier, arr.intended_column(slot)?, piece));
    }
    Ok(dot)
}

/// Rounded top bits of an 8-bit code for a `cell_bits`-deep cell
/// (zero-mean split; see `QuantizedMatrix::msb_rounded`), as the cell's
/// `i8` code.
fn round_msb_bits(code: i32, shift: u32, cell_bits: u32) -> i8 {
    let denom = 1i32 << shift;
    let half = denom / 2;
    let rounded = if code >= 0 {
        (code + half) / denom
    } else {
        (code - half) / denom
    };
    let hi = (1i32 << (cell_bits - 1)) - 1;
    rounded.clamp(-hi - 1, hi) as i8
}
