//! The MLC ReRAM crossbar array (Fig. 4, Eq. 2).
//!
//! Values are stored as signed integer codes on multi-level cells
//! (4 bits/cell per the robustness analysis the paper cites). Analog
//! vector-matrix multiplication drives the input vector on the
//! wordlines through DACs and sums column currents; the model applies
//! per-cell programming variation (fixed at write time) and additive
//! per-operation output noise from a [`NoiseModel`].
//!
//! The effective weights (and the fault overlay) are stored
//! column-lane-blocked, `[block of LANES columns][row][lane]`, so one
//! row step of [`CrossbarArray::vmm`] advances [`LANES`] independent
//! column sums. Every column still accumulates rows ascending from
//! `0.0`, multiply then add, and draws its read noise in column order
//! after the dots — the summation and draw contract of
//! ARCHITECTURE.md, "Analog path: storage, summation and draw order".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{CellFault, FaultModel, NoiseModel, ProgramOutcome, ReramError};

/// A `rows × cols` ReRAM crossbar of signed MLC cells.
///
/// # Example
///
/// ```
/// use sprint_reram::{CrossbarArray, NoiseModel};
///
/// # fn main() -> Result<(), sprint_reram::ReramError> {
/// let mut xb = CrossbarArray::new(4, 2, 4, NoiseModel::ideal(), 1)?;
/// xb.program_column(0, &[1, 2, 3, 4])?;
/// xb.program_column(1, &[-1, 0, 1, 0])?;
/// let out = xb.vmm(&[1, 1, 1, 1])?;
/// assert_eq!(out, vec![10.0, 0.0]); // ideal analog equals digital
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    cell_bits: u32,
    /// Programmed integer codes, column-major (`cols × rows`).
    codes: Vec<i32>,
    /// Effective analog weight of each cell (code × (1 + variation)),
    /// lane-blocked (see [`lane_cell`]); lanes past `cols` hold `0.0`.
    weights: Vec<f64>,
    noise: NoiseModel,
    /// The construction seed: starts the noise stream and doubles as
    /// the array's identity for fault hashing.
    seed: u64,
    /// The noise stream (programming variation and read noise).
    rng: StdRng,
    vmm_count: u64,
    /// Optional hard-fault injector. `None` leaves every path below
    /// bit-identical to the fault-unaware array.
    fault: Option<FaultModel>,
    /// Per-column program epoch (bumped on every write; transient
    /// faults re-roll per epoch). Maintained unconditionally but only
    /// observable through a fault model.
    epochs: Vec<u64>,
    /// Fault-overlaid analog weights, lane-blocked like `weights`.
    /// Empty unless a fault model is attached; refreshed per column on
    /// program, epoch advance and model attachment.
    faulted_weights: Vec<f64>,
    /// The wordline drive of the running [`CrossbarArray::vmm`] as
    /// `f64` (scratch, no model state).
    drive: Vec<f64>,
}

/// Columns per block of the lane-blocked weight layout: the number of
/// independent column sums one row step of [`CrossbarArray::vmm`]
/// advances.
pub(crate) const LANES: usize = 16;

/// Cells of a lane-blocked `rows × cols` weight image (whole blocks).
fn lane_cells(rows: usize, cols: usize) -> usize {
    cols.div_ceil(LANES) * rows * LANES
}

/// Index of cell `(row, col)` in the lane-blocked layout
/// `[col / LANES][row][col % LANES]`. A block is appended whole, so
/// growing `cols` never moves a cell.
fn lane_cell(rows: usize, row: usize, col: usize) -> usize {
    (col / LANES * rows + row) * LANES + col % LANES
}

/// Shared geometry validation for [`CrossbarArray::new`] and
/// [`CrossbarArray::reset`].
fn validate_geometry(rows: usize, cols: usize, cell_bits: u32) -> Result<(), ReramError> {
    if rows == 0 {
        return Err(ReramError::InvalidGeometry {
            name: "rows",
            value: rows,
        });
    }
    if cols == 0 {
        return Err(ReramError::InvalidGeometry {
            name: "cols",
            value: cols,
        });
    }
    if !(1..=8).contains(&cell_bits) {
        return Err(ReramError::InvalidParameter(format!(
            "cell_bits {cell_bits} outside 1..=8"
        )));
    }
    Ok(())
}

/// Box-Muller standard normal (no `rand_distr` in the offline set).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl CrossbarArray {
    /// Creates an unprogrammed crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidGeometry`] for zero dimensions and
    /// [`ReramError::InvalidParameter`] for unsupported cell widths
    /// (1–8 bits are modelled; the paper uses 4).
    pub fn new(
        rows: usize,
        cols: usize,
        cell_bits: u32,
        noise: NoiseModel,
        seed: u64,
    ) -> Result<Self, ReramError> {
        validate_geometry(rows, cols, cell_bits)?;
        Ok(CrossbarArray {
            rows,
            cols,
            cell_bits,
            codes: vec![0; rows * cols],
            weights: vec![0.0; lane_cells(rows, cols)],
            noise,
            seed,
            rng: StdRng::seed_from_u64(seed),
            vmm_count: 0,
            fault: None,
            epochs: vec![0; cols],
            faulted_weights: Vec::new(),
            drive: Vec::new(),
        })
    }

    /// Restores the array to its freshly-constructed (unprogrammed)
    /// state for a possibly different geometry, reusing the existing
    /// cell allocations. After a successful call the array is
    /// bit-identical in behaviour to
    /// `CrossbarArray::new(rows, cols, cell_bits, noise, seed)` — the
    /// RNG is reseeded, counters are zeroed, and every cell reads as
    /// code 0 — only the backing `Vec` capacities (invisible to the
    /// model) differ.
    ///
    /// # Errors
    ///
    /// Same validation as [`CrossbarArray::new`]; on error the array is
    /// left unchanged.
    pub fn reset(
        &mut self,
        rows: usize,
        cols: usize,
        cell_bits: u32,
        noise: NoiseModel,
        seed: u64,
    ) -> Result<(), ReramError> {
        validate_geometry(rows, cols, cell_bits)?;
        self.rows = rows;
        self.cols = cols;
        self.cell_bits = cell_bits;
        self.codes.clear();
        self.codes.resize(rows * cols, 0);
        self.weights.clear();
        self.weights.resize(lane_cells(rows, cols), 0.0);
        self.noise = noise;
        self.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
        self.vmm_count = 0;
        self.epochs.clear();
        self.epochs.resize(cols, 0);
        if self.fault.is_some() {
            self.faulted_weights.clear();
            self.faulted_weights.resize(self.weights.len(), 0.0);
            for c in 0..cols {
                self.refresh_faulted_column(c);
            }
        }
        Ok(())
    }

    /// Appends `added` unprogrammed bitline columns, preserving every
    /// already-programmed cell (codes *and* their effective analog
    /// weights, programming variation included).
    ///
    /// This is the incremental-growth entry of the decode path: keys
    /// are stored column-wise, so appending one row of the logical K
    /// matrix appends one crossbar column. A new column takes the next
    /// free lane of the last block, or opens a new block at the end of
    /// the backing buffers — no existing cell moves, so the array keeps
    /// behaving exactly as it did for the old columns. The RNG state is
    /// left untouched; new columns draw their programming variation
    /// when [`CrossbarArray::program_column`] writes them.
    pub fn append_cols(&mut self, added: usize) {
        self.codes.resize(self.codes.len() + added * self.rows, 0);
        self.cols += added;
        self.weights.resize(lane_cells(self.rows, self.cols), 0.0);
        self.epochs.resize(self.cols, 0);
        if self.fault.is_some() {
            self.faulted_weights.resize(self.weights.len(), 0.0);
            for c in self.cols - added..self.cols {
                self.refresh_faulted_column(c);
            }
        }
    }

    /// Number of wordlines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bits per cell.
    pub fn cell_bits(&self) -> u32 {
        self.cell_bits
    }

    /// Largest storable signed code.
    pub fn code_max(&self) -> i32 {
        (1 << (self.cell_bits - 1)) - 1
    }

    /// Smallest storable signed code.
    pub fn code_min(&self) -> i32 {
        -(1 << (self.cell_bits - 1))
    }

    /// Number of analog vector-matrix operations performed so far
    /// (energy accounting hook).
    pub fn vmm_count(&self) -> u64 {
        self.vmm_count
    }

    /// Programs `values` into column `col`, one code per row.
    ///
    /// Programming applies the noise model's per-cell variation to the
    /// effective analog weight; the digital code is stored exactly
    /// (cells are verified at write time, variation shows at read).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad column,
    /// [`ReramError::LengthMismatch`] for a wrong vector length, or
    /// [`ReramError::CodeOutOfRange`] for codes outside the cell range.
    pub fn program_column(&mut self, col: usize, values: &[i32]) -> Result<(), ReramError> {
        if col >= self.cols {
            return Err(ReramError::IndexOutOfRange {
                what: "column",
                index: col,
                bound: self.cols,
            });
        }
        if values.len() != self.rows {
            return Err(ReramError::LengthMismatch {
                what: "column vector",
                expected: self.rows,
                found: values.len(),
            });
        }
        for &v in values {
            if v < self.code_min() || v > self.code_max() {
                return Err(ReramError::CodeOutOfRange {
                    code: v,
                    bits: self.cell_bits,
                });
            }
        }
        let sigma = self.noise.programming_sigma();
        self.codes[col * self.rows..(col + 1) * self.rows].copy_from_slice(values);
        for (r, &v) in values.iter().enumerate() {
            let variation = if sigma > 0.0 {
                1.0 + sigma * normal(&mut self.rng)
            } else {
                1.0
            };
            self.weights[lane_cell(self.rows, r, col)] = v as f64 * variation;
        }
        self.epochs[col] += 1;
        self.refresh_faulted_column(col);
        Ok(())
    }

    /// Returns the digitally read codes of column `col` — what the
    /// sense amplifiers regenerate, so an attached [`FaultModel`]
    /// shows here (a stuck-on cell reads the maximum code, a dead
    /// line reads 0). Without a fault model this is exactly the
    /// intended codes.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad column.
    pub fn column_codes(&self, col: usize) -> Result<Vec<i32>, ReramError> {
        if col >= self.cols {
            return Err(ReramError::IndexOutOfRange {
                what: "column",
                index: col,
                bound: self.cols,
            });
        }
        let intended = &self.codes[col * self.rows..(col + 1) * self.rows];
        let Some(fault) = &self.fault else {
            return Ok(intended.to_vec());
        };
        let epoch = self.epochs[col];
        Ok(intended
            .iter()
            .enumerate()
            .map(
                |(r, &code)| match fault.cell_fault(self.seed, r, col, epoch) {
                    CellFault::None => code,
                    CellFault::StuckOn => self.code_max(),
                    CellFault::StuckOff | CellFault::Transient => 0,
                    CellFault::Worn(f) => (code as f64 * f).round() as i32,
                },
            )
            .collect())
    }

    /// Returns the *intended* digital codes of column `col` — the
    /// write-verified shadow the controller holds, unaffected by any
    /// fault model. Scrub passes compare
    /// [`CrossbarArray::column_codes`] against this oracle.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad column.
    pub fn intended_codes(&self, col: usize) -> Result<Vec<i32>, ReramError> {
        self.intended_column(col).map(<[i32]>::to_vec)
    }

    /// [`CrossbarArray::intended_codes`] borrowed from the shadow.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad column.
    pub fn intended_column(&self, col: usize) -> Result<&[i32], ReramError> {
        if col >= self.cols {
            return Err(ReramError::IndexOutOfRange {
                what: "column",
                index: col,
                bound: self.cols,
            });
        }
        Ok(&self.codes[col * self.rows..(col + 1) * self.rows])
    }

    /// Analog vector-matrix multiplication (Eq. 2): drives `input`
    /// codes on the wordlines and returns one analog output per column,
    /// in code units, including programming variation and output noise.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] unless
    /// `input.len() == rows`.
    pub fn vmm(&mut self, input: &[i32]) -> Result<Vec<f64>, ReramError> {
        let mut out = Vec::new();
        self.vmm_into(input, &mut out)?;
        Ok(out)
    }

    /// [`CrossbarArray::vmm`] into a caller-owned buffer (cleared
    /// first), so a caller issuing one operation per query reuses one
    /// allocation.
    ///
    /// Each block of 16 columns (`LANES`) is summed one wordline at a
    /// time: every column's sum starts at `0.0` and takes its rows in
    /// ascending order, multiply then add, exactly as a column-by-column
    /// walk would. Read noise is added afterwards, one draw per column
    /// in ascending column order from this array's stream, and not at
    /// all when the drive is all zero (the noise scales with the
    /// drive's full scale).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] unless
    /// `input.len() == rows`; `out` is then left untouched.
    pub fn vmm_into(&mut self, input: &[i32], out: &mut Vec<f64>) -> Result<(), ReramError> {
        if input.len() != self.rows {
            return Err(ReramError::LengthMismatch {
                what: "input vector",
                expected: self.rows,
                found: input.len(),
            });
        }
        self.vmm_count += 1;
        let sigma = self.noise.relative_sigma() * self.full_scale(input);
        self.drive.clear();
        self.drive.extend(input.iter().map(|&x| x as f64));
        let effective = if self.fault.is_some() {
            &self.faulted_weights
        } else {
            &self.weights
        };
        out.clear();
        for block in effective.chunks_exact(self.rows * LANES) {
            let mut acc = [0.0f64; LANES];
            for (cells, &x) in block.chunks_exact(LANES).zip(&self.drive) {
                for (a, &w) in acc.iter_mut().zip(cells) {
                    *a += w * x;
                }
            }
            out.extend_from_slice(&acc);
        }
        out.truncate(self.cols);
        if sigma > 0.0 {
            let rng = &mut self.rng;
            for o in out.iter_mut() {
                *o += sigma * normal(rng);
            }
        }
        Ok(())
    }

    /// The exact digital dot products the analog operation
    /// approximates (no variation, no noise). Reference for tests and
    /// for computing approximation error.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] unless
    /// `input.len() == rows`.
    pub fn exact_vmm(&self, input: &[i32]) -> Result<Vec<i64>, ReramError> {
        if input.len() != self.rows {
            return Err(ReramError::LengthMismatch {
                what: "input vector",
                expected: self.rows,
                found: input.len(),
            });
        }
        Ok((0..self.cols)
            .map(|c| {
                self.codes[c * self.rows..(c + 1) * self.rows]
                    .iter()
                    .zip(input)
                    .map(|(&w, &x)| w as i64 * x as i64)
                    .sum()
            })
            .collect())
    }

    /// Full-scale analog output for the given input drive: the worst
    /// case |Σ input_i · w_i| with every cell at the code extreme.
    /// Noise is proportional to this, matching how ADC-equivalent
    /// accuracy is specified against the converter's full range.
    pub fn full_scale(&self, input: &[i32]) -> f64 {
        let drive: f64 = input.iter().map(|&x| (x as f64).abs()).sum();
        drive * self.code_max() as f64
    }

    /// The construction seed, doubling as this array's stable identity
    /// for fault hashing and [`crate::FaultSite`] coordinates.
    pub fn identity(&self) -> u64 {
        self.seed
    }

    /// The attached fault model, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// Attaches (or detaches, with `None`) a hard-fault model.
    ///
    /// Attachment is retroactive and purely overlay-based: the fault
    /// pattern is a pure function of the model, this array's identity
    /// and the per-column program epochs, so attaching after
    /// programming reads identically to having programmed with the
    /// model attached. Detaching restores the fault-free behavior
    /// bit-for-bit (intended codes and pristine weights are never
    /// overwritten, and no RNG draw is ever spent on faults).
    pub fn set_fault_model(&mut self, fault: Option<FaultModel>) {
        self.fault = fault;
        if self.fault.is_some() {
            self.faulted_weights.clear();
            self.faulted_weights.resize(self.weights.len(), 0.0);
            for c in 0..self.cols {
                self.refresh_faulted_column(c);
            }
        } else {
            self.faulted_weights.clear();
        }
    }

    /// Recomputes the fault-overlaid analog weights of column `col`.
    fn refresh_faulted_column(&mut self, col: usize) {
        let Some(fault) = &self.fault else {
            return;
        };
        let epoch = self.epochs[col];
        let code_max = self.code_max() as f64;
        for r in 0..self.rows {
            let idx = lane_cell(self.rows, r, col);
            self.faulted_weights[idx] = match fault.cell_fault(self.seed, r, col, epoch) {
                CellFault::None => self.weights[idx],
                CellFault::StuckOn => code_max,
                CellFault::StuckOff | CellFault::Transient => 0.0,
                CellFault::Worn(f) => self.weights[idx] * f,
            };
        }
    }

    /// Advances column `col`'s program epoch by `ticks` write cycles
    /// without rewriting it (the deterministic backoff of a verified
    /// program: waiting is counted in attempts, never wall-clock).
    fn advance_epoch(&mut self, col: usize, ticks: u64) {
        self.epochs[col] += ticks;
        self.refresh_faulted_column(col);
    }

    /// Write-verifies column `col`: reads the column back digitally
    /// and returns the rows whose readout disagrees with the intended
    /// codes. Empty without a fault model (writes are then verified by
    /// construction).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad column.
    pub fn verify_column(&self, col: usize) -> Result<Vec<usize>, ReramError> {
        let read = self.column_codes(col)?;
        let intended = &self.codes[col * self.rows..(col + 1) * self.rows];
        Ok(read
            .iter()
            .zip(intended)
            .enumerate()
            .filter(|(_, (r, i))| r != i)
            .map(|(row, _)| row)
            .collect())
    }

    /// Programs column `col` with write-verify and bounded retry:
    /// program, read back, and while any cell reads wrong and attempts
    /// remain, back off `2^(attempt-1)` write-cycle ticks (advancing
    /// the column's program epoch, which re-rolls transient upsets)
    /// and reprogram. Permanent faults survive every retry and are
    /// reported in the outcome.
    ///
    /// # Errors
    ///
    /// Same validation as [`CrossbarArray::program_column`].
    pub fn program_column_verified(
        &mut self,
        col: usize,
        values: &[i32],
        max_attempts: u32,
    ) -> Result<ProgramOutcome, ReramError> {
        let max_attempts = max_attempts.max(1);
        let mut attempts = 0u32;
        let mut backoff_ticks = 0u64;
        loop {
            self.program_column(col, values)?;
            attempts += 1;
            let faulty_rows = self.verify_column(col)?;
            if faulty_rows.is_empty() || attempts >= max_attempts {
                return Ok(ProgramOutcome {
                    attempts,
                    backoff_ticks,
                    faulty_rows,
                });
            }
            let ticks = 1u64 << (attempts - 1).min(16);
            backoff_ticks += ticks;
            self.advance_epoch(col, ticks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ideal_array(rows: usize, cols: usize) -> CrossbarArray {
        CrossbarArray::new(rows, cols, 4, NoiseModel::ideal(), 42).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(CrossbarArray::new(0, 4, 4, NoiseModel::ideal(), 0).is_err());
        assert!(CrossbarArray::new(4, 0, 4, NoiseModel::ideal(), 0).is_err());
        assert!(CrossbarArray::new(4, 4, 0, NoiseModel::ideal(), 0).is_err());
        assert!(CrossbarArray::new(4, 4, 9, NoiseModel::ideal(), 0).is_err());
    }

    #[test]
    fn four_bit_cells_store_minus8_to_7() {
        let xb = ideal_array(2, 2);
        assert_eq!(xb.code_min(), -8);
        assert_eq!(xb.code_max(), 7);
    }

    #[test]
    fn programming_validates_inputs() {
        let mut xb = ideal_array(3, 2);
        assert!(xb.program_column(2, &[0, 0, 0]).is_err());
        assert!(xb.program_column(0, &[0, 0]).is_err());
        assert!(xb.program_column(0, &[8, 0, 0]).is_err());
        assert!(xb.program_column(0, &[-9, 0, 0]).is_err());
        assert!(xb.program_column(0, &[-8, 7, 0]).is_ok());
    }

    #[test]
    fn ideal_vmm_equals_exact() {
        let mut xb = ideal_array(8, 3);
        xb.program_column(0, &[1, -2, 3, -4, 5, -6, 7, -8]).unwrap();
        xb.program_column(1, &[7; 8]).unwrap();
        xb.program_column(2, &[0; 8]).unwrap();
        let input = vec![1, 2, 3, 4, 5, 6, 7, -8];
        let analog = xb.vmm(&input).unwrap();
        let exact = xb.exact_vmm(&input).unwrap();
        for (a, e) in analog.iter().zip(&exact) {
            assert_eq!(*a, *e as f64, "ideal analog must be exact");
        }
        assert_eq!(xb.vmm_count(), 1);
    }

    #[test]
    fn column_codes_round_trip() {
        let mut xb = ideal_array(4, 2);
        let v = vec![3, -8, 7, 0];
        xb.program_column(1, &v).unwrap();
        assert_eq!(xb.column_codes(1).unwrap(), v);
        assert!(xb.column_codes(2).is_err());
    }

    #[test]
    fn vmm_validates_input_length() {
        let mut xb = ideal_array(4, 2);
        assert!(xb.vmm(&[1, 2]).is_err());
        assert!(xb.exact_vmm(&[1, 2]).is_err());
    }

    #[test]
    fn noisy_vmm_stays_within_expected_band() {
        let noise = NoiseModel::equivalent_bits(5).unwrap();
        let mut xb = CrossbarArray::new(64, 16, 4, noise, 7).unwrap();
        for c in 0..16 {
            let col: Vec<i32> = (0..64).map(|r| ((r + c) % 15) as i32 - 7).collect();
            xb.program_column(c, &col).unwrap();
        }
        let input: Vec<i32> = (0..64).map(|r| (r % 15) - 7).collect();
        let exact = xb.exact_vmm(&input).unwrap();
        let fs = xb.full_scale(&input);
        // Mean over many noisy reads converges to near the exact value
        // (programming variation adds a static offset of ~1%).
        let reps = 200;
        let mut mean = [0.0f64; 16];
        for _ in 0..reps {
            let out = xb.vmm(&input).unwrap();
            for (m, o) in mean.iter_mut().zip(&out) {
                *m += o / reps as f64;
            }
        }
        for (c, (&m, &e)) in mean.iter().zip(&exact).enumerate() {
            let tol = 0.04 * fs.max(1.0);
            assert!(
                (m - e as f64).abs() < tol,
                "col {c}: mean {m} vs exact {e} (tol {tol})"
            );
        }
    }

    #[test]
    fn noise_scale_tracks_equivalent_bits() {
        // More equivalent bits -> tighter spread around exact.
        let spread = |bits: u32| -> f64 {
            // No programming variation for this test.
            let nm = NoiseModel::from_sigmas(
                NoiseModel::equivalent_bits(bits).unwrap().relative_sigma(),
                0.0,
            )
            .unwrap();
            let mut xb = CrossbarArray::new(64, 1, 4, nm, 3).unwrap();
            xb.program_column(0, &[5; 64]).unwrap();
            let input = vec![5; 64];
            let exact = xb.exact_vmm(&input).unwrap()[0] as f64;
            let mut sq = 0.0;
            let n = 300;
            for _ in 0..n {
                let o = xb.vmm(&input).unwrap()[0];
                sq += (o - exact) * (o - exact);
            }
            (sq / n as f64).sqrt()
        };
        let s3 = spread(3);
        let s6 = spread(6);
        assert!(s3 > 4.0 * s6, "3-bit spread {s3} vs 6-bit {s6}");
    }

    #[test]
    fn append_cols_preserves_programmed_cells() {
        let mut xb = ideal_array(4, 2);
        xb.program_column(0, &[1, -2, 3, -4]).unwrap();
        xb.program_column(1, &[7, 0, -8, 2]).unwrap();
        let before = xb.vmm(&[1, 1, 1, 1]).unwrap();
        xb.append_cols(2);
        assert_eq!(xb.cols(), 4);
        xb.program_column(2, &[0, 0, 1, 0]).unwrap();
        let after = xb.vmm(&[1, 1, 1, 1]).unwrap();
        assert_eq!(&after[..2], &before[..], "old columns untouched");
        assert_eq!(after[2], 1.0);
        assert_eq!(after[3], 0.0, "unprogrammed appended column reads 0");
    }

    #[test]
    fn reset_is_bit_identical_to_fresh_construction() {
        let noise = NoiseModel::default();
        let program_and_run = |xb: &mut CrossbarArray| -> Vec<f64> {
            for c in 0..xb.cols() {
                let col: Vec<i32> = (0..xb.rows()).map(|r| ((r + c) % 15) as i32 - 7).collect();
                xb.program_column(c, &col).unwrap();
            }
            let input: Vec<i32> = (0..xb.rows()).map(|r| ((r % 15) as i32) - 7).collect();
            xb.vmm(&input).unwrap()
        };
        // Dirty an array with one geometry, then reset to another.
        let mut reused = CrossbarArray::new(16, 8, 4, noise, 1).unwrap();
        program_and_run(&mut reused);
        reused.reset(24, 5, 4, noise, 77).unwrap();
        let mut fresh = CrossbarArray::new(24, 5, 4, noise, 77).unwrap();
        assert_eq!(program_and_run(&mut reused), program_and_run(&mut fresh));
        assert_eq!(reused.vmm_count(), 1);
        // Invalid reset leaves the array untouched.
        assert!(reused.reset(0, 5, 4, noise, 1).is_err());
        assert_eq!(reused.rows(), 24);
    }

    #[test]
    fn attaching_a_quiet_fault_model_changes_nothing() {
        let noise = NoiseModel::default();
        let mut plain = CrossbarArray::new(16, 8, 4, noise, 5).unwrap();
        let mut faulted = CrossbarArray::new(16, 8, 4, noise, 5).unwrap();
        faulted.set_fault_model(Some(FaultModel::new(99)));
        let col: Vec<i32> = (0..16).map(|r| (r % 15) - 7).collect();
        for c in 0..8 {
            plain.program_column(c, &col).unwrap();
            faulted.program_column(c, &col).unwrap();
        }
        let input = vec![1; 16];
        assert_eq!(
            plain.vmm(&input).unwrap(),
            faulted.vmm(&input).unwrap(),
            "a quiet model must not perturb a single draw"
        );
        assert_eq!(
            plain.column_codes(0).unwrap(),
            faulted.column_codes(0).unwrap()
        );
        assert!(faulted.verify_column(0).unwrap().is_empty());
    }

    #[test]
    fn post_hoc_attachment_equals_program_time_attachment() {
        let fault = FaultModel::uniform(0.2, 17).unwrap();
        let noise = NoiseModel::default();
        let col: Vec<i32> = (0..16).map(|r| (r % 15) - 7).collect();
        let mut before = CrossbarArray::new(16, 8, 4, noise, 5).unwrap();
        before.set_fault_model(Some(fault));
        let mut after = CrossbarArray::new(16, 8, 4, noise, 5).unwrap();
        for c in 0..8 {
            before.program_column(c, &col).unwrap();
            after.program_column(c, &col).unwrap();
        }
        after.set_fault_model(Some(fault));
        let input = vec![1; 16];
        assert_eq!(before.vmm(&input).unwrap(), after.vmm(&input).unwrap());
        for c in 0..8 {
            assert_eq!(
                before.column_codes(c).unwrap(),
                after.column_codes(c).unwrap()
            );
        }
    }

    #[test]
    fn detaching_restores_fault_free_reads() {
        let mut xb = ideal_array(8, 2);
        let col = vec![1, 2, 3, 4, 5, 6, 7, -8];
        xb.program_column(0, &col).unwrap();
        xb.set_fault_model(Some(FaultModel::new(1).with_stuck_rates(0.5, 0.5).unwrap()));
        assert!(!xb.verify_column(0).unwrap().is_empty());
        xb.set_fault_model(None);
        assert_eq!(xb.column_codes(0).unwrap(), col);
        assert_eq!(xb.vmm(&[1; 8]).unwrap()[0], 20.0);
    }

    #[test]
    fn stuck_faults_show_in_reads_and_compute() {
        // Every cell stuck on: digital reads saturate at code_max and
        // the analog output is rows * code_max regardless of codes.
        let mut xb = ideal_array(4, 1);
        xb.set_fault_model(Some(FaultModel::new(3).with_stuck_rates(1.0, 0.0).unwrap()));
        xb.program_column(0, &[1, -2, 3, -4]).unwrap();
        assert_eq!(xb.column_codes(0).unwrap(), vec![7; 4]);
        assert_eq!(xb.vmm(&[1, 1, 1, 1]).unwrap()[0], 28.0);
        assert_eq!(
            xb.exact_vmm(&[1, 1, 1, 1]).unwrap()[0],
            -2,
            "the digital oracle stays on intended codes"
        );
        assert_eq!(xb.verify_column(0).unwrap().len(), 4);
    }

    #[test]
    fn verified_program_retries_clear_transients_but_not_stuck_cells() {
        // Transient-only model: a high upset rate almost surely faults
        // some cell on the first try; bounded retries re-roll the epoch
        // until the write takes.
        let fault = FaultModel::new(11).with_transient_rate(0.15).unwrap();
        let mut xb = CrossbarArray::new(16, 1, 4, NoiseModel::ideal(), 13).unwrap();
        xb.set_fault_model(Some(fault));
        let col: Vec<i32> = (0..16).map(|r| (r % 15) - 7).collect();
        let outcome = xb.program_column_verified(0, &col, 64).unwrap();
        assert!(outcome.verified(), "transients must eventually clear");
        assert!(outcome.attempts > 1, "first write should have upset");
        assert!(outcome.backoff_ticks > 0);
        // Stuck-at faults never clear, whatever the retry budget.
        let mut stuck = CrossbarArray::new(8, 1, 4, NoiseModel::ideal(), 13).unwrap();
        stuck.set_fault_model(Some(FaultModel::new(2).with_stuck_rates(0.0, 1.0).unwrap()));
        let outcome = stuck
            .program_column_verified(0, &[1, 2, 3, 4, 5, 6, 7, -8], 4)
            .unwrap();
        assert_eq!(outcome.attempts, 4);
        assert_eq!(outcome.faulty_rows.len(), 8);
        assert_eq!(outcome.backoff_ticks, 1 + 2 + 4, "2^(attempt-1) ticks");
    }

    #[test]
    fn sub_lsb_wear_passes_verify_but_perturbs_analog() {
        // 10% drift on a code of 2 rounds back to 2 digitally but
        // shrinks the analog weight.
        let mut xb = ideal_array(4, 1);
        xb.set_fault_model(Some(FaultModel::new(5).with_wear(1.0, 0.1).unwrap()));
        xb.program_column(0, &[2, 2, 2, 2]).unwrap();
        assert!(xb.verify_column(0).unwrap().is_empty(), "sub-LSB drift");
        let analog = xb.vmm(&[1, 1, 1, 1]).unwrap()[0];
        assert!(analog < 8.0, "worn cells must read below {analog}");
        assert!(analog > 8.0 * 0.9 * 0.9, "drift bounded at 10%");
    }

    /// The array as it was before the lane-blocked layout: weights
    /// column-major, one column summed at a time, its read noise drawn
    /// inside the column loop, the fault overlay evaluated cell by
    /// cell. The oracle of the storage-order differential tests.
    struct ColumnOrderArray {
        rows: usize,
        cell_bits: u32,
        weights: Vec<f64>,
        epochs: Vec<u64>,
        noise: NoiseModel,
        seed: u64,
        rng: StdRng,
        fault: Option<FaultModel>,
    }

    impl ColumnOrderArray {
        fn new(rows: usize, cols: usize, cell_bits: u32, noise: NoiseModel, seed: u64) -> Self {
            ColumnOrderArray {
                rows,
                cell_bits,
                weights: vec![0.0; rows * cols],
                epochs: vec![0; cols],
                noise,
                seed,
                rng: StdRng::seed_from_u64(seed),
                fault: None,
            }
        }

        fn append_cols(&mut self, added: usize) {
            self.weights
                .resize(self.weights.len() + added * self.rows, 0.0);
            self.epochs.resize(self.epochs.len() + added, 0);
        }

        fn program_column(&mut self, col: usize, values: &[i32]) {
            let sigma = self.noise.programming_sigma();
            for (r, &v) in values.iter().enumerate() {
                let variation = if sigma > 0.0 {
                    1.0 + sigma * normal(&mut self.rng)
                } else {
                    1.0
                };
                self.weights[col * self.rows + r] = v as f64 * variation;
            }
            self.epochs[col] += 1;
        }

        fn vmm(&mut self, input: &[i32]) -> Vec<f64> {
            let drive: f64 = input.iter().map(|&x| (x as f64).abs()).sum();
            let code_max = ((1 << (self.cell_bits - 1)) - 1) as f64;
            let sigma = self.noise.relative_sigma() * (drive * code_max);
            let mut out = Vec::new();
            for (c, column) in self.weights.chunks_exact(self.rows).enumerate() {
                let mut acc = 0.0f64;
                for (r, (&w, &x)) in column.iter().zip(input).enumerate() {
                    let state = self.fault.map_or(CellFault::None, |f| {
                        f.cell_fault(self.seed, r, c, self.epochs[c])
                    });
                    let w = match state {
                        CellFault::None => w,
                        CellFault::StuckOn => code_max,
                        CellFault::StuckOff | CellFault::Transient => 0.0,
                        CellFault::Worn(f) => w * f,
                    };
                    acc += w * x as f64;
                }
                if sigma > 0.0 {
                    acc += sigma * normal(&mut self.rng);
                }
                out.push(acc);
            }
            out
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Codes in the 4-bit range, varying with `salt`.
    fn codes(n: usize, salt: usize) -> Vec<i32> {
        (0..n)
            .map(|r| ((r * 7 + salt * 13 + 5) % 16) as i32 - 8)
            .collect()
    }

    /// Three drives — non-zero, all zero, non-zero — must read the same
    /// bits from both arrays, which also proves that every call spent
    /// the same number of draws (none for the zero drive).
    fn assert_reads_agree(xb: &mut CrossbarArray, oracle: &mut ColumnOrderArray, label: &str) {
        let rows = xb.rows();
        for (step, drive) in [codes(rows, 3), vec![0; rows], codes(rows, 11)]
            .iter()
            .enumerate()
        {
            assert_eq!(
                bits(&xb.vmm(drive).unwrap()),
                bits(&oracle.vmm(drive)),
                "{label}: read {step}"
            );
        }
    }

    fn noise_models() -> [(&'static str, NoiseModel); 3] {
        [
            ("ideal", NoiseModel::ideal()),
            ("default", NoiseModel::default()),
            (
                "programming-only",
                NoiseModel::from_sigmas(0.0, 0.01).unwrap(),
            ),
        ]
    }

    #[test]
    fn lane_blocked_vmm_matches_the_column_order_walk() {
        let fault = FaultModel::uniform(0.2, 17).unwrap();
        for rows in [1usize, 3, 64] {
            for cols in [1, LANES - 1, LANES, LANES + 1, 128] {
                for (name, noise) in noise_models() {
                    // No fault model, one attached before programming,
                    // one attached after.
                    for attach in [None, Some(true), Some(false)] {
                        let label = format!("{rows}x{cols} {name} fault {attach:?}");
                        let mut xb = CrossbarArray::new(rows, cols, 4, noise, 9).unwrap();
                        let mut oracle = ColumnOrderArray::new(rows, cols, 4, noise, 9);
                        if attach == Some(true) {
                            xb.set_fault_model(Some(fault));
                        }
                        for c in 0..cols {
                            xb.program_column(c, &codes(rows, c)).unwrap();
                            oracle.program_column(c, &codes(rows, c));
                        }
                        if attach == Some(false) {
                            xb.set_fault_model(Some(fault));
                        }
                        oracle.fault = attach.map(|_| fault);
                        assert_reads_agree(&mut xb, &mut oracle, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn appending_columns_across_a_block_boundary_moves_no_cell() {
        for (name, noise) in noise_models() {
            for fault in [None, Some(FaultModel::uniform(0.2, 5).unwrap())] {
                let mut xb = CrossbarArray::new(3, LANES - 2, 4, noise, 21).unwrap();
                let mut oracle = ColumnOrderArray::new(3, LANES - 2, 4, noise, 21);
                xb.set_fault_model(fault);
                oracle.fault = fault;
                for c in 0..LANES - 2 {
                    xb.program_column(c, &codes(3, c)).unwrap();
                    oracle.program_column(c, &codes(3, c));
                }
                for c in LANES - 2..LANES + 3 {
                    xb.append_cols(1);
                    oracle.append_cols(1);
                    // The fresh column reads unprogrammed, then programmed.
                    let label = format!("{name} fault {} col {c}", fault.is_some());
                    assert_reads_agree(&mut xb, &mut oracle, &label);
                    xb.program_column(c, &codes(3, c)).unwrap();
                    oracle.program_column(c, &codes(3, c));
                    assert_reads_agree(&mut xb, &mut oracle, &label);
                }
            }
        }
    }

    #[test]
    fn reset_to_another_geometry_leaves_no_stale_lane() {
        let noise = NoiseModel::default();
        let fault = Some(FaultModel::uniform(0.2, 3).unwrap());
        let mut xb = CrossbarArray::new(64, LANES + 1, 4, noise, 1).unwrap();
        xb.set_fault_model(fault);
        for c in 0..LANES + 1 {
            xb.program_column(c, &codes(64, c)).unwrap();
        }
        xb.vmm(&codes(64, 0)).unwrap();
        // Fewer rows and a partly filled last block: every lane the old
        // geometry wrote must read as unprogrammed.
        for (rows, cols) in [(3, LANES + 3), (5, 2)] {
            xb.reset(rows, cols, 4, noise, 77).unwrap();
            let mut oracle = ColumnOrderArray::new(rows, cols, 4, noise, 77);
            oracle.fault = fault;
            assert_reads_agree(&mut xb, &mut oracle, "after reset");
            for c in (0..cols).rev() {
                xb.program_column(c, &codes(rows, c)).unwrap();
                oracle.program_column(c, &codes(rows, c));
            }
            assert_reads_agree(&mut xb, &mut oracle, "reprogrammed");
        }
    }

    #[test]
    fn verified_program_retries_keep_the_draw_order() {
        // Every retry reprograms the column (fresh variation draws) and
        // backs off 2^(attempt-1) epochs; the oracle replays exactly
        // that from the reported outcome.
        let noise = NoiseModel::default();
        let fault = FaultModel::new(11).with_transient_rate(0.15).unwrap();
        let mut xb = CrossbarArray::new(16, LANES + 2, 4, noise, 13).unwrap();
        let mut oracle = ColumnOrderArray::new(16, LANES + 2, 4, noise, 13);
        xb.set_fault_model(Some(fault));
        oracle.fault = Some(fault);
        let mut retried = 0;
        for c in 0..LANES + 2 {
            let outcome = xb.program_column_verified(c, &codes(16, c), 8).unwrap();
            for attempt in 1..=outcome.attempts {
                oracle.program_column(c, &codes(16, c));
                if attempt < outcome.attempts {
                    oracle.epochs[c] += 1 << (attempt - 1);
                }
            }
            retried += outcome.attempts - 1;
        }
        assert!(retried > 0, "a 15 % upset rate must force retries");
        assert_reads_agree(&mut xb, &mut oracle, "after verified programming");
    }

    proptest! {
        #[test]
        fn prop_ideal_vmm_matches_naive(
            rows in 1usize..32,
            cols in 1usize..8,
            seed in 0u64..100,
        ) {
            let mut xb = CrossbarArray::new(rows, cols, 4, NoiseModel::ideal(), seed).unwrap();
            let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
            let mut next_code = || {
                state ^= state << 13; state ^= state >> 7; state ^= state << 17;
                ((state % 16) as i32) - 8
            };
            for c in 0..cols {
                let col: Vec<i32> = (0..rows).map(|_| next_code()).collect();
                xb.program_column(c, &col).unwrap();
            }
            let input: Vec<i32> = (0..rows).map(|_| next_code()).collect();
            let analog = xb.vmm(&input).unwrap();
            let exact = xb.exact_vmm(&input).unwrap();
            for (a, e) in analog.iter().zip(&exact) {
                prop_assert_eq!(*a, *e as f64);
            }
        }
    }
}
