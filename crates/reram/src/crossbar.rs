//! The transposable MLC ReRAM crossbar (Fig. 4, Eq. 2; §III-B, Fig. 6).
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
//! row step of a read advances [`LANES`] independent column sums
//! (`sprint_attention::simd::lane_sums`). Every column still
//! accumulates rows ascending from `0.0`, multiply then add, and draws
//! its read noise in column order after the dots — the summation and
//! draw contract of ARCHITECTURE.md, "Analog path: storage, summation
//! and draw order".

use rand::rngs::StdRng;
use rand::SeedableRng;
use sprint_attention::{active_tier, simd};

use crate::noise::{box_muller, radius_bound, uniforms, RADIUS_CEILING};
use crate::{CellFault, FaultModel, NoiseModel, ProgramOutcome, ReramError};

/// A `rows × cols` transposable ReRAM crossbar of signed MLC cells: one
/// tile of the pruner's key store, one key's MSB codes per column.
///
/// Wan et al.'s taped-out array \[141\] supports two access modes:
///
/// * **in-situ computation** ([`CrossbarArray::read_into`]) — the
///   query drives the horizontal wordlines and every vertical bitline
///   produces one analog dot product (Fig. 6a);
/// * **transposed read** ([`CrossbarArray::column_codes`]) — horizontal
///   lines become bitlines and one *vertical* wordline is asserted, so
///   the sense amplifiers read out the full key vector stored in that
///   column (Fig. 6b). Reads are digital: the sense amplifiers
///   regenerate the programmed levels, so read noise never shows here.
///
/// The second mode is what makes selective fetch of unpruned key
/// vectors possible without sequentially activating every row (§III-A
/// challenge ③).
#[derive(Debug, Clone)]
pub(crate) struct CrossbarArray {
    rows: usize,
    cols: usize,
    cell_bits: u32,
    /// Programmed integer codes, column-major (`cols × rows`). A cell
    /// holds at most 8 bits, so each code is one `i8`.
    codes: Vec<i8>,
    /// Effective analog weight of each cell (code × (1 + variation)),
    /// lane-blocked (see [`lane_cell`]); lanes past `cols` hold `0.0`.
    weights: Vec<f64>,
    noise: NoiseModel,
    /// The construction seed: starts the noise stream and doubles as
    /// the array's identity for fault hashing.
    seed: u64,
    /// The noise stream (programming variation and read noise).
    rng: StdRng,
    /// Uniform pairs drawn from `rng` since it was last seeded: a
    /// programmed column's pairs while the programming sigma is
    /// positive, a read's pairs while its sigma is.
    draws: u64,
    /// Per column, the value of `draws` where its last write started
    /// ([`UNWRITTEN`] until it is written after a seeding that changed
    /// the stream). [`CrossbarArray::program_all`] keeps a column whose
    /// codes are unchanged and whose draws start there again.
    written_at: Vec<u64>,
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
    /// The wordline drive of the running read as `f64` (scratch, no
    /// model state).
    drive: Vec<f64>,
}

/// Columns per block of the lane-blocked weight layout: the number of
/// independent column sums one row step of a read advances.
pub(crate) const LANES: usize = simd::SUM_LANES;

/// `written_at` of a column with no write to reuse.
const UNWRITTEN: u64 = u64::MAX;

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

/// Shared geometry validation for [`CrossbarArray::new`],
/// [`CrossbarArray::reset`] and [`CrossbarArray::program_all`].
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

/// [`ReramError::CodeOutOfRange`] for the first code a
/// `cell_bits`-deep signed cell cannot store.
fn check_codes(codes: &[i8], cell_bits: u32) -> Result<(), ReramError> {
    let half = 1i32 << (cell_bits - 1);
    match codes
        .iter()
        .find(|&&v| !(-half..half).contains(&i32::from(v)))
    {
        Some(&v) => Err(ReramError::CodeOutOfRange {
            code: v.into(),
            bits: cell_bits,
        }),
        None => Ok(()),
    }
}

/// One in-situ read ([`CrossbarArray::read_into`]), split into its
/// parts: the noiseless column sums, each column's read-noise uniforms
/// (drawn in column order) and the noise scale. A comparator that only
/// needs a decision brackets each column with
/// [`ColumnRead::add_brackets`] and pays for the Box–Muller transform
/// ([`ColumnRead::output`]) only where the bracket straddles its cut.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnRead {
    sums: Vec<f64>,
    /// One `(u1, u2)` per column; empty when `sigma` is 0.
    uniforms: Vec<(f64, f64)>,
    sigma: f64,
}

impl ColumnRead {
    /// Column `c`'s output: its sum plus `sigma` times the Box–Muller
    /// normal of its uniforms (the one place read noise is added).
    pub(crate) fn output(&self, c: usize) -> f64 {
        if self.sigma > 0.0 {
            let (u1, u2) = self.uniforms[c];
            self.sums[c] + self.sigma * box_muller(u1, u2)
        } else {
            self.sums[c]
        }
    }

    /// Adds every column's output expression at the normals `−R` and
    /// `+R` to `lo[c]` and `hi[c]`, with `R = radius_bound(u1)` ≥ |the
    /// drawn normal|. Rounded `+` and `×` are monotone, so from equal
    /// starts `lo[c] ≤ acc + output(c) ≤ hi[c]` bit for bit.
    pub(crate) fn add_brackets(&self, lo: &mut [f64], hi: &mut [f64]) {
        let ends = lo.iter_mut().zip(hi.iter_mut()).zip(&self.sums);
        if self.sigma > 0.0 {
            for (((l, h), &sum), &(u1, _)) in ends.zip(&self.uniforms) {
                let r = radius_bound(u1);
                *l += sum + self.sigma * -r;
                *h += sum + self.sigma * r;
            }
        } else {
            for ((l, h), &sum) in ends {
                *l += sum;
                *h += sum;
            }
        }
    }
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
            draws: 0,
            written_at: vec![UNWRITTEN; cols],
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
    /// The programming code runs [`CrossbarArray::program_all`]; this
    /// is its oracle in the tests.
    ///
    /// # Errors
    ///
    /// Same validation as [`CrossbarArray::new`]; on error the array is
    /// left unchanged.
    #[cfg(test)]
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
        self.draws = 0;
        self.written_at.clear();
        self.written_at.resize(cols, UNWRITTEN);
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
        self.written_at.resize(self.cols, UNWRITTEN);
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

    /// Largest storable signed code.
    pub fn code_max(&self) -> i32 {
        (1 << (self.cell_bits - 1)) - 1
    }

    /// Smallest storable signed code.
    #[cfg(test)]
    pub fn code_min(&self) -> i32 {
        -(1 << (self.cell_bits - 1))
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
    pub fn program_column(&mut self, col: usize, values: &[i8]) -> Result<(), ReramError> {
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
        check_codes(values, self.cell_bits)?;
        self.codes[col * self.rows..(col + 1) * self.rows].copy_from_slice(values);
        self.write_weights(col);
        Ok(())
    }

    /// Programs every column in place: bit for bit the same as
    /// [`CrossbarArray::reset`]`(rows, cols, cell_bits, noise, seed)`
    /// followed by [`CrossbarArray::program_column`] of each column's
    /// `rows` codes of `codes` (column-major, `cols × rows`) in column
    /// order — weights, codes, epochs, the stream and the fault overlay.
    ///
    /// A column keeps the weights it already holds when the array's
    /// seed, noise model, rows and cell bits are unchanged, its codes
    /// equal its stored codes, and its programming draws start at the
    /// same pair of the reseeded stream as its last write did: the
    /// stream replays the same pairs from the same seed, so those are
    /// exactly the weights the write would store. A kept column still
    /// draws and discards its pairs (only the transforms are saved), so
    /// the stream, every later write and every read stay where they
    /// were.
    ///
    /// # Errors
    ///
    /// As [`CrossbarArray::reset`]; [`ReramError::LengthMismatch`]
    /// unless `codes` holds `rows × cols` codes and
    /// [`ReramError::CodeOutOfRange`] for a code outside the cell
    /// range. On error the array is left unchanged.
    pub(crate) fn program_all(
        &mut self,
        rows: usize,
        cols: usize,
        cell_bits: u32,
        noise: NoiseModel,
        seed: u64,
        codes: &[i8],
    ) -> Result<(), ReramError> {
        validate_geometry(rows, cols, cell_bits)?;
        if codes.len() != rows * cols {
            return Err(ReramError::LengthMismatch {
                what: "code image",
                expected: rows * cols,
                found: codes.len(),
            });
        }
        check_codes(codes, cell_bits)?;
        let same_stream =
            (self.seed, self.noise, self.rows, self.cell_bits) == (seed, noise, rows, cell_bits);
        if !same_stream {
            self.written_at.fill(UNWRITTEN);
        }
        (self.rows, self.cols, self.cell_bits) = (rows, cols, cell_bits);
        (self.noise, self.seed) = (noise, seed);
        self.rng = StdRng::seed_from_u64(seed);
        self.draws = 0;
        self.written_at.resize(cols, UNWRITTEN);
        self.codes.resize(rows * cols, 0);
        self.weights.resize(lane_cells(rows, cols), 0.0);
        // The last block's lanes past `cols` read as unprogrammed.
        for c in cols..cols.next_multiple_of(LANES) {
            for r in 0..rows {
                self.weights[lane_cell(rows, r, c)] = 0.0;
            }
        }
        self.epochs.clear();
        self.epochs.resize(cols, 0);
        if self.fault.is_some() {
            self.faulted_weights.clear();
            self.faulted_weights.resize(self.weights.len(), 0.0);
        }
        let sigma = noise.programming_sigma();
        for (c, column) in codes.chunks_exact(rows).enumerate() {
            let stored = &mut self.codes[c * rows..(c + 1) * rows];
            if self.written_at[c] == self.draws && *stored == *column {
                if sigma > 0.0 {
                    for _ in 0..rows {
                        uniforms(&mut self.rng);
                    }
                    self.draws += rows as u64;
                }
                self.epochs[c] += 1;
                self.refresh_faulted_column(c);
            } else {
                stored.copy_from_slice(column);
                self.write_weights(c);
            }
        }
        Ok(())
    }

    /// Writes column `col`'s analog weights for its stored codes, one
    /// programming-variation draw per cell, and bumps its epoch.
    fn write_weights(&mut self, col: usize) {
        let rows = self.rows;
        let sigma = self.noise.programming_sigma();
        // While `sigma · RADIUS_CEILING < 1`, every variation factor
        // `1 + sigma·n` is positive, so a code-0 cell weighs `+0.0`
        // whatever it draws: its uniforms are drawn, its transform is
        // skipped.
        let zero_is_exact = sigma * RADIUS_CEILING < 1.0;
        self.written_at[col] = self.draws;
        for (r, &v) in self.codes[col * rows..(col + 1) * rows].iter().enumerate() {
            let variation = if sigma > 0.0 {
                let (u1, u2) = uniforms(&mut self.rng);
                if v == 0 && zero_is_exact {
                    1.0
                } else {
                    1.0 + sigma * box_muller(u1, u2)
                }
            } else {
                1.0
            };
            self.weights[lane_cell(rows, r, col)] = f64::from(v) * variation;
        }
        if sigma > 0.0 {
            self.draws += rows as u64;
        }
        self.epochs[col] += 1;
        self.refresh_faulted_column(col);
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
            return Ok(intended.iter().map(|&code| code.into()).collect());
        };
        let epoch = self.epochs[col];
        Ok(intended
            .iter()
            .enumerate()
            .map(
                |(r, &code)| match fault.cell_fault(self.seed, r, col, epoch) {
                    CellFault::None => code.into(),
                    CellFault::StuckOn => self.code_max(),
                    CellFault::StuckOff | CellFault::Transient => 0,
                    CellFault::Worn(f) => (f64::from(code) * f).round() as i32,
                },
            )
            .collect())
    }

    /// The *intended* digital codes of column `col` — the
    /// write-verified shadow the controller holds, unaffected by any
    /// fault model. Scrub passes compare
    /// [`CrossbarArray::column_codes`] against this oracle, and every
    /// exact MSB score is computed from it.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad column.
    pub fn intended_column(&self, col: usize) -> Result<&[i8], ReramError> {
        if col >= self.cols {
            return Err(ReramError::IndexOutOfRange {
                what: "column",
                index: col,
                bound: self.cols,
            });
        }
        Ok(&self.codes[col * self.rows..(col + 1) * self.rows])
    }

    /// In-situ computation, the analog vector-matrix multiplication of
    /// Eq. 2 up to the read noise's transform: drives `input` codes on
    /// the wordlines, writes one noiseless column sum per column into
    /// `read` and draws each column's read-noise uniforms.
    /// `read.output(c)` is then column `c`'s analog output in code
    /// units, programming variation and read noise included.
    ///
    /// Each block of 16 columns (`LANES`) is summed one wordline at a
    /// time: every column's sum starts at `0.0` and takes its rows in
    /// ascending order, multiply then add, exactly as a column-by-column
    /// walk would. The uniforms are drawn afterwards, one pair per
    /// column in ascending column order from this array's stream, and
    /// not at all when the drive is all zero (the noise scales with the
    /// drive's full scale).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::LengthMismatch`] unless
    /// `input.len() == rows`; `read` is then left untouched.
    pub(crate) fn read_into(
        &mut self,
        input: &[i8],
        read: &mut ColumnRead,
    ) -> Result<(), ReramError> {
        if input.len() != self.rows {
            return Err(ReramError::LengthMismatch {
                what: "input vector",
                expected: self.rows,
                found: input.len(),
            });
        }
        self.drive.clear();
        self.drive.extend(input.iter().map(|&x| f64::from(x)));
        let effective = if self.fault.is_some() {
            &self.faulted_weights
        } else {
            &self.weights
        };
        read.sums.clear();
        simd::lane_sums(active_tier(), effective, &self.drive, &mut read.sums);
        read.sums.truncate(self.cols);
        read.sigma = self.noise.relative_sigma() * self.full_scale(input);
        read.uniforms.clear();
        if read.sigma > 0.0 {
            let rng = &mut self.rng;
            read.uniforms
                .extend(read.sums.iter().map(|_| uniforms(rng)));
            self.draws += self.cols as u64;
        }
        Ok(())
    }

    /// [`CrossbarArray::read_into`] with every column transformed: the
    /// whole analog output, the reference of the crossbar's tests.
    #[cfg(test)]
    pub fn vmm(&mut self, input: &[i8]) -> Result<Vec<f64>, ReramError> {
        let mut read = ColumnRead::default();
        self.read_into(input, &mut read)?;
        Ok((0..read.sums.len()).map(|c| read.output(c)).collect())
    }

    /// Full-scale analog output for the given input drive: the worst
    /// case |Σ input_i · w_i| with every cell at the code extreme.
    /// Noise is proportional to this, matching how ADC-equivalent
    /// accuracy is specified against the converter's full range.
    pub fn full_scale(&self, input: &[i8]) -> f64 {
        let drive: f64 = input.iter().map(|&x| f64::from(x).abs()).sum();
        drive * self.code_max() as f64
    }

    /// The construction seed, doubling as this array's stable identity
    /// for fault hashing and [`crate::FaultSite`] coordinates.
    pub fn identity(&self) -> u64 {
        self.seed
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
            .filter(|(_, (&r, &i))| r != i32::from(i))
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
        values: &[i8],
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
    use crate::pruner::exact_dot;
    use proptest::prelude::*;

    /// One standard normal: the uniforms, then the transform.
    fn normal(rng: &mut StdRng) -> f64 {
        let (u1, u2) = uniforms(rng);
        box_muller(u1, u2)
    }

    fn ideal_array(rows: usize, cols: usize) -> CrossbarArray {
        CrossbarArray::new(rows, cols, 4, NoiseModel::ideal(), 42).unwrap()
    }

    /// Every column's exact integer dot with `input`: the pruner's one
    /// exact MSB dot over this array as a one-row-tile column tile.
    fn exact(xb: &CrossbarArray, input: &[i8]) -> Vec<i64> {
        (0..xb.cols())
            .map(|c| exact_dot(std::slice::from_ref(xb), c, input).unwrap())
            .collect()
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
        // The extreme of the widest cell: 64 rows of 8-bit code −128
        // driven by −128 sum to 2^20, still exact in `idot`'s `i32`.
        let mut widest = CrossbarArray::new(64, 1, 8, NoiseModel::ideal(), 42).unwrap();
        widest.program_column(0, &[-128; 64]).unwrap();
        for (xb, input) in [(&mut xb, input), (&mut widest, vec![-128; 64])] {
            let analog = xb.vmm(&input).unwrap();
            for (a, e) in analog.iter().zip(exact(xb, &input)) {
                assert_eq!(*a, e as f64, "ideal analog must be exact");
            }
        }
        assert_eq!(exact(&widest, &[-128; 64]), vec![1 << 20]);
    }

    #[test]
    fn column_codes_round_trip() {
        let mut xb = ideal_array(4, 2);
        xb.program_column(1, &[3, -8, 7, 0]).unwrap();
        assert_eq!(xb.column_codes(1).unwrap(), [3, -8, 7, 0]);
        assert!(xb.column_codes(2).is_err());
    }

    #[test]
    fn both_modes_agree_on_stored_data() {
        // The column the compute mode uses is exactly what the
        // transposed read returns.
        let mut xb = ideal_array(4, 3);
        xb.program_column(0, &[1, 2, 3, 4]).unwrap();
        xb.program_column(1, &[-1, -2, -3, -4]).unwrap();
        xb.program_column(2, &[7, -8, 7, -8]).unwrap();
        let scores = xb.vmm(&[1, 0, 0, 0]).unwrap();
        for (slot, &score) in scores.iter().enumerate() {
            let key = xb.column_codes(slot).unwrap();
            assert_eq!(score, key[0] as f64, "slot {slot}");
        }
    }

    #[test]
    fn transposed_read_is_exact_even_with_noise() {
        // Reads go through sense amplifiers: digital levels come back
        // exactly even when analog compute is noisy.
        let mut xb = CrossbarArray::new(8, 2, 4, NoiseModel::default(), 9).unwrap();
        let key = [7, -8, 0, 3, -3, 1, -1, 5];
        xb.program_column(0, &key).unwrap();
        for _ in 0..5 {
            xb.vmm(&[1; 8]).unwrap();
            assert_eq!(xb.column_codes(0).unwrap(), key.map(i32::from));
        }
    }

    #[test]
    fn vmm_validates_input_length() {
        let mut xb = ideal_array(4, 2);
        assert!(xb.vmm(&[1, 2]).is_err());
    }

    #[test]
    fn noisy_vmm_stays_within_expected_band() {
        let noise = NoiseModel::equivalent_bits(5).unwrap();
        let mut xb = CrossbarArray::new(64, 16, 4, noise, 7).unwrap();
        for c in 0..16 {
            let col: Vec<i8> = (0..64).map(|r| ((r + c) % 15) as i8 - 7).collect();
            xb.program_column(c, &col).unwrap();
        }
        let input: Vec<i8> = (0..64i8).map(|r| (r % 15) - 7).collect();
        let exact = exact(&xb, &input);
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
            let exact = exact(&xb, &input)[0] as f64;
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
                let col: Vec<i8> = (0..xb.rows()).map(|r| ((r + c) % 15) as i8 - 7).collect();
                xb.program_column(c, &col).unwrap();
            }
            let input: Vec<i8> = (0..xb.rows()).map(|r| ((r % 15) as i8) - 7).collect();
            xb.vmm(&input).unwrap()
        };
        // Dirty an array with one geometry, then reset to another.
        let mut reused = CrossbarArray::new(16, 8, 4, noise, 1).unwrap();
        program_and_run(&mut reused);
        reused.reset(24, 5, 4, noise, 77).unwrap();
        let mut fresh = CrossbarArray::new(24, 5, 4, noise, 77).unwrap();
        assert_eq!(program_and_run(&mut reused), program_and_run(&mut fresh));
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
        let col: Vec<i8> = (0..16i8).map(|r| (r % 15) - 7).collect();
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
        let col: Vec<i8> = (0..16i8).map(|r| (r % 15) - 7).collect();
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
        let col = [1, 2, 3, 4, 5, 6, 7, -8];
        xb.program_column(0, &col).unwrap();
        xb.set_fault_model(Some(FaultModel::new(1).with_stuck_rates(0.5, 0.5).unwrap()));
        assert!(!xb.verify_column(0).unwrap().is_empty());
        xb.set_fault_model(None);
        assert_eq!(xb.column_codes(0).unwrap(), col.map(i32::from));
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
            exact(&xb, &[1, 1, 1, 1]),
            vec![-2],
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
        let col: Vec<i8> = (0..16i8).map(|r| (r % 15) - 7).collect();
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

        fn program_column(&mut self, col: usize, values: &[i8]) {
            let sigma = self.noise.programming_sigma();
            for (r, &v) in values.iter().enumerate() {
                let variation = if sigma > 0.0 {
                    1.0 + sigma * normal(&mut self.rng)
                } else {
                    1.0
                };
                self.weights[col * self.rows + r] = f64::from(v) * variation;
            }
            self.epochs[col] += 1;
        }

        fn vmm(&mut self, input: &[i8]) -> Vec<f64> {
            let drive: f64 = input.iter().map(|&x| f64::from(x).abs()).sum();
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
                    acc += w * f64::from(x);
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
    fn codes(n: usize, salt: usize) -> Vec<i8> {
        (0..n)
            .map(|r| ((r * 7 + salt * 13 + 5) % 16) as i8 - 8)
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
    fn a_split_read_is_vmm_and_its_bracket_holds_the_output() {
        // `read_into` keeps the uniforms; `output` must then give the
        // oracle's bits and the bracket must contain them. Split reads
        // and whole `vmm`s alternate on one array, so the split read
        // must advance the stream exactly as `vmm` does.
        let fault = FaultModel::uniform(0.2, 17).unwrap();
        let mut read = ColumnRead::default();
        for rows in [1usize, 64] {
            for cols in [1, LANES + 1, 128] {
                for (name, noise) in noise_models() {
                    for attach in [None, Some(fault)] {
                        let label = format!("{rows}x{cols} {name} fault {}", attach.is_some());
                        let mut xb = CrossbarArray::new(rows, cols, 4, noise, 9).unwrap();
                        let mut oracle = ColumnOrderArray::new(rows, cols, 4, noise, 9);
                        for c in 0..cols {
                            xb.program_column(c, &codes(rows, c)).unwrap();
                            oracle.program_column(c, &codes(rows, c));
                        }
                        xb.set_fault_model(attach);
                        oracle.fault = attach;
                        // Split, split with a zero drive (no draws),
                        // whole, split.
                        let drives = [
                            codes(rows, 3),
                            vec![0; rows],
                            codes(rows, 11),
                            codes(rows, 5),
                        ];
                        for (step, drive) in drives.iter().enumerate() {
                            let want = oracle.vmm(drive);
                            if step == 2 {
                                assert_eq!(bits(&xb.vmm(drive).unwrap()), bits(&want), "{label}");
                                continue;
                            }
                            xb.read_into(drive, &mut read).unwrap();
                            let (mut lo, mut hi) = (vec![0.0; cols], vec![0.0; cols]);
                            read.add_brackets(&mut lo, &mut hi);
                            for (c, &w) in want.iter().enumerate() {
                                assert_eq!(
                                    read.output(c).to_bits(),
                                    w.to_bits(),
                                    "{label} col {c}"
                                );
                                assert!(
                                    lo[c] <= w && w <= hi[c],
                                    "{label} col {c}: {w} outside [{}, {}]",
                                    lo[c],
                                    hi[c]
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn skipped_zero_code_transforms_keep_every_weight_bit() {
        // A code-0 cell skips its transform only while no variation
        // factor can turn negative; at sigma 1 it must not (a negative
        // factor stores -0.0), at 1 % it may. Either way every stored
        // weight, signed zeros included, is the oracle's.
        for sigma in [0.01, 1.0] {
            let noise = NoiseModel::from_sigmas(0.0, sigma).unwrap();
            let (rows, cols) = (8, LANES + 3);
            let mut xb = CrossbarArray::new(rows, cols, 4, noise, 4).unwrap();
            let mut oracle = ColumnOrderArray::new(rows, cols, 4, noise, 4);
            for c in 0..cols {
                // Every other cell holds code 0.
                let col: Vec<i8> = codes(rows, c)
                    .iter()
                    .enumerate()
                    .map(|(r, &v)| if r % 2 == 0 { 0 } else { v })
                    .collect();
                xb.program_column(c, &col).unwrap();
                oracle.program_column(c, &col);
            }
            for c in 0..cols {
                for r in 0..rows {
                    assert_eq!(
                        xb.weights[lane_cell(rows, r, c)].to_bits(),
                        oracle.weights[c * rows + r].to_bits(),
                        "sigma {sigma} cell ({r}, {c})"
                    );
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

    /// Everything an array's later behaviour depends on, as bits: its
    /// weights, codes, epochs and fault overlay, its draw counters, and
    /// the next 16 uniforms of its stream (drawn from a clone).
    fn state_bits(xb: &CrossbarArray) -> Vec<Vec<u64>> {
        let mut rng = xb.rng.clone();
        let next = (0..16).flat_map(|_| {
            let (u1, u2) = uniforms(&mut rng);
            [u1.to_bits(), u2.to_bits()]
        });
        vec![
            bits(&xb.weights),
            xb.codes.iter().map(|&c| c as u64).collect(),
            xb.epochs.clone(),
            bits(&xb.faulted_weights),
            vec![xb.draws],
            xb.written_at.clone(),
            next.collect(),
        ]
    }

    /// Codes of `cell_bits`-deep cells, `-128` among them at 8 bits.
    fn cell_codes(n: usize, salt: usize, cell_bits: u32) -> Vec<i8> {
        let levels = 1usize << cell_bits;
        (0..n)
            .map(|r| ((r * 7 + salt * 13 + 5) % levels) as i32 - (levels / 2) as i32)
            .map(|c| c as i8)
            .collect()
    }

    #[test]
    fn program_all_is_reset_then_program_column_in_order() {
        let rows = 9;
        let transient = FaultModel::new(11).with_transient_rate(0.15).unwrap();
        let faults = [
            None,
            Some(FaultModel::uniform(0.2, 3).unwrap()),
            Some(transient),
        ];
        let noises = [
            ("sigma 0", NoiseModel::from_sigmas(0.01, 0.0).unwrap()),
            ("default", NoiseModel::default()),
        ];
        for cell_bits in [4, 8] {
            for (name, noise) in noises {
                for fault in faults {
                    let image = |cols: usize| -> Vec<i8> {
                        (0..cols)
                            .flat_map(|c| cell_codes(rows, c, cell_bits))
                            .collect()
                    };
                    let (cols, appended) = (LANES + 3, 5);
                    // A history: a full program, a read, appended
                    // columns (their draws start after the read's),
                    // another read and, under the transient model,
                    // write-verify retries of two columns.
                    let mut history = CrossbarArray::new(rows, 2, cell_bits, noise, 8).unwrap();
                    history.set_fault_model(fault);
                    history
                        .program_all(rows, cols, cell_bits, noise, 8, &image(cols))
                        .unwrap();
                    history.vmm(&cell_codes(rows, 1, 4)).unwrap();
                    history.append_cols(appended);
                    let full = image(cols + appended);
                    for c in cols..cols + appended {
                        history
                            .program_column(c, &full[c * rows..(c + 1) * rows])
                            .unwrap();
                    }
                    history.vmm(&cell_codes(rows, 2, 4)).unwrap();
                    if fault == Some(transient) {
                        for c in [2, cols + 1] {
                            let codes = &full[c * rows..(c + 1) * rows];
                            history.program_column_verified(c, codes, 8).unwrap();
                        }
                    }
                    let mut changed = full.clone();
                    changed[3 * rows + 4] = if changed[3 * rows + 4] == 0 { 1 } else { 0 };
                    let cases = [
                        ("untouched", full.clone()),
                        ("one changed code", changed),
                        ("fewer columns", full[..(cols - 2) * rows].to_vec()),
                    ];
                    for (case, codes) in cases {
                        let label = format!("{cell_bits}-bit {name} fault {fault:?} {case}");
                        let n = codes.len() / rows;
                        let mut oracle = history.clone();
                        oracle.reset(rows, n, cell_bits, noise, 8).unwrap();
                        for (c, column) in codes.chunks_exact(rows).enumerate() {
                            oracle.program_column(c, column).unwrap();
                        }
                        let mut in_place = history.clone();
                        in_place
                            .program_all(rows, n, cell_bits, noise, 8, &codes)
                            .unwrap();
                        assert_eq!(state_bits(&in_place), state_bits(&oracle), "{label}");
                        // And again on the result: every column is kept.
                        in_place
                            .program_all(rows, n, cell_bits, noise, 8, &codes)
                            .unwrap();
                        assert_eq!(state_bits(&in_place), state_bits(&oracle), "{label}, twice");
                    }
                }
            }
        }
    }

    #[test]
    fn program_all_keeps_exactly_the_columns_whose_codes_and_draws_match() {
        // A poisoned weight survives only in a column that is kept: the
        // untouched ones. The changed column, the columns appended after
        // a read and every column of a reseeded array are rewritten.
        let (rows, cols, noise) = (5, 4, NoiseModel::default());
        let codes: Vec<i8> = (0..cols).flat_map(|c| cell_codes(rows, c, 4)).collect();
        let poisoned = |xb: &CrossbarArray, c: usize| xb.weights[lane_cell(rows, 0, c)].is_nan();
        let mut xb = CrossbarArray::new(rows, 2, 4, noise, 1).unwrap();
        xb.program_all(rows, 2, 4, noise, 1, &codes[..2 * rows])
            .unwrap();
        xb.vmm(&[1; 5]).unwrap();
        xb.append_cols(2);
        for c in 2..cols {
            xb.program_column(c, &codes[c * rows..(c + 1) * rows])
                .unwrap();
        }
        let poison = |xb: &mut CrossbarArray| {
            for c in 0..cols {
                xb.weights[lane_cell(rows, 0, c)] = f64::NAN;
            }
        };
        let mut changed = codes.clone();
        changed[rows + 1] += 1;
        poison(&mut xb);
        xb.program_all(rows, cols, 4, noise, 1, &changed).unwrap();
        let kept: Vec<bool> = (0..cols).map(|c| poisoned(&xb, c)).collect();
        assert_eq!(kept, [true, false, false, false]);
        poison(&mut xb);
        xb.program_all(rows, cols, 4, noise, 2, &changed).unwrap();
        assert!(
            (0..cols).all(|c| !poisoned(&xb, c)),
            "a new seed keeps nothing"
        );
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
                ((state % 16) as i8) - 8
            };
            for c in 0..cols {
                let col: Vec<i8> = (0..rows).map(|_| next_code()).collect();
                xb.program_column(c, &col).unwrap();
            }
            let input: Vec<i8> = (0..rows).map(|_| next_code()).collect();
            let analog = xb.vmm(&input).unwrap();
            for (a, e) in analog.iter().zip(exact(&xb, &input)) {
                prop_assert_eq!(*a, e as f64);
            }
        }
    }
}
