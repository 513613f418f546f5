//! The transposable ReRAM crossbar (§III-B, Fig. 6).
//!
//! Wan et al.'s taped-out array \[141\] supports two access modes:
//!
//! * **in-situ computation** — the conventional crossbar mode: the
//!   query drives the horizontal wordlines and every vertical bitline
//!   produces one dot product (Fig. 6a);
//! * **transposed read** — horizontal lines become bitlines and one
//!   *vertical* wordline is asserted, so the sense amplifiers read out
//!   the full key vector stored in that column (Fig. 6b).
//!
//! The second mode is what makes selective fetch of unpruned key
//! vectors possible without sequentially activating every row (§III-A
//! challenge ③).

use crate::{CrossbarArray, FaultModel, NoiseModel, ProgramOutcome, ReramError};

/// The access mode a transposable array was last used in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// No access yet.
    Idle,
    /// Analog vector-matrix computation (Fig. 6a).
    InSituCompute,
    /// Transposed digital read of one stored column (Fig. 6b).
    TransposedRead,
}

/// A transposable crossbar storing key-vector MSB nibbles.
///
/// # Example
///
/// ```
/// use sprint_reram::{NoiseModel, TransposableArray};
///
/// # fn main() -> Result<(), sprint_reram::ReramError> {
/// let mut arr = TransposableArray::new(4, 2, NoiseModel::ideal(), 3)?;
/// arr.store_key(0, &[1, -2, 3, -4])?;
/// let scores = arr.in_situ_compute(&[1, 1, 1, 1])?;
/// assert_eq!(scores[0], -2.0);
/// assert_eq!(arr.transposed_read(0)?, vec![1, -2, 3, -4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransposableArray {
    inner: CrossbarArray,
    mode: AccessMode,
    compute_ops: u64,
    transposed_reads: u64,
}

impl TransposableArray {
    /// Creates a transposable array of `rows × cols` 4-bit MLC cells.
    ///
    /// Table I sizes the transposable arrays at 64 × 128 with 4-bit
    /// MLC; other geometries are permitted for tiling and tests.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarArray::new`] validation errors.
    pub fn new(rows: usize, cols: usize, noise: NoiseModel, seed: u64) -> Result<Self, ReramError> {
        TransposableArray::with_cell_bits(rows, cols, 4, noise, seed)
    }

    /// Creates a transposable array with a non-default MLC depth
    /// (for the bits-per-cell robustness/density study of §III).
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarArray::new`] validation errors.
    pub fn with_cell_bits(
        rows: usize,
        cols: usize,
        cell_bits: u32,
        noise: NoiseModel,
        seed: u64,
    ) -> Result<Self, ReramError> {
        Ok(TransposableArray {
            inner: CrossbarArray::new(rows, cols, cell_bits, noise, seed)?,
            mode: AccessMode::Idle,
            compute_ops: 0,
            transposed_reads: 0,
        })
    }

    /// Restores the array to its freshly-constructed state for a
    /// possibly different geometry, reusing the cell allocations (see
    /// [`CrossbarArray::reset`]). After a successful call the array
    /// behaves bit-identically to
    /// [`TransposableArray::with_cell_bits`] with the same arguments.
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarArray::reset`] validation errors; on error
    /// the array is left unchanged.
    pub fn reset(
        &mut self,
        rows: usize,
        cols: usize,
        cell_bits: u32,
        noise: NoiseModel,
        seed: u64,
    ) -> Result<(), ReramError> {
        self.inner.reset(rows, cols, cell_bits, noise, seed)?;
        self.mode = AccessMode::Idle;
        self.compute_ops = 0;
        self.transposed_reads = 0;
        Ok(())
    }

    /// Appends `added` empty key slots (bitline columns), preserving
    /// every stored key and its programming variation — see
    /// [`CrossbarArray::append_cols`]. Used by the decode path to grow
    /// a programmed array one key at a time instead of rebuilding it.
    pub fn append_slots(&mut self, added: usize) {
        self.inner.append_cols(added);
    }

    /// Bits per MLC cell.
    pub fn cell_bits(&self) -> u32 {
        self.inner.cell_bits()
    }

    /// Number of wordlines (embedding dimension covered).
    pub fn rows(&self) -> usize {
        self.inner.rows()
    }

    /// Number of bitlines (key slots).
    pub fn cols(&self) -> usize {
        self.inner.cols()
    }

    /// The last access mode.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// Analog compute operations performed (energy hook).
    pub fn compute_ops(&self) -> u64 {
        self.compute_ops
    }

    /// Transposed reads performed (energy hook).
    pub fn transposed_reads(&self) -> u64 {
        self.transposed_reads
    }

    /// Stores the 4-bit MSB codes of key `slot` in one column.
    ///
    /// # Errors
    ///
    /// Propagates programming errors (bad slot, wrong length, code out
    /// of the signed 4-bit range).
    pub fn store_key(&mut self, slot: usize, msb_codes: &[i32]) -> Result<(), ReramError> {
        self.inner.program_column(slot, msb_codes)
    }

    /// In-situ computation: drives the query MSB codes on the
    /// wordlines and returns one approximate dot product per stored
    /// key (analog, in code units).
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarArray::vmm`] errors.
    pub fn in_situ_compute(&mut self, query_msb: &[i32]) -> Result<Vec<f64>, ReramError> {
        let mut out = Vec::new();
        self.in_situ_compute_into(query_msb, &mut out)?;
        Ok(out)
    }

    /// [`TransposableArray::in_situ_compute`] into a caller-owned
    /// buffer — see [`CrossbarArray::vmm_into`].
    ///
    /// # Errors
    ///
    /// Propagates [`CrossbarArray::vmm_into`] errors.
    pub fn in_situ_compute_into(
        &mut self,
        query_msb: &[i32],
        out: &mut Vec<f64>,
    ) -> Result<(), ReramError> {
        self.mode = AccessMode::InSituCompute;
        self.compute_ops += 1;
        self.inner.vmm_into(query_msb, out)
    }

    /// Exact digital reference for [`TransposableArray::in_situ_compute`].
    ///
    /// # Errors
    ///
    /// Propagates length validation errors.
    pub fn exact_compute(&self, query_msb: &[i32]) -> Result<Vec<i64>, ReramError> {
        self.inner.exact_vmm(query_msb)
    }

    /// Transposed read: asserts the vertical wordline of `slot` and
    /// senses the stored key codes digitally (reads are exact — sense
    /// amplifiers regenerate the programmed levels).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad slot.
    pub fn transposed_read(&mut self, slot: usize) -> Result<Vec<i32>, ReramError> {
        self.mode = AccessMode::TransposedRead;
        self.transposed_reads += 1;
        self.inner.column_codes(slot)
    }

    /// Full-scale output used to size noise and margins.
    pub fn full_scale(&self, query_msb: &[i32]) -> f64 {
        self.inner.full_scale(query_msb)
    }

    /// The construction seed of the underlying crossbar, doubling as
    /// this array's stable identity for fault coordinates.
    pub fn identity(&self) -> u64 {
        self.inner.identity()
    }

    /// Attaches (or detaches) a hard-fault model — see
    /// [`CrossbarArray::set_fault_model`].
    pub fn set_fault_model(&mut self, fault: Option<FaultModel>) {
        self.inner.set_fault_model(fault);
    }

    /// The attached fault model, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.inner.fault_model()
    }

    /// The *intended* (write-verified) codes of key `slot`, unaffected
    /// by any fault model — the digital oracle scrub passes compare
    /// [`TransposableArray::transposed_read`] against.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad slot.
    pub fn intended_codes(&self, slot: usize) -> Result<Vec<i32>, ReramError> {
        self.inner.intended_codes(slot)
    }

    /// [`TransposableArray::intended_codes`] borrowed from the shadow.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad slot.
    pub fn intended_key(&self, slot: usize) -> Result<&[i32], ReramError> {
        self.inner.intended_column(slot)
    }

    /// Write-verifies key `slot`: the rows whose digital readout
    /// disagrees with the intended codes — see
    /// [`CrossbarArray::verify_column`].
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad slot.
    pub fn verify_key(&self, slot: usize) -> Result<Vec<usize>, ReramError> {
        self.inner.verify_column(slot)
    }

    /// Stores key `slot` with write-verify and bounded deterministic
    /// retry — see [`CrossbarArray::program_column_verified`].
    ///
    /// # Errors
    ///
    /// Same validation as [`TransposableArray::store_key`].
    pub fn store_key_verified(
        &mut self,
        slot: usize,
        msb_codes: &[i32],
        max_attempts: u32,
    ) -> Result<ProgramOutcome, ReramError> {
        self.inner
            .program_column_verified(slot, msb_codes, max_attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_array() -> TransposableArray {
        let mut arr = TransposableArray::new(4, 3, NoiseModel::ideal(), 1).unwrap();
        arr.store_key(0, &[1, 2, 3, 4]).unwrap();
        arr.store_key(1, &[-1, -2, -3, -4]).unwrap();
        arr.store_key(2, &[7, -8, 7, -8]).unwrap();
        arr
    }

    #[test]
    fn table_one_geometry_is_constructible() {
        let arr = TransposableArray::new(64, 128, NoiseModel::default(), 0).unwrap();
        assert_eq!(arr.rows(), 64);
        assert_eq!(arr.cols(), 128);
    }

    #[test]
    fn both_modes_agree_on_stored_data() {
        let mut arr = sample_array();
        // Invariant 8 of DESIGN.md: the column the compute mode uses is
        // exactly what the transposed read returns.
        let q = vec![1, 0, 0, 0];
        let scores = arr.in_situ_compute(&q).unwrap();
        for (slot, &score) in scores.iter().enumerate().take(3) {
            let key = arr.transposed_read(slot).unwrap();
            assert_eq!(score, key[0] as f64, "slot {slot}");
        }
    }

    #[test]
    fn mode_tracking_and_counters() {
        let mut arr = sample_array();
        assert_eq!(arr.mode(), AccessMode::Idle);
        arr.in_situ_compute(&[1, 1, 1, 1]).unwrap();
        assert_eq!(arr.mode(), AccessMode::InSituCompute);
        arr.transposed_read(1).unwrap();
        assert_eq!(arr.mode(), AccessMode::TransposedRead);
        assert_eq!(arr.compute_ops(), 1);
        assert_eq!(arr.transposed_reads(), 1);
    }

    #[test]
    fn exact_compute_matches_ideal_in_situ() {
        let mut arr = sample_array();
        let q = vec![2, -1, 3, 1];
        let analog = arr.in_situ_compute(&q).unwrap();
        let exact = arr.exact_compute(&q).unwrap();
        for (a, e) in analog.iter().zip(&exact) {
            assert_eq!(*a, *e as f64);
        }
    }

    #[test]
    fn transposed_read_is_exact_even_with_noise() {
        // Reads go through sense amplifiers: digital levels come back
        // exactly even when analog compute is noisy.
        let mut arr = TransposableArray::new(8, 2, NoiseModel::default(), 9).unwrap();
        let key = vec![7, -8, 0, 3, -3, 1, -1, 5];
        arr.store_key(0, &key).unwrap();
        for _ in 0..5 {
            assert_eq!(arr.transposed_read(0).unwrap(), key);
        }
    }

    #[test]
    fn invalid_accesses_error() {
        let mut arr = sample_array();
        assert!(arr.store_key(5, &[0; 4]).is_err());
        assert!(arr.store_key(0, &[0; 3]).is_err());
        assert!(arr.transposed_read(3).is_err());
        assert!(arr.in_situ_compute(&[1, 2]).is_err());
    }
}
