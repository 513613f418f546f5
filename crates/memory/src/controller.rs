//! The SPRINT memory controller frontend (§V-B/C).
//!
//! Counts, per query: the in-memory thresholding handshake
//! (`CopyQ`/`ReadP` on every channel), the look-up of the returned
//! pruning vector's kept keys in the on-chip [`Residency`] (the SLD
//! split, Eqs. 4–5), and the per-channel MRG fetches of the ones that
//! missed, with the row buffers they open. These are the statistics
//! the §VII performance simulator consumes; memory *time* is priced
//! there, analytically, from the fetch counts.

use sprint_energy::TimingParams;

use crate::engines::ChannelBatches;
use crate::{KeyAddress, MemoryError, MemoryGeometry, Residency, ResidencyPolicy};

/// `CopyQ` beats per query on each channel (the query MSBs over the
/// bus; the last beat carries the start bit).
const COPYQ_BEATS: u64 = 2;

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Queries processed (thresholding handshakes).
    pub queries: u64,
    /// Key/value vectors fetched from main memory.
    pub fetched_vectors: u64,
    /// Vectors reused from on-chip buffers via spatial locality.
    pub reused_vectors: u64,
    /// Bytes moved over the memory channels.
    pub bytes_fetched: u64,
    /// Row-buffer hits across all channels.
    pub row_hits: u64,
    /// Row-buffer misses across all channels.
    pub row_misses: u64,
    /// `CopyQ` commands issued.
    pub copyq_commands: u64,
    /// `ReadP` commands issued.
    pub readp_commands: u64,
}

impl MemoryStats {
    /// Every counter, in field order: the one view to hash or compare
    /// the statistics through.
    pub fn counters(&self) -> [u64; 8] {
        [
            self.queries,
            self.fetched_vectors,
            self.reused_vectors,
            self.bytes_fetched,
            self.row_hits,
            self.row_misses,
            self.copyq_commands,
            self.readp_commands,
        ]
    }
}

/// Per-query outcome of the threshold-and-fetch flow. The key lists
/// themselves stay in the controller until the next query
/// ([`MemoryController::fetched_keys`], [`MemoryController::reused_keys`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Number of kept keys fetched from main memory.
    pub fetched: usize,
    /// Number of kept keys reused from the on-chip K buffer.
    pub reused: usize,
}

/// The memory controller: one on-chip residency table in the frontend
/// plus the open row of every bank behind it.
///
/// A query allocates nothing once the controller has seen one as long:
/// the kept list and the per-channel fetch lists are scratch it reuses.
///
/// # Example
///
/// ```
/// use sprint_memory::{MemoryController, MemoryGeometry};
/// use sprint_energy::TimingParams;
///
/// # fn main() -> Result<(), sprint_memory::MemoryError> {
/// let mut mc = MemoryController::new(MemoryGeometry::default(), TimingParams::default())?;
/// mc.process_query(&[false, false, true, true])?;
/// let o2 = mc.process_query(&[false, true, false, true])?;
/// assert_eq!((o2.fetched, o2.reused), (1, 1));
/// assert_eq!(mc.reused_keys(), [0], "key 0 stays on chip");
/// assert_eq!(mc.fetched_keys(), [2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemoryController {
    geometry: MemoryGeometry,
    /// Keys currently resident on chip (the per-CORELET look-up
    /// tables of §VI): what a kept key misses here is fetched, what
    /// it finds is reused — also a key that left the kept set for a
    /// query and returns later. Unbounded, so nothing evicts; the
    /// capacity argument is the one thing the figure drivers set
    /// differently.
    residency: Residency,
    /// The row open in each bank, `channel · banks_per_channel + bank`:
    /// a fetch from it is a row-buffer hit. Only fetches open rows
    /// (`CopyQ`/`ReadP` work against the in-memory query buffer), and
    /// only [`MemoryController::reset_cold`] closes them.
    open_rows: Vec<Option<usize>>,
    /// Length of this head's pruning vectors, fixed by its first query.
    keys: Option<usize>,
    /// Per-query scratch: the kept key indices, then the fetched ones
    /// addressed and split by channel.
    kept: Vec<usize>,
    batches: ChannelBatches,
    stats: MemoryStats,
}

impl MemoryController {
    /// Creates a controller over the given geometry. `timing` is
    /// validated but not kept: the engine's cost model prices memory
    /// time from the counts this controller keeps.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::InvalidGeometry`] or
    /// [`MemoryError::InvalidTiming`] for an invalid parameter.
    pub fn new(geometry: MemoryGeometry, timing: TimingParams) -> Result<Self, MemoryError> {
        geometry.validate()?;
        timing.validate().map_err(MemoryError::InvalidTiming)?;
        Ok(MemoryController {
            geometry,
            residency: Residency::new(usize::MAX, ResidencyPolicy::SldPinned),
            open_rows: vec![None; geometry.channels * geometry.banks_per_channel],
            keys: None,
            kept: Vec::new(),
            batches: ChannelBatches::default(),
            stats: MemoryStats::default(),
        })
    }

    /// The geometry in use.
    pub fn geometry(&self) -> MemoryGeometry {
        self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }

    /// The keys the last query fetched from main memory (ascending).
    pub fn fetched_keys(&self) -> &[usize] {
        self.residency.missed()
    }

    /// The keys the last query reused from the on-chip K buffer
    /// (ascending).
    pub fn reused_keys(&self) -> &[usize] {
        self.residency.reused()
    }

    /// Empties the residency table (new head: on-chip buffers
    /// invalid, and its pruning vectors may have another length). The
    /// memory's row buffers stay open.
    pub fn start_new_head(&mut self) {
        self.residency.clear();
        self.keys = None;
    }

    /// Restores the controller to its freshly-constructed state —
    /// every row closed, empty residency table, zeroed statistics —
    /// reusing every allocation. A controller reset this way behaves
    /// bit-identically to a new one over the same geometry; the
    /// serving engine uses this to run an unbounded stream of heads
    /// through one controller, and a decode session calls it before
    /// each step so per-step statistics match a fresh-controller
    /// oracle exactly.
    pub fn reset_cold(&mut self) {
        self.open_rows.fill(None);
        self.start_new_head();
        self.stats = MemoryStats::default();
    }

    /// Runs the full per-query flow: thresholding handshake,
    /// residency look-up and per-channel address generation of the
    /// fetches, counting each fetch against its bank's open row.
    ///
    /// `pruned[j] == true` means key `j` was pruned by the in-memory
    /// comparators.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::LengthMismatch`] if the vector length
    /// changes within a head.
    pub fn process_query(&mut self, pruned: &[bool]) -> Result<QueryOutcome, MemoryError> {
        let expected = *self.keys.get_or_insert(pruned.len());
        if expected != pruned.len() {
            return Err(MemoryError::LengthMismatch {
                what: "pruning vector",
                expected,
                found: pruned.len(),
            });
        }

        // 1. Thresholding handshake on every channel holding K MSBs.
        let channels = self.geometry.channels as u64;
        self.stats.copyq_commands += COPYQ_BEATS * channels;
        self.stats.readp_commands += channels;
        self.stats.queries += 1;

        // 2. Frontend split: the kept keys the look-up tables miss are
        // the memory requests (Eq. 4), the ones they hold the locality
        // hits (Eq. 5).
        // (Every index is written, the cursor advances past the kept
        // ones: no branch on a flag.)
        self.kept.clear();
        self.kept.resize(pruned.len(), 0);
        let kept = &mut self.kept[..];
        let mut n = 0;
        for (j, &p) in pruned.iter().enumerate() {
            kept[n] = j;
            n += usize::from(!p);
        }
        self.kept.truncate(n);
        self.residency.access(&self.kept);

        // 3. Per-channel address generation (the MRGs). A channel's
        // batch is ascending, so each (bank, row) it touches is one
        // run: on the bank's open row every fetch hits; otherwise the
        // first one misses and opens the row for the rest.
        let missed = self.residency.missed();
        self.batches.split(&self.geometry, missed);
        let banks = self.geometry.banks_per_channel;
        let same_row = |a: &KeyAddress, b: &KeyAddress| {
            (a.location.bank, a.location.row) == (b.location.bank, b.location.row)
        };
        let rows = self.open_rows.chunks_exact_mut(banks);
        for (open, batch) in rows.zip(self.batches.iter()) {
            for run in batch.chunk_by(same_row) {
                let (bank, row) = (run[0].location.bank, run[0].location.row);
                let n = run.len() as u64;
                if open[bank] == Some(row) {
                    self.stats.row_hits += n;
                } else {
                    open[bank] = Some(row);
                    self.stats.row_misses += 1;
                    self.stats.row_hits += n - 1;
                }
            }
            self.stats.fetched_vectors += batch.len() as u64;
            self.stats.bytes_fetched += (batch.len() * self.geometry.bytes_per_fetch) as u64;
        }

        let (fetched, reused) = (missed.len(), self.residency.reused().len());
        self.stats.reused_vectors += reused as u64;
        Ok(QueryOutcome { fetched, reused })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn controller() -> MemoryController {
        MemoryController::new(MemoryGeometry::default(), TimingParams::default()).unwrap()
    }

    fn keep(n: usize, kept: &[usize]) -> Vec<bool> {
        let mut v = vec![true; n];
        for &j in kept {
            v[j] = false;
        }
        v
    }

    #[test]
    fn reset_cold_is_bit_identical_to_fresh_construction() {
        let mut reused = controller();
        // Dirty the controller: queries, open rows, a resident set.
        for _ in 0..3 {
            reused.process_query(&keep(64, &[0, 5, 9, 33, 63])).unwrap();
        }
        reused.reset_cold();
        let mut fresh = controller();
        for kept in [vec![0usize, 3, 17, 31], vec![3, 4, 17], vec![4, 30]] {
            let a = reused.process_query(&keep(32, &kept)).unwrap();
            let b = fresh.process_query(&keep(32, &kept)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(reused.stats(), fresh.stats());
    }

    #[test]
    fn cold_query_fetches_entire_kept_set() {
        let mut mc = controller();
        let o = mc.process_query(&keep(32, &[0, 3, 17, 31])).unwrap();
        assert_eq!(mc.fetched_keys(), [0, 3, 17, 31]);
        assert!(mc.reused_keys().is_empty());
        assert_eq!((o.fetched, o.reused), (4, 0));
    }

    #[test]
    fn adjacent_query_reuses_overlap() {
        let mut mc = controller();
        mc.process_query(&keep(32, &[0, 3, 17, 31])).unwrap();
        let o = mc.process_query(&keep(32, &[0, 3, 18, 31])).unwrap();
        assert_eq!(mc.fetched_keys(), [18]);
        assert_eq!(mc.reused_keys(), [0, 3, 31]);
        assert_eq!((o.fetched, o.reused), (1, 3));
        let stats = mc.stats();
        assert_eq!(stats.fetched_vectors, 5);
        assert_eq!(stats.reused_vectors, 3);
        assert_eq!(stats.queries, 2);
    }

    #[test]
    fn fully_overlapping_query_fetches_nothing() {
        let mut mc = controller();
        let mask = keep(16, &[1, 2, 3]);
        mc.process_query(&mask).unwrap();
        let before = mc.stats().bytes_fetched;
        let o = mc.process_query(&mask).unwrap();
        assert_eq!(o.fetched, 0);
        assert_eq!(mc.stats().bytes_fetched, before, "no new bytes moved");
        assert_eq!(mc.stats().queries, 2, "still thresholded");
    }

    #[test]
    fn new_head_resets_locality() {
        let mut mc = controller();
        let mask = keep(16, &[1, 2]);
        mc.process_query(&mask).unwrap();
        mc.start_new_head();
        mc.process_query(&mask).unwrap();
        assert_eq!(mc.fetched_keys(), [1, 2], "cold again after head switch");
    }

    #[test]
    fn bytes_accounting_matches_fetch_count() {
        let mut mc = controller();
        let g = mc.geometry();
        mc.process_query(&keep(64, &[0, 1, 2, 3, 4])).unwrap();
        assert_eq!(mc.stats().bytes_fetched, 5 * g.bytes_per_fetch as u64);
    }

    #[test]
    fn sprint_commands_are_counted_on_every_channel() {
        let mut mc = controller();
        let channels = mc.geometry().channels as u64;
        // Two CopyQ beats and one ReadP per channel, whatever is kept
        // and whether or not anything is fetched.
        let queries: [Vec<usize>; 4] = [vec![0], vec![0], vec![], (0..16).collect()];
        for (q, kept) in queries.iter().enumerate() {
            mc.process_query(&keep(16, kept)).unwrap();
            let s = mc.stats();
            let queries = q as u64 + 1;
            assert_eq!(s.copyq_commands, 2 * channels * queries);
            assert_eq!(s.readp_commands, channels * queries);
        }
        let s = mc.stats();
        assert_eq!(
            s.row_hits + s.row_misses,
            s.fetched_vectors,
            "the handshake opens no row"
        );
    }

    #[test]
    fn an_open_row_survives_a_new_head_but_not_a_cold_reset() {
        let mut mc = controller();
        // Keys 0, 16 and 32 share one row of bank 0 on channel 0.
        let mask = keep(48, &[0, 16, 32]);
        mc.process_query(&mask).unwrap();
        let s = mc.stats();
        assert_eq!(
            (s.row_misses, s.row_hits),
            (1, 2),
            "one activate, then the row"
        );

        // The next head refetches the same keys from the row still open.
        mc.start_new_head();
        mc.process_query(&mask).unwrap();
        assert_eq!(mc.fetched_keys(), [0, 16, 32]);
        let s = mc.stats();
        assert_eq!((s.row_misses, s.row_hits), (1, 5), "every refetch hits");

        // A cold reset closes it: the same fetches miss once again.
        mc.reset_cold();
        mc.process_query(&mask).unwrap();
        let s = mc.stats();
        assert_eq!((s.row_misses, s.row_hits), (1, 2));
    }

    #[test]
    fn another_row_of_an_open_bank_misses_and_replaces_it() {
        let mut mc = controller();
        let g = mc.geometry();
        // Key `row_stride` is row 1 of bank 0 on channel 0, like key 0
        // is row 0.
        let row_stride = g.channels * g.vectors_per_row * g.banks_per_channel;
        mc.process_query(&keep(2 * row_stride, &[0, row_stride]))
            .unwrap();
        assert_eq!((mc.stats().row_misses, mc.stats().row_hits), (2, 0));
        mc.start_new_head();
        mc.process_query(&keep(2 * row_stride, &[0])).unwrap();
        assert_eq!(
            (mc.stats().row_misses, mc.stats().row_hits),
            (3, 0),
            "row 1 displaced row 0"
        );
    }

    #[test]
    fn construction_validates_geometry_and_timing() {
        let no_banks = MemoryGeometry {
            banks_per_channel: 0,
            ..MemoryGeometry::default()
        };
        assert!(matches!(
            MemoryController::new(no_banks, TimingParams::default()),
            Err(MemoryError::InvalidGeometry { .. })
        ));
        let bad = TimingParams {
            t_rcd: sprint_energy::Cycles::ZERO,
            ..TimingParams::default()
        };
        assert!(matches!(
            MemoryController::new(MemoryGeometry::default(), bad),
            Err(MemoryError::InvalidTiming(_))
        ));
    }

    #[test]
    fn length_change_mid_head_errors() {
        let mut mc = controller();
        mc.process_query(&keep(16, &[0])).unwrap();
        assert_eq!(
            mc.process_query(&keep(17, &[0])),
            Err(MemoryError::LengthMismatch {
                what: "pruning vector",
                expected: 16,
                found: 17,
            })
        );
        mc.start_new_head();
        assert!(mc.process_query(&keep(17, &[0])).is_ok(), "a new head");
    }

    proptest! {
        /// The controller against the plain set it used to keep:
        /// `fetched = kept − seen; seen ∪= kept`.
        #[test]
        fn prop_outcomes_match_the_set_model(
            keys in 1usize..601,
            flags in proptest::collection::vec(
                proptest::collection::vec(proptest::bool::ANY, 600..601), 1..41),
            events in proptest::collection::vec(0u8..8, 40..41),
        ) {
            let mut mc = controller();
            let bytes_per_fetch = mc.geometry().bytes_per_fetch as u64;
            let mut seen = vec![false; keys];
            let (mut fetched_total, mut reused_total) = (0u64, 0u64);
            for (flags, event) in flags.iter().zip(&events) {
                match event {
                    0 => {
                        mc.reset_cold();
                        (fetched_total, reused_total) = (0, 0);
                        seen.fill(false);
                    }
                    1 => {
                        mc.start_new_head();
                        seen.fill(false);
                    }
                    _ => {}
                }
                let pruned = &flags[..keys];
                let kept = (0..keys).filter(|&j| !pruned[j]);
                let (reused, fetched): (Vec<usize>, Vec<usize>) = kept.partition(|&j| seen[j]);
                fetched.iter().for_each(|&j| seen[j] = true);
                fetched_total += fetched.len() as u64;
                reused_total += reused.len() as u64;

                let outcome = mc.process_query(pruned).unwrap();
                prop_assert_eq!((outcome.fetched, outcome.reused), (fetched.len(), reused.len()));
                prop_assert_eq!(mc.fetched_keys(), fetched);
                prop_assert_eq!(mc.reused_keys(), reused);
                let stats = mc.stats();
                prop_assert_eq!(stats.fetched_vectors, fetched_total);
                prop_assert_eq!(stats.reused_vectors, reused_total);
                prop_assert_eq!(stats.bytes_fetched, fetched_total * bytes_per_fetch);
            }
        }
    }
}
