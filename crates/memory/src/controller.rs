//! The SPRINT memory controller frontend (§V-B/C).
//!
//! Orchestrates, per query: the in-memory thresholding handshake
//! (`CopyQ`/`ReadP`), the look-up of the returned pruning vector's
//! kept keys in the on-chip [`Residency`] (the SLD split, Eqs. 4–5),
//! per-channel MRG address generation for the ones that missed, and
//! backend scheduling of those selective fetches. Accumulates the
//! statistics the §VII performance simulator consumes.

use sprint_energy::{Cycles, TimingParams};

use crate::engines::ChannelBatches;
use crate::{
    ChannelScheduler, CommandTrace, MemoryError, MemoryGeometry, Residency, ResidencyPolicy,
    TimedCommand,
};

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
    /// Cycle the controller last went idle.
    pub busy_until: Cycles,
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
    /// Cycle the pruning vector arrived on chip (compute on reused
    /// keys can bootstrap here — the KIG path).
    pub pruning_ready: Cycles,
    /// Cycle the first fetched vector arrived (compute on fetched keys
    /// can start).
    pub first_data: Option<Cycles>,
    /// Cycle every fetch completed.
    pub finish: Cycles,
}

/// The memory controller: one on-chip residency table in the frontend
/// plus one scheduler per channel.
///
/// A query allocates nothing once the controller has seen one as long:
/// the kept list, the per-channel fetch lists and (when recording) the
/// command trace are scratch it reuses.
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
    schedulers: Vec<ChannelScheduler>,
    /// Keys currently resident on chip (the per-CORELET look-up
    /// tables of §VI): what a kept key misses here is fetched, what
    /// it finds is reused — also a key that left the kept set for a
    /// query and returns later. Unbounded, so nothing evicts; the
    /// capacity argument is the one thing the figure drivers set
    /// differently.
    residency: Residency,
    /// Length of this head's pruning vectors, fixed by its first query.
    keys: Option<usize>,
    /// Per-query scratch: the kept key indices, then the fetched ones
    /// addressed and split by channel.
    kept: Vec<usize>,
    batches: ChannelBatches,
    /// The last query's command trace (filled only when recording).
    commands: CommandTrace,
    stats: MemoryStats,
    now: Cycles,
    record_traces: bool,
    /// CopyQ beats per query (query MSBs over the bus).
    copyq_beats: usize,
}

impl MemoryController {
    /// Creates a controller over the given geometry and timing.
    ///
    /// # Errors
    ///
    /// Propagates geometry/timing validation errors.
    pub fn new(geometry: MemoryGeometry, timing: TimingParams) -> Result<Self, MemoryError> {
        geometry.validate()?;
        let schedulers = (0..geometry.channels)
            .map(|ch| ChannelScheduler::new(ch, geometry.banks_per_channel, timing))
            .collect::<Result<_, _>>()?;
        Ok(MemoryController {
            geometry,
            schedulers,
            residency: Residency::new(usize::MAX, ResidencyPolicy::SldPinned),
            keys: None,
            kept: Vec::new(),
            batches: ChannelBatches::default(),
            commands: CommandTrace::new(),
            stats: MemoryStats::default(),
            now: Cycles::ZERO,
            record_traces: false,
            copyq_beats: 2,
        })
    }

    /// Enables per-query command-trace recording (tests, debugging).
    pub fn set_trace_recording(&mut self, on: bool) {
        self.record_traces = on;
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

    /// The last query's full command trace, in issue order per channel;
    /// empty unless trace recording is on.
    pub fn commands(&self) -> &[TimedCommand] {
        &self.commands
    }

    /// Empties the residency table (new head: on-chip buffers
    /// invalid, and its pruning vectors may have another length).
    pub fn start_new_head(&mut self) {
        self.residency.clear();
        self.keys = None;
    }

    /// Restores the controller to its freshly-constructed state —
    /// cold schedulers, empty residency table, zeroed statistics
    /// and cycle counters — reusing every allocation. A controller
    /// reset this way behaves bit-identically to a new one over the
    /// same geometry and timing; the serving engine uses this to run
    /// an unbounded stream of heads through one controller, and a
    /// decode session calls it before each step so per-step statistics
    /// match a fresh-controller oracle exactly.
    pub fn reset_cold(&mut self) {
        for sched in &mut self.schedulers {
            sched.reset_cold();
        }
        self.start_new_head();
        self.stats = MemoryStats::default();
        self.now = Cycles::ZERO;
    }

    /// Runs the full per-query flow: thresholding handshake,
    /// residency look-up, per-channel address generation and backend
    /// fetch scheduling.
    ///
    /// `pruned[j] == true` means key `j` was pruned by the in-memory
    /// comparators.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::LengthMismatch`] if the vector length
    /// changes within a head; propagates addressing and timing errors.
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
        self.commands.clear();
        let mut trace = self.record_traces.then_some(&mut self.commands);
        let mut pruning_ready = self.now;
        for sched in &mut self.schedulers {
            let done =
                sched.schedule_thresholding(self.copyq_beats, self.now, trace.as_deref_mut());
            pruning_ready = pruning_ready.max(done);
            self.stats.copyq_commands += self.copyq_beats as u64;
            self.stats.readp_commands += 1;
        }
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

        // 3. Per-channel address generation (the MRGs), then backend
        // scheduling of each channel's selective fetches.
        let missed = self.residency.missed();
        self.batches.split(&self.geometry, missed);
        let mut first_data: Option<Cycles> = None;
        let mut finish = pruning_ready;
        for (sched, batch) in self.schedulers.iter_mut().zip(self.batches.iter()) {
            if batch.is_empty() {
                continue;
            }
            let r = sched.schedule_fetches(
                batch,
                pruning_ready,
                self.geometry.bursts_per_fetch,
                trace.as_deref_mut(),
            )?;
            self.stats.fetched_vectors += batch.len() as u64;
            self.stats.bytes_fetched += (batch.len() * self.geometry.bytes_per_fetch) as u64;
            self.stats.row_hits += r.row_hits;
            self.stats.row_misses += r.row_misses;
            finish = finish.max(r.finish);
            if let Some(fd) = r.first_data {
                first_data = Some(first_data.map_or(fd, |x| x.min(fd)));
            }
        }

        let (fetched, reused) = (missed.len(), self.residency.reused().len());
        self.stats.reused_vectors += reused as u64;
        self.now = finish;
        self.stats.busy_until = finish;

        Ok(QueryOutcome {
            fetched,
            reused,
            pruning_ready,
            first_data,
            finish,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryCommand, TimingChecker};
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
        // Dirty the controller: queries, open rows, advanced cycles.
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
        assert!(o.first_data.unwrap() >= o.pruning_ready);
        assert!(o.finish >= o.first_data.unwrap());
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
        assert_eq!(o.first_data, None);
        assert_eq!(mc.stats().bytes_fetched, before, "no new bytes moved");
        // Still pays the thresholding handshake.
        assert!(o.finish >= o.pruning_ready);
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
    fn recorded_traces_are_globally_legal_per_channel() {
        let mut mc = controller();
        mc.set_trace_recording(true);
        mc.process_query(&keep(64, &(0..24).collect::<Vec<_>>()))
            .unwrap();
        let first = mc.commands().to_vec();
        mc.process_query(&keep(64, &(8..40).collect::<Vec<_>>()))
            .unwrap();
        // Replay both traces in per-channel order through fresh checkers.
        let g = mc.geometry();
        for ch in 0..g.channels {
            let mut checker =
                TimingChecker::new(g.banks_per_channel, TimingParams::default()).unwrap();
            let mut cmds: Vec<_> = first
                .iter()
                .chain(mc.commands())
                .filter(|c| c.channel == ch)
                .copied()
                .collect();
            cmds.sort_by_key(|c| c.at);
            for c in &cmds {
                checker
                    .check_and_apply(c.command, c.at)
                    .unwrap_or_else(|e| panic!("channel {ch}: {e}"));
            }
        }
    }

    #[test]
    fn sprint_commands_are_present_in_trace() {
        let mut mc = controller();
        mc.set_trace_recording(true);
        mc.process_query(&keep(16, &[0])).unwrap();
        let trace = mc.commands();
        let copyq = trace
            .iter()
            .filter(|c| matches!(c.command, MemoryCommand::CopyQ { .. }))
            .count();
        let readp = trace
            .iter()
            .filter(|c| matches!(c.command, MemoryCommand::ReadP))
            .count();
        let g = mc.geometry();
        assert_eq!(copyq, 2 * g.channels);
        assert_eq!(readp, g.channels);
    }

    #[test]
    fn query_time_advances_monotonically() {
        let mut mc = controller();
        let o1 = mc.process_query(&keep(32, &[0, 1, 2])).unwrap();
        let o2 = mc.process_query(&keep(32, &[3, 4, 5])).unwrap();
        assert!(o2.pruning_ready > o1.finish.saturating_sub(sprint_energy::Cycles::new(1)));
        assert!(o2.finish >= o1.finish);
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
