//! The SPRINT memory controller frontend (§V-B/C).
//!
//! Orchestrates, per query: the in-memory thresholding handshake
//! (`CopyQ`/`ReadP`), the SLD split of the returned pruning vector,
//! per-channel MRG address generation, and backend scheduling of the
//! selective fetches. Accumulates the statistics the §VII performance
//! simulator consumes.

use std::collections::HashSet;

use sprint_energy::{Cycles, TimingParams};

use crate::{
    ChannelScheduler, CommandTrace, MemoryError, MemoryGeometry, MemoryRequestGenerator, SldEngine,
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

/// Per-query outcome of the threshold-and-fetch flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Keys fetched from main memory (ascending).
    pub fetched_keys: Vec<usize>,
    /// Keys reused from the on-chip K buffer (ascending).
    pub reused_keys: Vec<usize>,
    /// Cycle the pruning vector arrived on chip (compute on reused
    /// keys can bootstrap here — the KIG path).
    pub pruning_ready: Cycles,
    /// Cycle the first fetched vector arrived (compute on fetched keys
    /// can start).
    pub first_data: Option<Cycles>,
    /// Cycle every fetch completed.
    pub finish: Cycles,
    /// The full command trace (only when trace recording is enabled).
    pub commands: Option<CommandTrace>,
}

/// The memory controller: one SLD frontend plus one scheduler and MRG
/// per channel.
///
/// # Example
///
/// ```
/// use sprint_memory::{MemoryController, MemoryGeometry};
/// use sprint_energy::TimingParams;
///
/// # fn main() -> Result<(), sprint_memory::MemoryError> {
/// let mut mc = MemoryController::new(MemoryGeometry::default(), TimingParams::default())?;
/// let o1 = mc.process_query(&[false, false, true, true])?;
/// let o2 = mc.process_query(&[false, true, false, true])?;
/// assert_eq!(o2.reused_keys, vec![0], "key 0 stays on chip");
/// assert_eq!(o2.fetched_keys, vec![2]);
/// # drop(o1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemoryController {
    geometry: MemoryGeometry,
    sld: SldEngine,
    schedulers: Vec<ChannelScheduler>,
    mrgs: Vec<MemoryRequestGenerator>,
    /// Keys currently resident on chip (the per-CORELET look-up
    /// tables of §VI). The SLD vector is the fast single-query-window
    /// approximation; this table catches keys that leave the kept set
    /// for a query and return later, so they are not refetched.
    /// Unbounded — it fetches and reuses exactly what an SLD-pinned
    /// [`crate::Residency`] of unlimited capacity does
    /// (`tests/tests/model_cross_validation.rs`), and nothing evicts.
    resident: HashSet<usize>,
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
        let mut schedulers = Vec::with_capacity(geometry.channels);
        let mut mrgs = Vec::with_capacity(geometry.channels);
        for ch in 0..geometry.channels {
            schedulers.push(ChannelScheduler::new(
                ch,
                geometry.banks_per_channel,
                timing,
            )?);
            mrgs.push(MemoryRequestGenerator::new(ch, geometry)?);
        }
        Ok(MemoryController {
            geometry,
            sld: SldEngine::new(),
            schedulers,
            mrgs,
            resident: HashSet::new(),
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

    /// Resets the SLD history and residency tables (new head: on-chip
    /// buffers invalid).
    pub fn start_new_head(&mut self) {
        self.sld.reset();
        self.resident.clear();
    }

    /// Restores the controller to its freshly-constructed state —
    /// cold schedulers, empty SLD/residency tables, zeroed statistics
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
        self.sld.reset();
        self.resident.clear();
        self.stats = MemoryStats::default();
        self.now = Cycles::ZERO;
    }

    /// Runs the full per-query flow: thresholding handshake, SLD
    /// split, MRG address generation and backend fetch scheduling.
    ///
    /// `pruned[j] == true` means key `j` was pruned by the in-memory
    /// comparators.
    ///
    /// # Errors
    ///
    /// Propagates SLD length, addressing and timing errors.
    pub fn process_query(&mut self, pruned: &[bool]) -> Result<QueryOutcome, MemoryError> {
        // 1. Thresholding handshake on every channel holding K MSBs.
        let mut trace = self.record_traces.then(CommandTrace::new);
        let mut pruning_ready = self.now;
        for sched in &mut self.schedulers {
            let (done, t) = sched.schedule_thresholding(self.copyq_beats, self.now)?;
            pruning_ready = pruning_ready.max(done);
            self.stats.copyq_commands += self.copyq_beats as u64;
            self.stats.readp_commands += 1;
            if let Some(tr) = trace.as_mut() {
                tr.extend(t);
            }
        }
        self.stats.queries += 1;

        // 2. Frontend split, then residency filtering: the SLD vector
        // flags keys absent from the *previous* kept set; the look-up
        // tables suppress requests for keys still resident from older
        // queries.
        let mut split = self.sld.process(pruned)?;
        for (j, req) in split.memory_requests.iter_mut().enumerate() {
            if *req && self.resident.contains(&j) {
                *req = false;
                split.locality_hits[j] = true;
            }
        }
        for (j, &req) in split.memory_requests.iter().enumerate() {
            if req {
                self.resident.insert(j);
            }
        }

        // 3. Per-channel MRG + backend scheduling.
        let mut first_data: Option<Cycles> = None;
        let mut finish = pruning_ready;
        for (sched, mrg) in self.schedulers.iter_mut().zip(&self.mrgs) {
            let fetches = mrg.generate(&split.memory_requests);
            if fetches.is_empty() {
                continue;
            }
            let r =
                sched.schedule_fetches(&fetches, pruning_ready, self.geometry.bursts_per_fetch)?;
            self.stats.fetched_vectors += fetches.len() as u64;
            self.stats.bytes_fetched += (fetches.len() * self.geometry.bytes_per_fetch) as u64;
            self.stats.row_hits += r.row_hits;
            self.stats.row_misses += r.row_misses;
            finish = finish.max(r.finish);
            if let Some(fd) = r.first_data {
                first_data = Some(first_data.map_or(fd, |x| x.min(fd)));
            }
            if let Some(tr) = trace.as_mut() {
                tr.extend(r.commands);
            }
        }

        let reused_keys = split.hit_indices();
        self.stats.reused_vectors += reused_keys.len() as u64;
        self.now = finish;
        self.stats.busy_until = finish;

        Ok(QueryOutcome {
            fetched_keys: split.request_indices(),
            reused_keys,
            pruning_ready,
            first_data,
            finish,
            commands: trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryCommand, TimingChecker};

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
        assert_eq!(o.fetched_keys, vec![0, 3, 17, 31]);
        assert!(o.reused_keys.is_empty());
        assert!(o.first_data.unwrap() >= o.pruning_ready);
        assert!(o.finish >= o.first_data.unwrap());
    }

    #[test]
    fn adjacent_query_reuses_overlap() {
        let mut mc = controller();
        mc.process_query(&keep(32, &[0, 3, 17, 31])).unwrap();
        let o = mc.process_query(&keep(32, &[0, 3, 18, 31])).unwrap();
        assert_eq!(o.fetched_keys, vec![18]);
        assert_eq!(o.reused_keys, vec![0, 3, 31]);
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
        assert!(o.fetched_keys.is_empty());
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
        let o = mc.process_query(&mask).unwrap();
        assert_eq!(o.fetched_keys, vec![1, 2], "cold again after head switch");
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
        let o1 = mc
            .process_query(&keep(64, &(0..24).collect::<Vec<_>>()))
            .unwrap();
        let o2 = mc
            .process_query(&keep(64, &(8..40).collect::<Vec<_>>()))
            .unwrap();
        // Replay both traces in per-channel order through fresh checkers.
        let g = mc.geometry();
        for ch in 0..g.channels {
            let mut checker =
                TimingChecker::new(g.banks_per_channel, TimingParams::default()).unwrap();
            let mut cmds: Vec<_> = o1
                .commands
                .as_ref()
                .unwrap()
                .iter()
                .chain(o2.commands.as_ref().unwrap().iter())
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
        let o = mc.process_query(&keep(16, &[0])).unwrap();
        let trace = o.commands.unwrap();
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
        assert!(mc.process_query(&keep(17, &[0])).is_err());
    }
}
