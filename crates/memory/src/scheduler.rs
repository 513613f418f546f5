//! The backend engine: per-channel command scheduling (§V-B).
//!
//! Implements an FR-FCFS-flavoured policy over one query's fetch
//! batch: requests are grouped by (bank, row) so row-buffer hits are
//! served together, groups are served in arrival order, and every
//! command is placed at its earliest legal cycle by the
//! [`TimingChecker`] — making the emitted trace legal by construction.

use sprint_energy::{Cycles, TimingParams};

use crate::{CommandTrace, KeyAddress, MemoryCommand, MemoryError, TimedCommand, TimingChecker};

/// The outcome of scheduling one batch of fetches on one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleResult {
    /// Cycle the first fetched vector is fully on the bus (the
    /// accelerator can start computing then).
    pub first_data: Option<Cycles>,
    /// Cycle the last data burst completes.
    pub finish: Cycles,
    /// Row-buffer hits (column accesses to an already-open row).
    pub row_hits: u64,
    /// Row-buffer misses (needed a precharge and/or activate).
    pub row_misses: u64,
    /// The issued commands, stamped with cycles.
    pub commands: CommandTrace,
}

/// Scheduler for a single memory channel.
///
/// # Example
///
/// ```
/// use sprint_energy::{Cycles, TimingParams};
/// use sprint_memory::{ChannelScheduler, KeyAddress, MemoryGeometry};
///
/// # fn main() -> Result<(), sprint_memory::MemoryError> {
/// let g = MemoryGeometry::default();
/// let mut sched = ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default())?;
/// let fetches = vec![
///     KeyAddress { key: 0, location: g.key_location(0)? },
///     KeyAddress { key: 16, location: g.key_location(16)? },
/// ];
/// let result = sched.schedule_fetches(&fetches, Cycles::ZERO, g.bursts_per_fetch)?;
/// assert_eq!(result.row_hits + result.row_misses, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChannelScheduler {
    channel: usize,
    checker: TimingChecker,
    timing: TimingParams,
    /// Monotonic issue pointer: the command bus takes one command per
    /// cycle.
    next_issue: Cycles,
}

impl ChannelScheduler {
    /// Creates a scheduler for `channel` with `banks` banks.
    ///
    /// # Errors
    ///
    /// Propagates [`TimingChecker::new`] validation errors.
    pub fn new(channel: usize, banks: usize, timing: TimingParams) -> Result<Self, MemoryError> {
        Ok(ChannelScheduler {
            channel,
            checker: TimingChecker::new(banks, timing)?,
            timing,
            next_issue: Cycles::ZERO,
        })
    }

    /// The channel index.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Restores the scheduler to its freshly-constructed state (cold
    /// timing checker, issue pointer at cycle zero) without
    /// revalidating or reallocating anything.
    pub fn reset_cold(&mut self) {
        self.checker.reset_cold();
        self.next_issue = Cycles::ZERO;
    }

    /// Read-only view of the timing state (open rows etc.).
    pub fn checker(&self) -> &TimingChecker {
        &self.checker
    }

    fn issue(
        &mut self,
        command: MemoryCommand,
        not_before: Cycles,
        trace: &mut CommandTrace,
    ) -> Result<Cycles, MemoryError> {
        let floor = self.next_issue.max(not_before);
        let at = self.checker.issue_at_earliest(command, floor)?;
        self.next_issue = at + Cycles::new(1);
        trace.push(TimedCommand {
            at,
            channel: self.channel,
            command,
        });
        Ok(at)
    }

    /// Performs the in-memory thresholding handshake on this channel:
    /// `CopyQ` beats for the query MSBs (the final one carrying the
    /// start bit) followed by `ReadP` for the pruning vector.
    ///
    /// Returns the cycle the pruning vector is available on chip.
    ///
    /// # Errors
    ///
    /// Propagates timing errors.
    pub fn schedule_thresholding(
        &mut self,
        copyq_beats: usize,
        not_before: Cycles,
    ) -> Result<(Cycles, CommandTrace), MemoryError> {
        let timing = self.timing;
        let mut trace = CommandTrace::new();
        let beats = copyq_beats.max(1);
        let mut last = not_before;
        for beat in 0..beats {
            let start = beat + 1 == beats;
            last = self.issue(MemoryCommand::CopyQ { start }, last, &mut trace)?;
        }
        let readp_at = self.issue(MemoryCommand::ReadP, last, &mut trace)?;
        // Pruning vector lands after the read-like data phase.
        let done = readp_at + timing.t_cl + timing.t_burst;
        Ok((done, trace))
    }

    /// Schedules one query's fetch batch, FR-FCFS style.
    ///
    /// # Errors
    ///
    /// Propagates timing/addressing errors.
    pub fn schedule_fetches(
        &mut self,
        fetches: &[KeyAddress],
        not_before: Cycles,
        bursts_per_fetch: usize,
    ) -> Result<ScheduleResult, MemoryError> {
        let timing = self.timing;
        let mut trace = CommandTrace::new();
        let mut row_hits = 0u64;
        let mut row_misses = 0u64;
        let mut first_data: Option<Cycles> = None;
        let mut finish = self.next_issue.max(not_before);

        // FR-FCFS-lite: group by (bank, row), serve groups in arrival
        // order so open-row requests batch together.
        let mut groups: Vec<((usize, usize), Vec<&KeyAddress>)> = Vec::new();
        for f in fetches {
            let key = (f.location.bank, f.location.row);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(f),
                None => groups.push((key, vec![f])),
            }
        }

        for ((bank, row), group) in groups {
            let open = self.checker.open_row(bank);
            if open != Some(row) {
                if open.is_some() {
                    self.issue(MemoryCommand::Precharge { bank }, not_before, &mut trace)?;
                }
                self.issue(
                    MemoryCommand::Activate { bank, row },
                    not_before,
                    &mut trace,
                )?;
                // The access that opened the row is the miss; the rest
                // of the group rides the now-open row buffer.
                row_misses += 1;
                row_hits += group.len() as u64 - 1;
            } else {
                row_hits += group.len() as u64;
            }
            for f in group {
                for burst in 0..bursts_per_fetch.max(1) {
                    let at = self.issue(
                        MemoryCommand::Read {
                            bank,
                            slot: f.location.slot * bursts_per_fetch.max(1) + burst,
                        },
                        not_before,
                        &mut trace,
                    )?;
                    let data_done = at + timing.t_cl + timing.t_burst;
                    finish = finish.max(data_done);
                    if burst + 1 == bursts_per_fetch.max(1) {
                        first_data = Some(first_data.map_or(data_done, |f0| f0.min(data_done)));
                    }
                }
            }
        }

        Ok(ScheduleResult {
            first_data,
            finish,
            row_hits,
            row_misses,
            commands: trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryGeometry;

    fn geometry() -> MemoryGeometry {
        MemoryGeometry::default()
    }

    fn addr(g: &MemoryGeometry, key: usize) -> KeyAddress {
        KeyAddress {
            key,
            location: g.key_location(key).unwrap(),
        }
    }

    /// Replays a trace through a fresh checker: proves legality.
    fn audit(trace: &CommandTrace, banks: usize) {
        let mut checker = TimingChecker::new(banks, TimingParams::default()).unwrap();
        for cmd in trace {
            checker
                .check_and_apply(cmd.command, cmd.at)
                .unwrap_or_else(|e| panic!("illegal command {cmd:?}: {e}"));
        }
    }

    #[test]
    fn same_row_fetches_hit_the_row_buffer() {
        let g = geometry();
        let mut sched =
            ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default()).unwrap();
        // Keys 0, 16, 32 are consecutive slots of one row on channel 0.
        let fetches: Vec<KeyAddress> = [0usize, 16, 32].iter().map(|&k| addr(&g, k)).collect();
        let r = sched
            .schedule_fetches(&fetches, Cycles::ZERO, g.bursts_per_fetch)
            .unwrap();
        assert_eq!(r.row_misses, 1, "one activate opens the row");
        assert_eq!(r.row_hits, 2, "the rest of the group rides the open row");
        // Re-fetch immediately: now the row is open.
        let r2 = sched
            .schedule_fetches(&fetches, r.finish, g.bursts_per_fetch)
            .unwrap();
        assert_eq!(r2.row_hits, 3);
        assert_eq!(r2.row_misses, 0);
        audit(&r.commands, g.banks_per_channel);
    }

    #[test]
    fn scheduled_traces_are_timing_legal() {
        let g = geometry();
        let mut sched =
            ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default()).unwrap();
        // A spread of keys across banks and rows of channel 0.
        let keys: Vec<usize> = (0..40).map(|i| i * 16 * 7).collect();
        let fetches: Vec<KeyAddress> = keys
            .iter()
            .map(|&k| addr(&g, k % g.capacity_vectors()))
            .collect();
        let mut full_trace = CommandTrace::new();
        let r = sched
            .schedule_fetches(&fetches, Cycles::ZERO, g.bursts_per_fetch)
            .unwrap();
        full_trace.extend(r.commands.iter().copied());
        audit(&full_trace, g.banks_per_channel);
        assert!(r.finish > Cycles::ZERO);
        assert!(r.first_data.unwrap() <= r.finish);
    }

    #[test]
    fn thresholding_handshake_orders_copyq_before_readp() {
        let g = geometry();
        let mut sched =
            ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default()).unwrap();
        let (done, trace) = sched.schedule_thresholding(2, Cycles::ZERO).unwrap();
        audit(&trace, g.banks_per_channel);
        assert_eq!(trace.len(), 3, "2 CopyQ + 1 ReadP");
        assert!(matches!(
            trace[0].command,
            MemoryCommand::CopyQ { start: false }
        ));
        assert!(matches!(
            trace[1].command,
            MemoryCommand::CopyQ { start: true }
        ));
        assert!(matches!(trace[2].command, MemoryCommand::ReadP));
        let t = TimingParams::default();
        assert!(trace[2].at >= trace[1].at + t.t_cl + t.t_ax_th);
        assert!(done > trace[2].at);
    }

    #[test]
    fn fetches_after_thresholding_remain_legal() {
        let g = geometry();
        let mut sched =
            ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default()).unwrap();
        let (done, mut trace) = sched.schedule_thresholding(2, Cycles::ZERO).unwrap();
        let fetches: Vec<KeyAddress> = [0usize, 16].iter().map(|&k| addr(&g, k)).collect();
        let r = sched
            .schedule_fetches(&fetches, done, g.bursts_per_fetch)
            .unwrap();
        trace.extend(r.commands.iter().copied());
        audit(&trace, g.banks_per_channel);
        assert!(r.first_data.unwrap() >= done);
    }

    #[test]
    fn empty_fetch_batch_is_a_noop() {
        let g = geometry();
        let mut sched =
            ChannelScheduler::new(3, g.banks_per_channel, TimingParams::default()).unwrap();
        let r = sched
            .schedule_fetches(&[], Cycles::new(10), g.bursts_per_fetch)
            .unwrap();
        assert!(r.commands.is_empty());
        assert_eq!(r.first_data, None);
        assert_eq!(r.row_hits + r.row_misses, 0);
    }

    #[test]
    fn bank_conflict_costs_more_than_row_hits() {
        let g = geometry();
        // Same bank, different rows: forces precharge/activate churn.
        let per_bank_keys = g.channels * g.vectors_per_row * g.banks_per_channel;
        let conflict_keys = [0usize, per_bank_keys, 2 * per_bank_keys];
        let hit_keys = [0usize, 16, 32];

        let mut s1 =
            ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default()).unwrap();
        let conflict: Vec<KeyAddress> = conflict_keys.iter().map(|&k| addr(&g, k)).collect();
        for a in &conflict {
            assert_eq!(a.location.bank, 0, "test setup: same bank");
        }
        let rc = s1
            .schedule_fetches(&conflict, Cycles::ZERO, g.bursts_per_fetch)
            .unwrap();

        let mut s2 =
            ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default()).unwrap();
        let hits: Vec<KeyAddress> = hit_keys.iter().map(|&k| addr(&g, k)).collect();
        let rh = s2
            .schedule_fetches(&hits, Cycles::ZERO, g.bursts_per_fetch)
            .unwrap();

        assert!(
            rc.finish > rh.finish,
            "row conflicts ({}) must finish later than row hits ({})",
            rc.finish,
            rh.finish
        );
    }
}
