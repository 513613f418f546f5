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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

/// One (bank, row) group of a fetch batch: the fetches that share a
/// row buffer, served together.
#[derive(Debug, Clone, Copy)]
struct RowGroup {
    bank: usize,
    row: usize,
    fetches: usize,
}

/// Scheduler for a single memory channel.
///
/// Every scheduling call takes an optional [`CommandTrace`] that the
/// issued commands are appended to; without one nothing is recorded
/// and nothing is allocated.
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
/// let mut trace = Vec::new();
/// let result = sched.schedule_fetches(&fetches, Cycles::ZERO, g.bursts_per_fetch, Some(&mut trace))?;
/// assert_eq!(result.row_hits + result.row_misses, 2);
/// assert_eq!(trace.len(), 1 + 2 * g.bursts_per_fetch, "one activate, then the reads");
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
    /// Reused grouping scratch of [`ChannelScheduler::schedule_fetches`].
    groups: Vec<RowGroup>,
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
            groups: Vec::new(),
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
        trace: &mut Option<&mut CommandTrace>,
    ) -> Result<Cycles, MemoryError> {
        let floor = self.next_issue.max(not_before);
        let at = self.checker.issue_at_earliest(command, floor)?;
        self.next_issue = at + Cycles::new(1);
        self.record(trace, at, command);
        Ok(at)
    }

    fn record(&self, trace: &mut Option<&mut CommandTrace>, at: Cycles, command: MemoryCommand) {
        if let Some(trace) = trace {
            trace.push(TimedCommand {
                at,
                channel: self.channel,
                command,
            });
        }
    }

    /// Performs the in-memory thresholding handshake on this channel:
    /// `CopyQ` beats for the query MSBs (the final one carrying the
    /// start bit) followed by `ReadP` for the pruning vector.
    ///
    /// Returns the cycle the pruning vector is available on chip. The
    /// handshake is priced in one step
    /// ([`TimingChecker::issue_thresholding`]) and cannot fail.
    pub fn schedule_thresholding(
        &mut self,
        copyq_beats: usize,
        not_before: Cycles,
        mut trace: Option<&mut CommandTrace>,
    ) -> Cycles {
        let timing = self.timing;
        let beats = copyq_beats.max(1);
        let floor = self.next_issue.max(not_before);
        let (first, readp_at) = self.checker.issue_thresholding(beats, floor);
        self.next_issue = readp_at + Cycles::new(1);
        if trace.is_some() {
            for beat in 0..beats {
                let start = beat + 1 == beats;
                let at = first + timing.t_cl * beat as u64;
                self.record(&mut trace, at, MemoryCommand::CopyQ { start });
            }
            self.record(&mut trace, readp_at, MemoryCommand::ReadP);
        }
        // Pruning vector lands after the read-like data phase.
        readp_at + timing.t_cl + timing.t_burst
    }

    /// Schedules one query's fetch batch, FR-FCFS style.
    ///
    /// A group's reads go out back to back on its open row, so each
    /// group is priced as one read train
    /// ([`TimingChecker::issue_read_train`]): the cost is the batch
    /// length for grouping plus O(1) per group, and the individual
    /// reads are spelled out only into a `trace`.
    ///
    /// # Errors
    ///
    /// Propagates timing/addressing errors.
    pub fn schedule_fetches(
        &mut self,
        fetches: &[KeyAddress],
        not_before: Cycles,
        bursts_per_fetch: usize,
        mut trace: Option<&mut CommandTrace>,
    ) -> Result<ScheduleResult, MemoryError> {
        let timing = self.timing;
        let bursts = bursts_per_fetch.max(1);
        let mut row_hits = 0u64;
        let mut row_misses = 0u64;
        let mut first_data: Option<Cycles> = None;
        let mut finish = self.next_issue.max(not_before);

        // FR-FCFS-lite: group by (bank, row), serve groups in arrival
        // order so open-row requests batch together. An ascending
        // batch (what the controller sends) holds each group as one
        // run, so the search from the back finds it at once.
        self.groups.clear();
        for f in fetches {
            let (bank, row) = (f.location.bank, f.location.row);
            match self
                .groups
                .iter_mut()
                .rev()
                .find(|g| g.bank == bank && g.row == row)
            {
                Some(g) => g.fetches += 1,
                None => self.groups.push(RowGroup {
                    bank,
                    row,
                    fetches: 1,
                }),
            }
        }

        for i in 0..self.groups.len() {
            let RowGroup {
                bank,
                row,
                fetches: n,
            } = self.groups[i];
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
                row_hits += n as u64 - 1;
            } else {
                row_hits += n as u64;
            }
            let floor = self.next_issue.max(not_before);
            let first = self.checker.issue_read_train(bank, n * bursts, floor)?;
            let at = |read: usize| first + timing.t_burst * read as u64;
            let last = at(n * bursts - 1);
            self.next_issue = last + Cycles::new(1);
            finish = finish.max(last + timing.t_cl + timing.t_burst);
            // Reads only grow in time, so the group's first fetch is
            // its first to land.
            let landed = at(bursts - 1) + timing.t_cl + timing.t_burst;
            first_data = Some(first_data.map_or(landed, |f0| f0.min(landed)));
            if trace.is_some() {
                let members = fetches
                    .iter()
                    .filter(|f| f.location.bank == bank && f.location.row == row);
                for (m, f) in members.enumerate() {
                    for burst in 0..bursts {
                        let slot = f.location.slot * bursts + burst;
                        let read = MemoryCommand::Read { bank, slot };
                        self.record(&mut trace, at(m * bursts + burst), read);
                    }
                }
            }
        }

        Ok(ScheduleResult {
            first_data,
            finish,
            row_hits,
            row_misses,
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
        let mut trace = CommandTrace::new();
        let r = sched
            .schedule_fetches(&fetches, Cycles::ZERO, g.bursts_per_fetch, Some(&mut trace))
            .unwrap();
        assert_eq!(r.row_misses, 1, "one activate opens the row");
        assert_eq!(r.row_hits, 2, "the rest of the group rides the open row");
        // Re-fetch immediately: now the row is open.
        let r2 = sched
            .schedule_fetches(&fetches, r.finish, g.bursts_per_fetch, None)
            .unwrap();
        assert_eq!(r2.row_hits, 3);
        assert_eq!(r2.row_misses, 0);
        audit(&trace, g.banks_per_channel);
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
            .schedule_fetches(
                &fetches,
                Cycles::ZERO,
                g.bursts_per_fetch,
                Some(&mut full_trace),
            )
            .unwrap();
        audit(&full_trace, g.banks_per_channel);
        assert!(r.finish > Cycles::ZERO);
        assert!(r.first_data.unwrap() <= r.finish);
    }

    #[test]
    fn thresholding_handshake_orders_copyq_before_readp() {
        let g = geometry();
        let mut sched =
            ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default()).unwrap();
        let mut trace = CommandTrace::new();
        let done = sched.schedule_thresholding(2, Cycles::ZERO, Some(&mut trace));
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
        let mut trace = CommandTrace::new();
        let done = sched.schedule_thresholding(2, Cycles::ZERO, Some(&mut trace));
        let fetches: Vec<KeyAddress> = [0usize, 16].iter().map(|&k| addr(&g, k)).collect();
        let r = sched
            .schedule_fetches(&fetches, done, g.bursts_per_fetch, Some(&mut trace))
            .unwrap();
        audit(&trace, g.banks_per_channel);
        assert!(r.first_data.unwrap() >= done);
    }

    #[test]
    fn empty_fetch_batch_is_a_noop() {
        let g = geometry();
        let mut sched =
            ChannelScheduler::new(3, g.banks_per_channel, TimingParams::default()).unwrap();
        let mut trace = CommandTrace::new();
        let r = sched
            .schedule_fetches(&[], Cycles::new(10), g.bursts_per_fetch, Some(&mut trace))
            .unwrap();
        assert!(trace.is_empty());
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
            .schedule_fetches(&conflict, Cycles::ZERO, g.bursts_per_fetch, None)
            .unwrap();

        let mut s2 =
            ChannelScheduler::new(0, g.banks_per_channel, TimingParams::default()).unwrap();
        let hits: Vec<KeyAddress> = hit_keys.iter().map(|&k| addr(&g, k)).collect();
        let rh = s2
            .schedule_fetches(&hits, Cycles::ZERO, g.bursts_per_fetch, None)
            .unwrap();

        assert!(
            rc.finish > rh.finish,
            "row conflicts ({}) must finish later than row hits ({})",
            rc.finish,
            rh.finish
        );
    }
}
