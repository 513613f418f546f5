//! Per-channel timing legality (§V-C "Memory commands and timing
//! considerations").
//!
//! The checker doubles as a generator: the scheduler asks it for the
//! earliest legal issue cycle of each command, so generated traces are
//! legal by construction, and tests replay traces through a fresh
//! checker to prove it (DESIGN.md invariant 5).

use std::collections::VecDeque;

use sprint_energy::{Cycles, TimingParams};

use crate::{MemoryCommand, MemoryError};

/// How many activations may fall within one `tFAW` window.
const FAW_ACTIVATIONS: usize = 4;

#[derive(Debug, Clone, Default)]
struct BankState {
    open_row: Option<usize>,
    /// Earliest cycle a column access may follow the last activate.
    rcd_ready: Cycles,
    /// Earliest cycle an activate may follow the last precharge.
    act_ready: Cycles,
}

/// Tracks one channel's timing state and validates or places commands.
///
/// # Example
///
/// ```
/// use sprint_energy::{Cycles, TimingParams};
/// use sprint_memory::{MemoryCommand, TimingChecker};
///
/// # fn main() -> Result<(), sprint_memory::MemoryError> {
/// let mut tc = TimingChecker::new(8, TimingParams::default())?;
/// let act = MemoryCommand::Activate { bank: 0, row: 3 };
/// let at = tc.issue_at_earliest(act, Cycles::ZERO)?;
/// let rd = MemoryCommand::Read { bank: 0, slot: 0 };
/// let rd_at = tc.issue_at_earliest(rd, at)?;
/// assert!(rd_at >= at + TimingParams::default().t_rcd);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimingChecker {
    timing: TimingParams,
    banks: Vec<BankState>,
    /// Issue cycles of recent activations (for tRRD / tFAW).
    act_history: VecDeque<Cycles>,
    /// First cycle at which the shared data bus is free again.
    bus_free_at: Cycles,
    /// Pending in-memory thresholding completion, if any.
    threshold_ready: Option<Cycles>,
    /// Issue cycle of the last command (monotonicity check).
    last_issue: Cycles,
}

impl TimingChecker {
    /// Creates a checker for a channel with `banks` banks.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::InvalidTiming`] for invalid parameters or
    /// [`MemoryError::InvalidGeometry`] for zero banks.
    pub fn new(banks: usize, timing: TimingParams) -> Result<Self, MemoryError> {
        if banks == 0 {
            return Err(MemoryError::InvalidGeometry {
                name: "banks",
                value: 0,
            });
        }
        timing.validate().map_err(MemoryError::InvalidTiming)?;
        Ok(TimingChecker {
            timing,
            banks: vec![BankState::default(); banks],
            act_history: VecDeque::new(),
            bus_free_at: Cycles::ZERO,
            threshold_ready: None,
            last_issue: Cycles::ZERO,
        })
    }

    /// Restores the checker to its freshly-constructed state (all rows
    /// closed, bus free, no thresholding in flight, cycle counters at
    /// zero), reusing the bank-state allocation. Behaviour afterwards
    /// is bit-identical to a new checker over the same parameters.
    pub fn reset_cold(&mut self) {
        self.banks.fill(BankState::default());
        self.act_history.clear();
        self.bus_free_at = Cycles::ZERO;
        self.threshold_ready = None;
        self.last_issue = Cycles::ZERO;
    }

    /// The open row of `bank`, if any.
    pub fn open_row(&self, bank: usize) -> Option<usize> {
        self.banks.get(bank).and_then(|b| b.open_row)
    }

    /// Earliest legal issue cycle for `command`, not before `not_before`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::AddressOutOfRange`] for a bad bank,
    /// [`MemoryError::RowNotOpen`] for a column access to a closed or
    /// mismatched row, and [`MemoryError::NoThresholdingInFlight`] for
    /// a `ReadP` with nothing pending.
    pub fn earliest(
        &self,
        command: MemoryCommand,
        not_before: Cycles,
    ) -> Result<Cycles, MemoryError> {
        let t = self.timing;
        match command {
            MemoryCommand::Activate { bank, .. } => {
                let b = self.bank(bank)?;
                let mut at = not_before.max(b.act_ready);
                if let Some(&last) = self.act_history.back() {
                    at = at.max(last + t.t_rrd);
                }
                if self.act_history.len() >= FAW_ACTIVATIONS {
                    let fourth_last = self.act_history[self.act_history.len() - FAW_ACTIVATIONS];
                    at = at.max(fourth_last + t.t_faw);
                }
                Ok(at)
            }
            MemoryCommand::Precharge { bank } => {
                self.bank(bank)?;
                Ok(not_before)
            }
            MemoryCommand::Read { bank, .. } | MemoryCommand::Write { bank, .. } => {
                let b = self.bank(bank)?;
                if b.open_row.is_none() {
                    return Err(MemoryError::RowNotOpen { bank });
                }
                // Data phase [at + tCL, at + tCL + burst) must not
                // overlap the bus.
                let bus_gate = self.bus_free_at.saturating_sub(t.t_cl);
                Ok(not_before.max(b.rcd_ready).max(bus_gate))
            }
            MemoryCommand::CopyQ { .. } => {
                // Occupies the bus immediately for tCL; no row timing.
                Ok(not_before.max(self.bus_free_at))
            }
            MemoryCommand::ReadP => {
                let ready = self
                    .threshold_ready
                    .ok_or(MemoryError::NoThresholdingInFlight)?;
                let bus_gate = self.bus_free_at.saturating_sub(t.t_cl);
                Ok(not_before.max(ready).max(bus_gate))
            }
        }
    }

    /// Issues `command` at the earliest legal cycle ≥ `not_before`,
    /// mutating the channel state, and returns the chosen cycle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimingChecker::earliest`].
    pub fn issue_at_earliest(
        &mut self,
        command: MemoryCommand,
        not_before: Cycles,
    ) -> Result<Cycles, MemoryError> {
        let at = self.earliest(command, not_before)?;
        self.apply(command, at)?;
        Ok(at)
    }

    /// Issues `reads` column reads from the open row of `bank`, each at
    /// its earliest legal cycle ≥ `not_before` and after the one before,
    /// and returns the first one's cycle (for `reads == 0`, where it
    /// would issue; nothing is issued). Past the first, the data bus
    /// is the only gate left (the row is open and `not_before` is
    /// behind), so read `k` issues at `first + k · tBURST`: the train
    /// costs O(1) and leaves the state `reads` single
    /// [`TimingChecker::issue_at_earliest`] calls would.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimingChecker::earliest`] for a `Read`.
    pub fn issue_read_train(
        &mut self,
        bank: usize,
        reads: usize,
        not_before: Cycles,
    ) -> Result<Cycles, MemoryError> {
        let read = MemoryCommand::Read { bank, slot: 0 };
        let first = self.earliest(read, not_before)?;
        if reads > 0 {
            let last = first + self.timing.t_burst * (reads - 1) as u64;
            self.apply(read, last)?;
        }
        Ok(first)
    }

    /// Issues the thresholding handshake — `beats` `CopyQ` beats (at
    /// least one), the last one carrying the start bit, then the
    /// `ReadP` — each at its earliest legal cycle after the one before,
    /// the first not before `not_before`, and returns the first beat's
    /// cycle and the `ReadP`'s. Each beat holds the bus for tCL, so
    /// beat `k` issues at `first + k · tCL`; the `ReadP` then waits out
    /// tAxTh. O(1), and the state is the one single issues would leave.
    /// Neither command touches a bank, so the handshake cannot fail.
    pub fn issue_thresholding(&mut self, beats: usize, not_before: Cycles) -> (Cycles, Cycles) {
        let t = self.timing;
        // `earliest` of a CopyQ, then of the ReadP after the start beat
        // (its bus gate, the last beat's cycle, is already behind).
        let first = not_before.max(self.bus_free_at);
        let last = first + t.t_cl * beats.saturating_sub(1) as u64;
        let readp = (last + Cycles::new(1)).max(last + t.t_cl + t.t_ax_th);
        // What `apply` leaves after the ReadP.
        self.bus_free_at = readp + t.t_cl + t.t_burst;
        self.threshold_ready = None;
        self.last_issue = self.last_issue.max(readp);
        (first, readp)
    }

    /// Validates that issuing `command` at `at` is legal, then applies
    /// it. Used to replay and audit externally produced traces.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::TimingViolation`] when `at` precedes the
    /// earliest legal cycle, plus the addressing errors of
    /// [`TimingChecker::earliest`].
    pub fn check_and_apply(
        &mut self,
        command: MemoryCommand,
        at: Cycles,
    ) -> Result<(), MemoryError> {
        let earliest = self.earliest(command, self.last_issue)?;
        if at < earliest {
            return Err(MemoryError::TimingViolation {
                command,
                issued: at,
                earliest,
                constraint: constraint_name(command),
            });
        }
        self.apply(command, at)
    }

    fn apply(&mut self, command: MemoryCommand, at: Cycles) -> Result<(), MemoryError> {
        let t = self.timing;
        self.last_issue = self.last_issue.max(at);
        match command {
            MemoryCommand::Activate { bank, row } => {
                let b = self.bank_mut(bank)?;
                b.open_row = Some(row);
                b.rcd_ready = at + t.t_rcd;
                self.act_history.push_back(at);
                while self.act_history.len() > FAW_ACTIVATIONS {
                    self.act_history.pop_front();
                }
            }
            MemoryCommand::Precharge { bank } => {
                let b = self.bank_mut(bank)?;
                b.open_row = None;
                b.act_ready = at + t.t_rp;
            }
            MemoryCommand::Read { .. } | MemoryCommand::Write { .. } => {
                self.bus_free_at = at + t.t_cl + t.t_burst;
            }
            MemoryCommand::CopyQ { start } => {
                self.bus_free_at = at + t.t_cl;
                if start {
                    self.threshold_ready = Some(at + t.t_cl + t.t_ax_th);
                }
            }
            MemoryCommand::ReadP => {
                self.bus_free_at = at + t.t_cl + t.t_burst;
                self.threshold_ready = None;
            }
        }
        Ok(())
    }

    fn bank(&self, bank: usize) -> Result<&BankState, MemoryError> {
        self.banks.get(bank).ok_or(MemoryError::AddressOutOfRange {
            what: "bank",
            index: bank,
            bound: self.banks.len(),
        })
    }

    fn bank_mut(&mut self, bank: usize) -> Result<&mut BankState, MemoryError> {
        let bound = self.banks.len();
        self.banks
            .get_mut(bank)
            .ok_or(MemoryError::AddressOutOfRange {
                what: "bank",
                index: bank,
                bound,
            })
    }
}

fn constraint_name(command: MemoryCommand) -> &'static str {
    match command {
        MemoryCommand::Activate { .. } => "tRRD/tFAW/tRP",
        MemoryCommand::Precharge { .. } => "ordering",
        MemoryCommand::Read { .. } | MemoryCommand::Write { .. } => "tRCD/bus",
        MemoryCommand::CopyQ { .. } => "tCL bus occupancy",
        MemoryCommand::ReadP => "tAxTh",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> TimingChecker {
        TimingChecker::new(4, TimingParams::default()).unwrap()
    }

    #[test]
    fn read_requires_open_row() {
        let mut tc = checker();
        let err = tc
            .issue_at_earliest(MemoryCommand::Read { bank: 0, slot: 0 }, Cycles::ZERO)
            .unwrap_err();
        assert_eq!(err, MemoryError::RowNotOpen { bank: 0 });
    }

    #[test]
    fn activate_then_read_honours_trcd() {
        let mut tc = checker();
        let t = TimingParams::default();
        let act = tc
            .issue_at_earliest(MemoryCommand::Activate { bank: 1, row: 9 }, Cycles::ZERO)
            .unwrap();
        let rd = tc
            .issue_at_earliest(MemoryCommand::Read { bank: 1, slot: 2 }, act)
            .unwrap();
        assert!(rd >= act + t.t_rcd);
        assert_eq!(tc.open_row(1), Some(9));
    }

    #[test]
    fn back_to_back_activates_honour_trrd_and_tfaw() {
        let mut tc = checker();
        let t = TimingParams::default();
        let mut acts = Vec::new();
        for bank in 0..4 {
            let at = tc
                .issue_at_earliest(MemoryCommand::Activate { bank, row: 0 }, Cycles::ZERO)
                .unwrap();
            acts.push(at);
        }
        for w in acts.windows(2) {
            assert!(w[1] >= w[0] + t.t_rrd, "tRRD violated: {:?}", acts);
        }
        // A fifth activate must wait out the tFAW window. Reuse bank 0
        // after precharging it.
        tc.issue_at_earliest(MemoryCommand::Precharge { bank: 0 }, acts[3])
            .unwrap();
        let fifth = tc
            .issue_at_earliest(MemoryCommand::Activate { bank: 0, row: 1 }, acts[3])
            .unwrap();
        assert!(fifth >= acts[0] + t.t_faw, "tFAW violated");
    }

    #[test]
    fn precharge_then_activate_honours_trp() {
        let mut tc = checker();
        let t = TimingParams::default();
        let act = tc
            .issue_at_earliest(MemoryCommand::Activate { bank: 0, row: 0 }, Cycles::ZERO)
            .unwrap();
        let pre = tc
            .issue_at_earliest(MemoryCommand::Precharge { bank: 0 }, act + Cycles::new(5))
            .unwrap();
        let act2 = tc
            .issue_at_earliest(MemoryCommand::Activate { bank: 0, row: 1 }, pre)
            .unwrap();
        assert!(act2 >= pre + t.t_rp);
        assert_eq!(tc.open_row(0), Some(1));
    }

    #[test]
    fn reads_serialize_on_the_data_bus() {
        let mut tc = checker();
        let t = TimingParams::default();
        tc.issue_at_earliest(MemoryCommand::Activate { bank: 0, row: 0 }, Cycles::ZERO)
            .unwrap();
        tc.issue_at_earliest(MemoryCommand::Activate { bank: 1, row: 0 }, Cycles::ZERO)
            .unwrap();
        let r0 = tc
            .issue_at_earliest(MemoryCommand::Read { bank: 0, slot: 0 }, Cycles::ZERO)
            .unwrap();
        let r1 = tc
            .issue_at_earliest(MemoryCommand::Read { bank: 1, slot: 0 }, Cycles::ZERO)
            .unwrap();
        assert!(r1 >= r0 + t.t_burst, "data bursts must not overlap");
    }

    #[test]
    fn readp_requires_pending_thresholding() {
        let mut tc = checker();
        assert_eq!(
            tc.issue_at_earliest(MemoryCommand::ReadP, Cycles::ZERO)
                .unwrap_err(),
            MemoryError::NoThresholdingInFlight
        );
    }

    #[test]
    fn readp_waits_for_taxth_after_triggering_copyq() {
        let mut tc = checker();
        let t = TimingParams::default();
        let c0 = tc
            .issue_at_earliest(MemoryCommand::CopyQ { start: false }, Cycles::ZERO)
            .unwrap();
        let c1 = tc
            .issue_at_earliest(MemoryCommand::CopyQ { start: true }, c0)
            .unwrap();
        assert!(c1 >= c0 + t.t_cl, "consecutive CopyQ respect tCL");
        let rp = tc.issue_at_earliest(MemoryCommand::ReadP, c1).unwrap();
        assert!(
            rp >= c1 + t.t_cl + t.t_ax_th,
            "ReadP must wait for analog thresholding"
        );
        // The pending flag clears: another ReadP is illegal.
        assert!(tc.issue_at_earliest(MemoryCommand::ReadP, rp).is_err());
    }

    #[test]
    fn copyq_skips_row_timing() {
        // CopyQ works against an isolated buffer: legal at cycle 0 with
        // no activation anywhere.
        let mut tc = checker();
        let at = tc
            .issue_at_earliest(MemoryCommand::CopyQ { start: true }, Cycles::ZERO)
            .unwrap();
        assert_eq!(at, Cycles::ZERO);
    }

    #[test]
    fn replay_audit_accepts_generated_traces_and_rejects_early_issue() {
        let mut gen = checker();
        let mut trace = Vec::new();
        let act = gen
            .issue_at_earliest(MemoryCommand::Activate { bank: 0, row: 0 }, Cycles::ZERO)
            .unwrap();
        trace.push((MemoryCommand::Activate { bank: 0, row: 0 }, act));
        let rd = gen
            .issue_at_earliest(MemoryCommand::Read { bank: 0, slot: 1 }, act)
            .unwrap();
        trace.push((MemoryCommand::Read { bank: 0, slot: 1 }, rd));

        let mut audit = checker();
        for &(cmd, at) in &trace {
            audit.check_and_apply(cmd, at).unwrap();
        }

        // Issuing the read one cycle early must be flagged.
        let mut audit2 = checker();
        audit2.check_and_apply(trace[0].0, trace[0].1).unwrap();
        let early = trace[1].1.saturating_sub(Cycles::new(1));
        let err = audit2.check_and_apply(trace[1].0, early).unwrap_err();
        assert!(matches!(err, MemoryError::TimingViolation { .. }));
    }

    #[test]
    fn handshake_and_read_train_leave_what_single_issues_leave() {
        let t = TimingParams::default();
        let read = MemoryCommand::Read { bank: 1, slot: 0 };
        for floor in [0, 3, 40, 90].map(Cycles::new) {
            // A busy bus and an open row on both checkers.
            let (mut one, mut closed) = (checker(), checker());
            for tc in [&mut one, &mut closed] {
                tc.issue_at_earliest(MemoryCommand::Activate { bank: 1, row: 2 }, Cycles::ZERO)
                    .unwrap();
                tc.issue_at_earliest(read, Cycles::ZERO).unwrap();
            }
            let step = Cycles::new(1);
            let c0 = one
                .issue_at_earliest(MemoryCommand::CopyQ { start: false }, floor)
                .unwrap();
            let c1 = one
                .issue_at_earliest(MemoryCommand::CopyQ { start: true }, c0 + step)
                .unwrap();
            let readp = one
                .issue_at_earliest(MemoryCommand::ReadP, c1 + step)
                .unwrap();
            assert_eq!(closed.issue_thresholding(2, floor), (c0, readp));
            assert_eq!(
                format!("{one:?}"),
                format!("{closed:?}"),
                "after the handshake"
            );

            let mut at = readp + step;
            let mut reads = Vec::new();
            for _ in 0..5 {
                at = one.issue_at_earliest(read, at).unwrap();
                reads.push(at);
                at += step;
            }
            let first = closed.issue_read_train(1, 5, readp + step).unwrap();
            let train: Vec<Cycles> = (0..5).map(|k| first + t.t_burst * k).collect();
            assert_eq!(reads, train);
            assert_eq!(format!("{one:?}"), format!("{closed:?}"), "after the train");
        }
    }

    #[test]
    fn invalid_construction() {
        assert!(TimingChecker::new(0, TimingParams::default()).is_err());
        let bad = TimingParams {
            t_rcd: Cycles::ZERO,
            ..TimingParams::default()
        };
        assert!(TimingChecker::new(2, bad).is_err());
    }
}
