//! Memory commands, including the two SPRINT additions (§V-C).

use sprint_energy::Cycles;

/// One memory command as issued by the backend engine.
///
/// `CopyQ` and `ReadP` are the paper's additions: `CopyQ` moves query
/// MSB elements into the in-memory query buffer (with a start bit on
/// the final beat to trigger thresholding) and `ReadP` reads the
/// resulting binary pruning vector out of the bank row buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryCommand {
    /// Activate `row` in `bank` (moves the row into the row buffer).
    Activate {
        /// Target bank.
        bank: usize,
        /// Target row.
        row: usize,
    },
    /// Precharge `bank` (closes its open row).
    Precharge {
        /// Target bank.
        bank: usize,
    },
    /// Column read from the open row of `bank`.
    Read {
        /// Target bank.
        bank: usize,
        /// Vector slot within the open row.
        slot: usize,
    },
    /// Column write into the open row of `bank`.
    Write {
        /// Target bank.
        bank: usize,
        /// Vector slot within the open row.
        slot: usize,
    },
    /// Copy a beat of query MSBs into the in-memory query buffer.
    /// `start` is set on the final beat and triggers thresholding.
    /// Works against an isolated buffer: needs neither tRP nor tRCD,
    /// but occupies the data bus for tCL.
    CopyQ {
        /// Whether this beat starts the in-memory computation.
        start: bool,
    },
    /// Read the binary pruning vector produced by in-memory
    /// thresholding. Follows read-like timing, plus the tAxTh gap
    /// after the triggering `CopyQ`.
    ReadP,
}

impl MemoryCommand {
    /// Whether this command occupies the shared data bus.
    pub fn uses_data_bus(&self) -> bool {
        matches!(
            self,
            MemoryCommand::Read { .. }
                | MemoryCommand::Write { .. }
                | MemoryCommand::CopyQ { .. }
                | MemoryCommand::ReadP
        )
    }

    /// Whether this command is one of SPRINT's additions.
    pub fn is_sprint_extension(&self) -> bool {
        matches!(self, MemoryCommand::CopyQ { .. } | MemoryCommand::ReadP)
    }
}

/// A command stamped with its issue cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedCommand {
    /// Issue cycle.
    pub at: Cycles,
    /// Channel the command was issued on.
    pub channel: usize,
    /// The command.
    pub command: MemoryCommand,
}

/// An ordered command trace (ascending per channel).
pub type CommandTrace = Vec<TimedCommand>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_usage_classification() {
        assert!(MemoryCommand::Read { bank: 0, slot: 0 }.uses_data_bus());
        assert!(MemoryCommand::CopyQ { start: true }.uses_data_bus());
        assert!(MemoryCommand::ReadP.uses_data_bus());
        assert!(!MemoryCommand::Activate { bank: 0, row: 0 }.uses_data_bus());
        assert!(!MemoryCommand::Precharge { bank: 0 }.uses_data_bus());
    }

    #[test]
    fn sprint_extensions_are_flagged() {
        assert!(MemoryCommand::CopyQ { start: false }.is_sprint_extension());
        assert!(MemoryCommand::ReadP.is_sprint_extension());
        assert!(!MemoryCommand::Read { bank: 0, slot: 0 }.is_sprint_extension());
    }
}
