//! The crate error type.

use std::error::Error;
use std::fmt;

/// Errors produced by the memory subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryError {
    /// Geometry parameter out of range.
    InvalidGeometry {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: usize,
    },
    /// Timing parameter set failed validation.
    InvalidTiming(String),
    /// A key or channel index outside the geometry.
    AddressOutOfRange {
        /// What was addressed.
        what: &'static str,
        /// Offending index.
        index: usize,
        /// Exclusive bound.
        bound: usize,
    },
    /// Vector length mismatch (pruning vectors across queries).
    LengthMismatch {
        /// What was compared.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Found length.
        found: usize,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::InvalidGeometry { name, value } => {
                write!(f, "invalid memory geometry: {name} = {value}")
            }
            MemoryError::InvalidTiming(msg) => write!(f, "invalid timing parameters: {msg}"),
            MemoryError::AddressOutOfRange { what, index, bound } => {
                write!(f, "{what} index {index} out of range (< {bound})")
            }
            MemoryError::LengthMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what} has length {found}, expected {expected}"),
        }
    }
}

impl Error for MemoryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<MemoryError>();
    }
}
