//! The crate error type.

use std::error::Error;
use std::fmt;

/// Errors produced by the accelerator model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceleratorError {
    /// A configuration value was zero or out of range.
    InvalidConfig {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: usize,
    },
}

impl fmt::Display for AcceleratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceleratorError::InvalidConfig { name, value } => {
                write!(f, "invalid accelerator configuration: {name} = {value}")
            }
        }
    }
}

impl Error for AcceleratorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<AcceleratorError>();
    }
}
