//! The unified engine error type.
//!
//! Every substrate crate exposes its own error enum. [`SprintError`]
//! is the single error the serving API surfaces: one `From` impl per
//! substrate (`AttentionError`, `ReramError`, `MemoryError`), so `?`
//! composes across every layer.

use std::error::Error;
use std::fmt;

use sprint_attention::AttentionError;
use sprint_memory::MemoryError;
use sprint_reram::ReramError;

/// The one error type of the engine API.
///
/// # Example
///
/// ```
/// use sprint_engine::SprintError;
///
/// fn run() -> Result<(), SprintError> {
///     let m = sprint_attention::Matrix::zeros(0, 4); // invalid
///     m.map_err(SprintError::from)?;
///     Ok(())
/// }
/// let err = run().unwrap_err();
/// assert!(matches!(err, SprintError::Attention(_)));
/// assert!(err.to_string().contains("attention"));
/// ```
#[derive(Debug)]
pub enum SprintError {
    /// Attention math error (shapes, quantization, softmax).
    Attention(AttentionError),
    /// ReRAM substrate error (crossbar geometry, programming, pruning).
    Reram(ReramError),
    /// Memory subsystem error (geometry, timing, addressing).
    Memory(MemoryError),
    /// The request itself is malformed (inconsistent shapes, padding
    /// over a cross-shaped head).
    Request(String),
}

impl fmt::Display for SprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SprintError::Attention(e) => write!(f, "attention: {e}"),
            SprintError::Reram(e) => write!(f, "reram: {e}"),
            SprintError::Memory(e) => write!(f, "memory: {e}"),
            SprintError::Request(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl SprintError {
    /// Whether this error is the shared KV page pool running out of
    /// capacity — the one failure the session layers treat as
    /// *retryable*: evict a cold session (freeing its pages) and issue
    /// the identical open/step/resume again.
    pub fn is_pool_exhausted(&self) -> bool {
        matches!(
            self,
            SprintError::Attention(AttentionError::PoolExhausted { .. })
        )
    }
}

impl Error for SprintError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SprintError::Attention(e) => Some(e),
            SprintError::Reram(e) => Some(e),
            SprintError::Memory(e) => Some(e),
            SprintError::Request(_) => None,
        }
    }
}

impl From<AttentionError> for SprintError {
    fn from(e: AttentionError) -> Self {
        SprintError::Attention(e)
    }
}

impl From<ReramError> for SprintError {
    fn from(e: ReramError) -> Self {
        SprintError::Reram(e)
    }
}

impl From<MemoryError> for SprintError {
    fn from(e: MemoryError) -> Self {
        SprintError::Memory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SprintError>();
    }

    #[test]
    fn display_names_the_layer() {
        let e = SprintError::from(AttentionError::EmptyInput("scores"));
        assert!(e.to_string().starts_with("attention:"));
        assert!(e.source().is_some());
    }
}
