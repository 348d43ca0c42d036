//! Scheduler errors.

use core::fmt;

/// Errors produced by the schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedError {
    /// Zero iterations were requested; a periodic dataflow runs at
    /// least once.
    ZeroIterations,
    /// The movement analysis rejected the derived timing inputs; this
    /// indicates an internal inconsistency and carries the message.
    Analysis(String),
    /// The kernel, retiming and allocation handed to
    /// [`emit_plan`](crate::emit_plan) do not fit the graph, or the
    /// plan they determine would overflow; carries the reason.
    Emit(String),
    /// The request's [`CancelToken`](paraconv_obs::CancelToken) fired
    /// (deadline expiry or daemon drain); the partial work was
    /// discarded at a phase boundary.
    Cancelled,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::ZeroIterations => f.write_str("at least one iteration must be scheduled"),
            SchedError::Analysis(msg) => write!(f, "movement analysis failed: {msg}"),
            SchedError::Emit(msg) => write!(f, "plan emission failed: {msg}"),
            SchedError::Cancelled => f.write_str("scheduling cancelled before completion"),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!SchedError::ZeroIterations.to_string().is_empty());
        assert!(SchedError::Analysis("x".into()).to_string().contains('x'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchedError>();
    }
}
