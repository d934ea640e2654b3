//! Error types shared across the workspace.

use std::fmt;

/// Errors produced by core operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// Two configurations (or a configuration and a constraint) had
    /// different lengths where equal lengths were required.
    LengthMismatch {
        /// Length of the left-hand operand.
        left: usize,
        /// Length of the right-hand operand.
        right: usize,
    },
    /// A bit index was out of range for the configuration length.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The configuration length.
        len: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// A quality trajectory was empty or otherwise unusable.
    EmptyTrajectory,
    /// A fault-injection spec (`--fault-plan` / `RESILIENCE_FAULTS`)
    /// contained a malformed or unknown token.
    InvalidFaultSpec {
        /// The offending `key=value` token, verbatim.
        token: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A checkpoint journal could not be read, written, or decoded.
    Checkpoint {
        /// What went wrong.
        reason: String,
    },
    /// An operation needed a constraint with a known arity, but the
    /// constraint does not report one.
    UnknownArity,
    /// An operation is defined for the passive strategy axes only
    /// (redundancy, diversity, adaptability), but was handed an active
    /// strategy.
    ActiveStrategyUnsupported,
    /// A state-space construction would exceed the addressable (or
    /// budgeted) number of states for the chosen representation — e.g.
    /// the dense per-state level array of the implicit maintainability
    /// checker, or the `u64` state count of its orbit summary.
    StateSpaceTooLarge {
        /// Requested state-space width in bits (`2^n_bits` states).
        n_bits: usize,
        /// Largest width the representation supports.
        limit: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::LengthMismatch { left, right } => {
                write!(f, "configuration length mismatch: {left} vs {right}")
            }
            CoreError::IndexOutOfRange { index, len } => {
                write!(f, "bit index {index} out of range for length {len}")
            }
            CoreError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            CoreError::EmptyTrajectory => write!(f, "quality trajectory contains no samples"),
            CoreError::InvalidFaultSpec { token, reason } => {
                write!(f, "invalid fault spec token `{token}`: {reason}")
            }
            CoreError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
            CoreError::UnknownArity => {
                write!(f, "constraint does not report an arity")
            }
            CoreError::ActiveStrategyUnsupported => {
                write!(
                    f,
                    "operation covers the passive strategy axes only \
                     (redundancy, diversity, adaptability)"
                )
            }
            CoreError::StateSpaceTooLarge { n_bits, limit } => {
                write!(
                    f,
                    "state space 2^{n_bits} exceeds the representation limit \
                     of 2^{limit} states"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience constructor for [`CoreError::InvalidParameter`].
pub fn invalid_param(name: &'static str, reason: impl Into<String>) -> CoreError {
    CoreError::InvalidParameter {
        name,
        reason: reason.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = CoreError::LengthMismatch { left: 3, right: 5 };
        assert!(err.to_string().contains("3 vs 5"));
        let err = CoreError::IndexOutOfRange { index: 9, len: 4 };
        assert!(err.to_string().contains("9"));
        let err = invalid_param("alpha", "must be positive");
        assert!(err.to_string().contains("alpha"));
        assert!(CoreError::EmptyTrajectory
            .to_string()
            .contains("trajectory"));
        let err = CoreError::InvalidFaultSpec {
            token: "panic=oops".to_string(),
            reason: "not a number".to_string(),
        };
        assert!(err.to_string().contains("panic=oops"));
        assert!(err.to_string().contains("not a number"));
        let err = CoreError::Checkpoint {
            reason: "torn line".to_string(),
        };
        assert!(err.to_string().contains("torn line"));
        assert!(CoreError::UnknownArity.to_string().contains("arity"));
        assert!(CoreError::ActiveStrategyUnsupported
            .to_string()
            .contains("passive"));
        let err = CoreError::StateSpaceTooLarge {
            n_bits: 30,
            limit: 24,
        };
        assert!(err.to_string().contains("2^30"));
        assert!(err.to_string().contains("2^24"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<CoreError>();
    }
}
