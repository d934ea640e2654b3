//! The fixed vocabularies of trace event labels.
//!
//! Each label is a `Copy` enum that serializes as its stable lowercase
//! string — the same bytes the events carried when the labels were
//! `String`s — so recording an event allocates nothing and dropping a
//! trace frees no label. The `labels!` macro below writes their
//! `Serialize`/`Deserialize` impls, because the vendored derive
//! serializes a unit variant by its Rust name and has no `rename`.
//! Free-text labels copied from a report (`RequestFailed::cause`,
//! `TrialLost::cause`) stay `String`.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// Define a label enum: its variants with their stable labels, `as_str`,
/// `Display`, and a serde form that is the label itself.
macro_rules! labels {
    ($(#[$meta:meta])* $name:ident {
        $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Stable label used in exports.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl Serialize for $name {
            fn serialize(&self) -> Value {
                Value::String(self.as_str().to_string())
            }
        }

        impl Deserialize for $name {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                match v.as_str() {
                    $(Some($label) => Ok($name::$variant),)+
                    _ => Err(DeError::new(concat!("expected a ", stringify!($name), " label"))),
                }
            }
        }
    };
}

labels! {
    /// The fidelity a request was admitted or served at.
    Fidelity {
        /// Full-cost backend computation.
        Full => "full",
        /// The backend ran at a fraction of the trials.
        Reduced => "reduced",
        /// The precomputed cache table answered.
        Cached => "cached",
    }
}

labels! {
    /// Why admission control shed a request.
    ShedReason {
        /// The bulkhead queue was at capacity.
        QueueFull => "queue-full",
        /// The backlog guaranteed the deadline could not be met.
        DeadlineUnmeetable => "deadline-unmeetable",
        /// The circuit breaker was open.
        BreakerOpen => "breaker-open",
    }
}

labels! {
    /// What an empty retry budget refused.
    BudgetKind {
        /// A hedge launched beside the primary.
        Hedge => "hedge",
        /// A failover to a spare replica.
        Failover => "failover",
    }
}

labels! {
    /// A circuit breaker's state.
    BreakerState {
        /// Traffic flows.
        Closed => "closed",
        /// Traffic is refused until the cooldown elapses.
        Open => "open",
        /// One probe request is allowed through.
        HalfOpen => "half-open",
    }
}

labels! {
    /// An anticipation operating mode.
    Mode {
        /// Reactive controllers only.
        Normal => "normal",
        /// Early-warning indicators are elevated.
        Alert => "alert",
        /// Collapse signature confirmed.
        Emergency => "emergency",
    }
}

labels! {
    /// What tripped the flight recorder; the labels are pinned by
    /// `schemas/incident.schema.json`.
    TriggerKind {
        /// The anticipation controller escalated to Emergency mode.
        ModeEscalation => "mode-escalation",
        /// A cluster cascade ignited after a quiet tick.
        CascadeOnset => "cascade-onset",
        /// A Monte-Carlo trial was lost after exhausting retries.
        TrialLoss => "trial-loss",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every label round-trips through its serde form, which is the bare
    /// label string, and an unknown string is an error.
    #[test]
    fn labels_serialize_as_their_strings() {
        fn check<T: Serialize + Deserialize + fmt::Display + PartialEq + fmt::Debug>(all: &[T]) {
            for label in all {
                let v = label.serialize();
                assert_eq!(v, Value::String(label.to_string()));
                assert_eq!(&T::deserialize(&v).expect("label parses"), label);
            }
            assert!(T::deserialize(&Value::String("Full".into())).is_err());
            assert!(T::deserialize(&Value::UInt(0)).is_err());
        }
        check(&[Fidelity::Full, Fidelity::Reduced, Fidelity::Cached]);
        check(&[
            ShedReason::QueueFull,
            ShedReason::DeadlineUnmeetable,
            ShedReason::BreakerOpen,
        ]);
        check(&[BudgetKind::Hedge, BudgetKind::Failover]);
        check(&[
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ]);
        check(&[Mode::Normal, Mode::Alert, Mode::Emergency]);
        check(&[
            TriggerKind::ModeEscalation,
            TriggerKind::CascadeOnset,
            TriggerKind::TrialLoss,
        ]);
    }
}
