//! The one error type every geocoding backend speaks.
//!
//! The paper's pipeline sat on a real 2011 free-tier API whose failure
//! surface was much wider than "quota" and "bad XML": requests vanished,
//! responses crawled in past any sane deadline, and client-side budgets ran
//! dry mid-experiment. [`GeocodeError`] covers the endpoint's own failures
//! ([`QuotaExceeded`](GeocodeError::QuotaExceeded),
//! [`MalformedResponse`](GeocodeError::MalformedResponse)) and the
//! service-layer failure modes, so every [`crate::service::Geocoder`]
//! backend — mock endpoint, resilient decorator, local gazetteer — returns
//! the same enum.

use std::fmt;

/// Everything that can go wrong between a GPS point and a
/// [`crate::LocationRecord`].
///
/// The variant split mirrors who refused the request:
///
/// * server side — [`QuotaExceeded`](Self::QuotaExceeded),
///   [`MalformedResponse`](Self::MalformedResponse),
///   [`Timeout`](Self::Timeout);
/// * client side — [`CircuitOpen`](Self::CircuitOpen),
///   [`QuotaExhausted`](Self::QuotaExhausted);
/// * nobody's fault — [`Unresolvable`](Self::Unresolvable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GeocodeError {
    /// The endpoint's daily quota is spent; carries the configured limit.
    /// (Server-side 403.)
    QuotaExceeded(u64),
    /// The response XML could not be parsed.
    MalformedResponse(String),
    /// No response arrived inside the per-call deadline; carries the
    /// simulated milliseconds the caller waited before giving up.
    Timeout {
        /// Simulated wait before the deadline fired, in milliseconds.
        waited_ms: u64,
    },
    /// The circuit breaker is open: the backend failed repeatedly and the
    /// service layer refuses to dial it until the cooldown elapses.
    CircuitOpen {
        /// Admissions left before the breaker half-opens for a probe.
        cooldown_left: u32,
    },
    /// The client-side daily budget is spent; the degraded-mode budgeter
    /// refused to issue the request at all. Carries the configured budget.
    QuotaExhausted(u64),
    /// Every backend in the fallback chain declined to answer.
    Unresolvable,
}

impl GeocodeError {
    /// Whether a bounded retry against the same backend can plausibly
    /// succeed. Timeouts, garbled responses and quota 403s are transient
    /// (the paper-era tier returned rate-limit bursts that cleared);
    /// breaker rejections and an exhausted client budget are not — the
    /// service layer falls straight back instead of burning attempts.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            GeocodeError::Timeout { .. }
                | GeocodeError::MalformedResponse(_)
                | GeocodeError::QuotaExceeded(_)
        )
    }
}

impl fmt::Display for GeocodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeocodeError::QuotaExceeded(limit) => {
                write!(f, "daily quota of {limit} requests exceeded")
            }
            GeocodeError::MalformedResponse(msg) => write!(f, "malformed response: {msg}"),
            GeocodeError::Timeout { waited_ms } => {
                write!(f, "no response within the {waited_ms} ms deadline")
            }
            GeocodeError::CircuitOpen { cooldown_left } => {
                write!(
                    f,
                    "circuit open ({cooldown_left} admissions until half-open probe)"
                )
            }
            GeocodeError::QuotaExhausted(budget) => {
                write!(f, "client-side daily budget of {budget} requests exhausted")
            }
            GeocodeError::Unresolvable => write!(f, "no backend could resolve the point"),
        }
    }
}

impl std::error::Error for GeocodeError {}

/// Parser shorthand: a bare message is a malformed response.
impl From<String> for GeocodeError {
    fn from(msg: String) -> Self {
        GeocodeError::MalformedResponse(msg)
    }
}

/// Parser shorthand: a bare message is a malformed response.
impl From<&str> for GeocodeError {
    fn from(msg: &str) -> Self {
        GeocodeError::MalformedResponse(msg.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_refusing_party() {
        assert!(GeocodeError::QuotaExceeded(50_000)
            .to_string()
            .contains("50000 requests"));
        assert!(GeocodeError::Timeout { waited_ms: 500 }
            .to_string()
            .contains("500 ms"));
        assert!(GeocodeError::CircuitOpen { cooldown_left: 3 }
            .to_string()
            .contains("circuit open"));
        assert!(GeocodeError::QuotaExhausted(100)
            .to_string()
            .contains("budget of 100"));
        assert_eq!(
            GeocodeError::from("missing <Found>"),
            GeocodeError::MalformedResponse("missing <Found>".into())
        );
    }

    #[test]
    fn retryability_split() {
        assert!(GeocodeError::Timeout { waited_ms: 1 }.retryable());
        assert!(GeocodeError::MalformedResponse("x".into()).retryable());
        assert!(GeocodeError::QuotaExceeded(1).retryable());
        assert!(!GeocodeError::CircuitOpen { cooldown_left: 1 }.retryable());
        assert!(!GeocodeError::QuotaExhausted(1).retryable());
        assert!(!GeocodeError::Unresolvable.retryable());
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(GeocodeError::Unresolvable);
        assert!(e.to_string().contains("no backend"));
    }
}
