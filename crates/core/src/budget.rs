//! Unified stop conditions for the solve pipeline.
//!
//! A [`Budget`] folds the two asynchronous reasons a run must wind down —
//! the wall-clock deadline from [`crate::PlacerConfig::time_budget`] and an
//! external [`complx_par::CancelToken`] — behind one query. The placer
//! polls [`Budget::stop`] at iteration boundaries and exits gracefully
//! through the best-iterate path with the returned [`StopReason`];
//! the raw token (via [`Budget::cancel_token`]) additionally reaches the
//! cancellable kernels (CG, NLCG, projection, detailed placement) so a
//! cancel also interrupts a long-running *step*, not just the loop.
//! The iteration cap stays where it is legible: in the loop bounds.

use std::time::Instant;

use complx_par::CancelToken;

use crate::error::StopReason;

/// The run-wide stop conditions: deadline ∪ external cancellation.
///
/// With no deadline and no token this is inert — every query returns
/// `None` and the placer behaves exactly as an unbudgeted run.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// A budget from an optional deadline and an optional cancel token.
    pub fn new(deadline: Option<Instant>, cancel: Option<CancelToken>) -> Self {
        Self { deadline, cancel }
    }

    /// Whether the run must stop now, and why. Cancellation wins over the
    /// deadline when both hold: it is the more deliberate signal.
    pub fn stop(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the deadline watchdog is the explicit --max-seconds opt-out of bit-determinism; without a budget this read never gates an iteration"
        )]
        let expired = self.deadline.is_some_and(|d| Instant::now() >= d);
        expired.then_some(StopReason::TimeBudget)
    }

    /// The external token for threading into cancellable kernels. `None`
    /// when the budget has no cancellation source (deadline-only budgets
    /// stop at iteration boundaries, as before).
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests build deadlines relative to now"
)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_budget_never_stops() {
        let b = Budget::default();
        assert_eq!(b.stop(), None);
        assert!(b.cancel_token().is_none());
    }

    #[test]
    fn expired_deadline_reports_time_budget() {
        let b = Budget::new(Some(Instant::now() - Duration::from_millis(1)), None);
        assert_eq!(b.stop(), Some(StopReason::TimeBudget));
    }

    #[test]
    fn future_deadline_does_not_stop() {
        let b = Budget::new(Some(Instant::now() + Duration::from_secs(3600)), None);
        assert_eq!(b.stop(), None);
    }

    #[test]
    fn tripped_token_reports_cancelled() {
        let t = CancelToken::new();
        let b = Budget::new(None, Some(t.clone()));
        assert_eq!(b.stop(), None);
        t.cancel();
        assert_eq!(b.stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn cancellation_wins_over_expired_deadline() {
        let t = CancelToken::new();
        t.cancel();
        let b = Budget::new(Some(Instant::now() - Duration::from_millis(1)), Some(t));
        assert_eq!(b.stop(), Some(StopReason::Cancelled));
    }
}
