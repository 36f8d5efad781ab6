//! Structured errors and stop reasons for the solve pipeline.
//!
//! The placer never panics on a degenerate design and never silently
//! returns a corrupted placement: every failure mode is a [`PlaceError`]
//! variant, and every successful run reports *why* it stopped through
//! [`StopReason`]. When the run diverges past the recovery budget, the best
//! feasible iterate found so far rides along in
//! [`PlaceError::Diverged`] so callers can still salvage a placement.

use std::error::Error;
use std::fmt;

use complx_netlist::Placement;

/// Why a successful placement run stopped iterating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopReason {
    /// A convergence criterion fired (duality gap or overflow tolerance).
    Converged,
    /// The best feasible iterate stopped improving for the configured
    /// stagnation window.
    Stagnated,
    /// The iteration cap was reached.
    IterationCap,
    /// The wall-clock budget expired; the run exited gracefully through
    /// the best-iterate path.
    TimeBudget,
    /// An external [`complx_par::CancelToken`] tripped; the run exited
    /// gracefully through the best-iterate path, like a time budget.
    Cancelled,
}

impl StopReason {
    /// Whether the loop ran to one of its own criteria (converged,
    /// stagnated, iteration cap) rather than being cut short by the wall
    /// clock or a cancel. Only complete runs are a deterministic function
    /// of design and configuration, so only they may be cached.
    pub fn is_complete(self) -> bool {
        matches!(
            self,
            StopReason::Converged | StopReason::Stagnated | StopReason::IterationCap
        )
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Converged => "converged",
            StopReason::Stagnated => "stagnated",
            StopReason::IterationCap => "iteration cap",
            StopReason::TimeBudget => "time budget",
            StopReason::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Errors produced by [`crate::ComplxPlacer`] and the CLI pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PlaceError {
    /// The input design cannot be placed (inconsistent geometry, more
    /// movable area than the core holds, non-finite inputs, …).
    InvalidDesign {
        /// What is wrong with the design.
        reason: String,
    },
    /// The linear solver broke down before any feasible iterate existed,
    /// so there is no placement to degrade to.
    SolverBreakdown {
        /// Global-placement iteration at which the breakdown happened
        /// (`0` = the λ = 0 bootstrap).
        iteration: usize,
        /// Human-readable description of the breakdown.
        detail: String,
    },
    /// The primal-dual loop kept producing invalid iterates after
    /// exhausting the recovery budget. The best feasible placement found
    /// before divergence is attached.
    Diverged {
        /// Iteration at which the final, unrecoverable fault occurred.
        iteration: usize,
        /// Number of recovery attempts that were executed.
        recoveries: usize,
        /// The last good (feasible) placement, if one existed.
        best: Option<Box<Placement>>,
        /// Human-readable description of the last fault.
        detail: String,
    },
    /// The wall-clock budget expired before a single feasible iterate was
    /// produced (graceful degradation needs at least one).
    TimedOut {
        /// The configured budget in seconds.
        budget_seconds: f64,
    },
    /// An I/O failure in the surrounding pipeline (trace or solution
    /// writing).
    Io(std::io::Error),
    /// An external cancel token tripped before a single feasible iterate
    /// was produced (graceful degradation needs at least one).
    Cancelled,
    /// A `--resume` checkpoint does not match the current design or
    /// configuration (or is structurally unusable), so resuming would not
    /// reproduce the original run.
    CheckpointMismatch {
        /// What failed to match or validate.
        reason: String,
    },
    /// An injected kill fault fired (fault harness only): the run was
    /// terminated mid-loop exactly as an external `SIGKILL` would at a
    /// checkpoint boundary, leaving any on-disk checkpoints behind.
    Killed {
        /// The 1-based global-placement iteration the kill struck at.
        iteration: usize,
    },
}

impl PlaceError {
    /// Short machine-readable name of the variant (stable across releases;
    /// used by the CLI's one-line error format).
    pub fn kind(&self) -> &'static str {
        match self {
            PlaceError::InvalidDesign { .. } => "invalid-design",
            PlaceError::SolverBreakdown { .. } => "solver-breakdown",
            PlaceError::Diverged { .. } => "diverged",
            PlaceError::TimedOut { .. } => "timed-out",
            PlaceError::Io(_) => "io",
            PlaceError::Cancelled => "cancelled",
            PlaceError::CheckpointMismatch { .. } => "checkpoint-mismatch",
            PlaceError::Killed { .. } => "killed",
        }
    }

    /// The process exit code the CLI maps this error to. Distinct per
    /// variant so scripts can react without parsing messages; `1` is left
    /// to usage errors.
    pub fn exit_code(&self) -> u8 {
        match self {
            PlaceError::InvalidDesign { .. } => 3,
            PlaceError::SolverBreakdown { .. } => 4,
            PlaceError::Diverged { .. } => 5,
            PlaceError::TimedOut { .. } => 6,
            PlaceError::Io(_) => 7,
            PlaceError::Cancelled => 8,
            PlaceError::CheckpointMismatch { .. } => 9,
            PlaceError::Killed { .. } => 10,
        }
    }

    /// The best feasible placement salvaged from a failed run, when the
    /// failure mode preserves one.
    pub fn best_placement(&self) -> Option<&Placement> {
        match self {
            PlaceError::Diverged { best, .. } => best.as_deref(),
            _ => None,
        }
    }
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::InvalidDesign { reason } => {
                write!(f, "invalid design: {reason}")
            }
            PlaceError::SolverBreakdown { iteration, detail } => {
                write!(f, "solver breakdown at iteration {iteration}: {detail}")
            }
            PlaceError::Diverged {
                iteration,
                recoveries,
                best,
                detail,
            } => {
                write!(
                    f,
                    "diverged at iteration {iteration} after {recoveries} recovery \
                     attempt(s): {detail}{}",
                    if best.is_some() {
                        " (best feasible placement attached)"
                    } else {
                        ""
                    }
                )
            }
            PlaceError::TimedOut { budget_seconds } => {
                write!(
                    f,
                    "timed out: {budget_seconds}s budget expired before a feasible \
                     iterate existed"
                )
            }
            PlaceError::Io(e) => write!(f, "i/o error: {e}"),
            PlaceError::Cancelled => {
                write!(f, "cancelled before a feasible iterate existed")
            }
            PlaceError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint mismatch: {reason}")
            }
            PlaceError::Killed { iteration } => {
                write!(f, "killed by injected fault at iteration {iteration}")
            }
        }
    }
}

impl Error for PlaceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlaceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PlaceError {
    fn from(e: std::io::Error) -> Self {
        PlaceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let io = std::io::Error::other("x");
        let errs = [
            PlaceError::InvalidDesign { reason: "r".into() },
            PlaceError::SolverBreakdown {
                iteration: 1,
                detail: "d".into(),
            },
            PlaceError::Diverged {
                iteration: 2,
                recoveries: 3,
                best: None,
                detail: "d".into(),
            },
            PlaceError::TimedOut {
                budget_seconds: 1.0,
            },
            PlaceError::Io(io),
            PlaceError::Cancelled,
            PlaceError::CheckpointMismatch { reason: "r".into() },
            PlaceError::Killed { iteration: 4 },
        ];
        let mut codes: Vec<u8> = errs.iter().map(|e| e.exit_code()).collect();
        assert!(codes.iter().all(|&c| c > 1));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len());
    }

    #[test]
    fn display_is_one_line_and_informative() {
        let e = PlaceError::Diverged {
            iteration: 7,
            recoveries: 3,
            best: Some(Box::new(Placement::zeros(2))),
            detail: "non-finite iterate".into(),
        };
        let msg = e.to_string();
        assert!(!msg.contains('\n'));
        assert!(msg.contains("iteration 7"));
        assert!(msg.contains("attached"));
        assert_eq!(e.kind(), "diverged");
        assert!(e.best_placement().is_some());
    }

    #[test]
    fn io_errors_chain() {
        let e = PlaceError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert_eq!(e.kind(), "io");
    }

    #[test]
    fn stop_reasons_display() {
        for (r, s) in [
            (StopReason::Converged, "converged"),
            (StopReason::Stagnated, "stagnated"),
            (StopReason::IterationCap, "iteration cap"),
            (StopReason::TimeBudget, "time budget"),
            (StopReason::Cancelled, "cancelled"),
        ] {
            assert_eq!(r.to_string(), s);
        }
    }

    #[test]
    fn only_self_terminated_runs_are_complete() {
        assert!(StopReason::Converged.is_complete());
        assert!(StopReason::Stagnated.is_complete());
        assert!(StopReason::IterationCap.is_complete());
        assert!(!StopReason::TimeBudget.is_complete());
        assert!(!StopReason::Cancelled.is_complete());
    }
}
