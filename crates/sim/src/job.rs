//! Job identity, state machine and audit records.
//!
//! The state machine mirrors the EGEE job lifecycle the paper describes:
//! a job traverses several middleware hops before it ever reaches a worker
//! node, and can be lost, fail or be cancelled at any pre-running stage.
//!
//! ```text
//! Submitted → AtWms → Matched → Queued → Running → Finished
//!     │         │        │        │
//!     └─────────┴────────┴────────┴──→ {Cancelled, Failed, Stuck}
//! ```

use crate::time::SimTime;

/// Opaque job identifier, unique within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    /// The id as a timer token (see
    /// [`GridSimulation::set_timer`](crate::engine::GridSimulation::set_timer)).
    /// Panics past `u32::MAX` jobs in one engine.
    pub fn token(self) -> u32 {
        u32::try_from(self.0).expect("job id exceeds the u32 timer-token range")
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// The client that owns a job or a timer: a user and the epoch (task
/// index) of that user's work. The engine stamps its active owner (see
/// [`GridSimulation::set_owner`](crate::engine::GridSimulation::set_owner))
/// on every client job and timer, so a layer that runs many clients on one
/// engine routes each notification back to the agent and task it belongs
/// to. `Owner::default()` owns background traffic and the work of
/// single-client runs that never set an owner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Owner {
    /// User index within the community.
    pub user: u32,
    /// Task epoch within that user's sequence.
    pub epoch: u32,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted from the UI, travelling to the WMS.
    Submitted,
    /// In the WMS input queue / being match-made.
    AtWms,
    /// Matched to a site, being dispatched.
    Matched,
    /// Waiting in the CE batch queue.
    Queued,
    /// Executing on a worker node.
    Running,
    /// Execution completed and the slot was released.
    Finished,
    /// Cancelled by the client before starting.
    Cancelled,
    /// A middleware hop failed; the job will never start.
    Failed,
    /// Silently lost (the paper's outliers): no further events will ever
    /// concern this job.
    Stuck,
}

impl JobState {
    /// True for states from which the job can still start running.
    pub fn is_pending(self) -> bool {
        matches!(
            self,
            JobState::Submitted | JobState::AtWms | JobState::Matched | JobState::Queued
        )
    }

    /// True for states in which the job occupies the client's attention no
    /// longer (nothing more will happen).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Finished | JobState::Cancelled | JobState::Failed | JobState::Stuck
        )
    }
}

/// Who submitted a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOrigin {
    /// A client job submitted through the [`crate::engine::GridSimulation`]
    /// controller API (strategies, probes).
    Client,
    /// Synthetic background traffic from other VOs/users.
    Background,
}

/// Full audit record of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// The job's identifier.
    pub id: JobId,
    /// Client or background.
    pub origin: JobOrigin,
    /// The engine's active owner when the job was submitted;
    /// `Owner::default()` for background traffic. Multi-client layers
    /// (the `gridstrat-fleet` crate, the adaptive task sequence) route job
    /// notifications back to the submitting agent by it.
    pub owner: Owner,
    /// Current state.
    pub state: JobState,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Site index the WMS matched the job to, once known.
    pub site: Option<usize>,
    /// Instant the job started running, if it did.
    pub started_at: Option<SimTime>,
    /// Instant the job reached a terminal state, if it has.
    pub terminated_at: Option<SimTime>,
}

impl JobRecord {
    /// Creates a fresh record in [`JobState::Submitted`].
    pub fn new(id: JobId, origin: JobOrigin, submitted_at: SimTime) -> Self {
        JobRecord {
            id,
            origin,
            owner: Owner::default(),
            state: JobState::Submitted,
            submitted_at,
            site: None,
            started_at: None,
            terminated_at: None,
        }
    }

    /// True for a client job submitted under `owner` (background jobs
    /// carry the default owner but belong to no client).
    pub fn is_client_of(&self, owner: Owner) -> bool {
        self.origin == JobOrigin::Client && self.owner == owner
    }

    /// Grid latency (submission → start) in seconds, if the job started.
    pub fn latency_secs(&self) -> Option<f64> {
        self.started_at
            .map(|s| s.since(self.submitted_at).as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_classification() {
        assert!(JobState::Submitted.is_pending());
        assert!(JobState::Queued.is_pending());
        assert!(!JobState::Running.is_pending());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Finished.is_terminal());
        assert!(JobState::Stuck.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
    }

    #[test]
    fn latency_computation() {
        let mut r = JobRecord::new(JobId(1), JobOrigin::Client, SimTime::from_secs(10.0));
        assert_eq!(r.latency_secs(), None);
        r.started_at = Some(SimTime::from_secs(252.5));
        assert!((r.latency_secs().unwrap() - 242.5).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(JobId(7).to_string(), "job#7");
    }
}
