//! The fleet controller: multiplexes a whole community of user agents onto
//! one shared [`GridSimulation`].
//!
//! Every agent wraps an ordinary strategy-built
//! [`StrategyController`](gridstrat_core::executor::StrategyController) —
//! the *same* controllers the single-user Monte-Carlo executors run — and
//! the fleet routes engine notifications to the right agent by the
//! [`Owner`](gridstrat_sim::Owner) the engine stamps on every job and
//! timer. The fleet sets `Owner { user, epoch: task index }` before it
//! lets an agent act, so:
//!
//! * job events go to `owner.user`, and timers do too, however many users
//!   arm the same raw token;
//! * a stale timer or a redundant copy surviving from an already-completed
//!   task carries an old epoch and is silently dropped instead of
//!   corrupting the next task's protocol state;
//! * a user's task-arrival timer is armed under the owner of the task it
//!   launches. While the user is idle no other timer of that epoch exists,
//!   so an idle user's timer of its next epoch is its arrival.

use crate::agent::{ArrivalProcess, Assignment, UserAgent};
use crate::metrics::{FleetRun, GroupStream, UserOutcome};
use gridstrat_core::cost::StrategyParams;
use gridstrat_core::strategy::Strategy;
use gridstrat_sim::{Controller, GridSimulation, JobId, Notification, SimDuration};

/// A community of users sharing one grid engine.
///
/// Implements [`Controller`], so it runs through the ordinary
/// [`GridSimulation::run_controller`] loop; [`FleetController::collect`]
/// turns the finished run into a [`FleetRun`] metrics record.
pub struct FleetController {
    agents: Vec<UserAgent>,
    tasks_per_user: usize,
    exec: SimDuration,
    arrival: ArrivalProcess,
    /// Bit per engine job id, set for the start that completed a task
    /// (the "useful" starts; every other client start burned a slot
    /// redundantly). A plain bitset so [`FleetController::collect`] tests
    /// membership in O(1) without rebuilding a hash set per collect.
    winner_bits: Vec<u64>,
    /// Per-group streaming latency metrics, indexed by group id (`None`
    /// for groups the apportionment left without members).
    groups: Vec<Option<GroupStream>>,
    /// Expected client submissions over the whole run — the engine
    /// capacity pre-reservation hint.
    job_hint: usize,
    /// Users whose last task has completed, so [`Controller::done`] is
    /// O(1) rather than a scan of every agent after every event.
    finished_users: usize,
}

/// Sets bit `id` in a growable bitset.
fn mark_winner(bits: &mut Vec<u64>, id: JobId) {
    let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1 << bit;
}

/// Tests bit `id` of the bitset.
fn is_winner(bits: &[u64], id: JobId) -> bool {
    let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
    bits.get(word).is_some_and(|w| w >> bit & 1 == 1)
}

/// How many jobs one task of this strategy can have in flight — the
/// per-task factor of the submission-count hint.
fn burst_width(params: StrategyParams) -> usize {
    match params {
        StrategyParams::Single { .. } => 1,
        StrategyParams::Multiple { b, .. } => b as usize,
        StrategyParams::Delayed { .. } => 2,
        StrategyParams::DelayedMultiple { b, .. } => 2 * b as usize,
    }
}

impl FleetController {
    /// Builds a fleet from one assignment per user.
    ///
    /// `fleet_seed` roots every user's private RNG stream
    /// (`derive_seed(fleet_seed, user)` — see
    /// [`crate::agent::user_stream_seed`]). `group_window` bounds the
    /// per-group streaming-metrics window (see
    /// [`crate::mix::FleetConfig::group_window`]).
    pub fn new(
        assignments: &[Assignment],
        tasks_per_user: usize,
        task_exec_s: f64,
        arrival: ArrivalProcess,
        fleet_seed: u64,
        group_window: usize,
    ) -> Self {
        assert!(!assignments.is_empty(), "a fleet needs at least one user");
        assert!(group_window > 0, "group window must be positive");
        let n_groups = assignments.iter().map(|a| a.group + 1).max().unwrap_or(0);
        let mut groups: Vec<Option<GroupStream>> = vec![None; n_groups];
        let mut job_hint = 0usize;
        for a in assignments {
            groups[a.group]
                .get_or_insert_with(|| GroupStream::new(a.group, a.strategy, 0, group_window))
                .members += 1;
            job_hint += tasks_per_user * burst_width(a.strategy);
        }
        FleetController {
            agents: assignments
                .iter()
                .enumerate()
                .map(|(u, a)| UserAgent::new(u, *a, fleet_seed))
                .collect(),
            tasks_per_user,
            exec: SimDuration::from_secs(task_exec_s),
            arrival,
            winner_bits: Vec::new(),
            groups,
            job_hint,
            finished_users: 0,
        }
    }

    /// Rewinds the fleet to the state `new` would construct it in (with
    /// the given seed), keeping every allocation. A reset fleet drives a
    /// run **bit-identically** to a fresh one — the property the sweep's
    /// per-worker reuse relies on.
    pub fn reset(&mut self, fleet_seed: u64) {
        for (u, agent) in self.agents.iter_mut().enumerate() {
            agent.reset(u, fleet_seed);
        }
        self.winner_bits.iter_mut().for_each(|w| *w = 0);
        for g in self.groups.iter_mut().flatten() {
            g.clear();
        }
        self.finished_users = 0;
    }

    /// Number of users in the community.
    pub fn users(&self) -> usize {
        self.agents.len()
    }

    /// Tasks completed so far across the whole community.
    pub fn tasks_completed(&self) -> usize {
        self.agents.iter().map(|a| a.tasks_done).sum()
    }

    /// Arms the timer that launches user `user`'s next task; its owner
    /// alone identifies it, so the token is unused.
    fn arm_arrival(&mut self, sim: &mut GridSimulation, user: usize, delay_s: f64) {
        sim.set_owner(self.agents[user].next_owner());
        sim.set_timer(SimDuration::from_secs(delay_s), 0);
    }

    /// Launches user `user`'s next task: rewinds the wrapped controller
    /// and lets it open its protocol under the task's owner with the
    /// task's execution time as the default.
    fn launch(&mut self, sim: &mut GridSimulation, user: usize) {
        let exec = self.exec;
        let agent = &mut self.agents[user];
        debug_assert!(!agent.active, "launch while a task is in flight");
        agent.owner = agent.next_owner();
        agent.active = true;
        agent.task_started_s = sim.now().as_secs();
        agent.task_job_floor = sim.jobs().len();
        agent.ctrl.reset();
        sim.set_owner(agent.owner);
        sim.set_default_exec(exec);
        agent.ctrl.start(sim);
        sim.set_default_exec(SimDuration::ZERO);
    }

    /// Hands one notification about user `user`'s current task to its
    /// agent and handles task completion.
    fn deliver(&mut self, sim: &mut GridSimulation, user: usize, ev: Notification) {
        let exec = self.exec;
        let agent = &mut self.agents[user];
        let owner = agent.owner;
        sim.set_owner(owner);
        sim.set_default_exec(exec);
        agent.ctrl.on_event(sim, ev);
        sim.set_default_exec(SimDuration::ZERO);
        let Some(j_abs) = agent.ctrl.total_latency() else {
            return;
        };
        // task complete: the wrapped controller reports the absolute start
        // instant of the winning job; task latency is measured from launch
        let task_latency = j_abs - agent.task_started_s;
        agent.latency.push(task_latency);
        agent.active = false;
        agent.tasks_done += 1;
        self.groups[self.agents[user].assignment.group]
            .as_mut()
            .expect("populated group for an active agent")
            .observe(task_latency);
        let agent = &mut self.agents[user];
        let more = agent.tasks_done < self.tasks_per_user;
        if agent.tasks_done == self.tasks_per_user {
            self.finished_users += 1;
        }
        // adaptive users: harvest this task's own per-job outcomes (exact
        // latency for started jobs; abandoned waits only count as
        // censoring evidence when they reached the timeout — copies
        // cancelled early because the task won are protocol cleanup) and
        // re-tune every `retune_every` completed tasks
        if let (Some(cfg), Some(est)) = (agent.assignment.adaptive, agent.estimator.as_mut()) {
            let now = sim.now().as_secs();
            let t_inf = gridstrat_core::adaptive::timeout_of(agent.params);
            for rec in &sim.jobs()[agent.task_job_floor..] {
                if !rec.is_client_of(owner) {
                    continue;
                }
                match rec.started_at {
                    Some(st) => est.observe_started(st.since(rec.submitted_at).as_secs()),
                    None => {
                        let end = rec.terminated_at.map_or(now, |t| t.as_secs());
                        let waited = (end - rec.submitted_at.as_secs()).max(0.0);
                        if gridstrat_core::adaptive::is_timeout_censored(waited, t_inf) {
                            est.observe_censored(waited);
                        }
                    }
                }
            }
            if more && agent.tasks_done.is_multiple_of(cfg.retune_every) {
                let next = gridstrat_core::adaptive::retune_params(agent.params, est, &cfg);
                if next != agent.params {
                    agent.params = next;
                    agent.ctrl = next.build_controller();
                }
            }
        }
        let delay = if more {
            self.arrival.think_delay(&mut agent.rng)
        } else {
            0.0
        };
        if let Notification::JobStarted { id, .. } = ev {
            mark_winner(&mut self.winner_bits, id);
        }
        if more {
            self.arm_arrival(sim, user, delay);
        }
    }

    /// Measures the finished run: per-user outcomes plus the engine-level
    /// occupancy integrals the ecosystem metrics are computed from.
    pub fn collect(&self, sim: &GridSimulation) -> FleetRun {
        let makespan_s = sim.now().as_secs();
        let mut useful_busy_s = 0.0;
        let mut client_busy_s = 0.0;
        let mut total_busy_s = 0.0;
        for rec in sim.jobs() {
            let Some(start) = rec.started_at else {
                continue;
            };
            let end = rec
                .terminated_at
                .map_or(makespan_s, |t| t.as_secs())
                .min(makespan_s);
            let busy = (end - start.as_secs()).max(0.0);
            total_busy_s += busy;
            if matches!(rec.origin, gridstrat_sim::job::JobOrigin::Client) {
                client_busy_s += busy;
                if is_winner(&self.winner_bits, rec.id) {
                    useful_busy_s += busy;
                }
            }
        }
        let slots: usize = sim.config().sites.iter().map(|s| s.slots).sum();
        let run = FleetRun {
            users: self
                .agents
                .iter()
                .map(|a| UserOutcome {
                    group: a.assignment.group,
                    strategy: a.assignment.strategy,
                    tasks_done: a.tasks_done,
                    latency: a.latency,
                })
                .collect(),
            groups: self.groups.clone(),
            tasks_per_user: self.tasks_per_user,
            makespan_s,
            client_submitted: sim.stats().client_submitted,
            client_started: sim.stats().client_started,
            useful_busy_s,
            client_busy_s,
            total_busy_s,
            slot_capacity_s: slots as f64 * makespan_s,
        };
        // every completed task has exactly one started winner, so a run
        // collected from a consistent engine can never complete more tasks
        // than it started jobs — `FleetRun::wasted_starts` saturates only
        // for truncated records assembled outside this method
        debug_assert!(
            run.client_started >= run.tasks_completed() as u64,
            "collected run completed more tasks than it started jobs"
        );
        run
    }
}

impl Controller for FleetController {
    fn start(&mut self, sim: &mut GridSimulation) {
        // pre-reserve the engine's job table and event heap for the whole
        // community's expected protocol traffic (~6 pipeline events per
        // job), so a 100k-user run never grows them mid-flight
        sim.reserve(self.job_hint, self.job_hint.saturating_mul(6));
        for user in 0..self.agents.len() {
            let d = self.arrival.initial_delay(&mut self.agents[user].rng);
            self.arm_arrival(sim, user, d);
        }
    }

    fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
        let owner = match ev {
            Notification::Timer { owner, .. } => owner,
            Notification::JobStarted { id, .. }
            | Notification::JobFinished { id, .. }
            | Notification::JobFailed { id, .. } => sim.job(id).owner,
        };
        let user = owner.user as usize;
        let agent = &self.agents[user];
        if agent.active {
            if owner == agent.owner {
                self.deliver(sim, user, ev);
            }
        } else if owner == agent.next_owner() {
            // nothing of an idle user's next task exists but its arrival
            self.launch(sim, user);
        }
        // anything else is stale: an echo from an already-completed task
    }

    fn done(&self) -> bool {
        self.tasks_per_user == 0 || self.finished_users == self.agents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{FleetConfig, StrategyMix};
    use std::sync::Arc;

    /// Forwards to the fleet and checks after every event that the O(1)
    /// `done` agrees with a scan of every agent.
    struct ScanCheck<'a>(&'a mut FleetController);

    impl ScanCheck<'_> {
        fn assert_consistent(&self) {
            let f = &self.0;
            let scan = f.agents.iter().all(|a| a.tasks_done >= f.tasks_per_user);
            assert_eq!(f.done(), scan, "done() disagrees with the agent scan");
        }
    }

    impl Controller for ScanCheck<'_> {
        fn start(&mut self, sim: &mut GridSimulation) {
            self.0.start(sim);
            self.assert_consistent();
        }

        fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
            self.0.on_event(sim, ev);
            self.assert_consistent();
        }

        fn done(&self) -> bool {
            self.0.done()
        }
    }

    #[test]
    fn done_counter_matches_an_agent_scan_across_reset() {
        let mut cfg = FleetConfig::small_farm(6);
        cfg.tasks_per_user = 3;
        let mix = StrategyMix::pure("single", StrategyParams::Single { t_inf: 3000.0 });
        let assignments = mix.assignments(8);
        let grid = Arc::new(cfg.grid.clone());
        let mut fleet = FleetController::new(
            &assignments,
            cfg.tasks_per_user,
            cfg.task_exec_s,
            cfg.arrival,
            7,
            cfg.group_window,
        );
        for seed in [7, 8] {
            let mut sim = GridSimulation::new(Arc::clone(&grid), seed).unwrap();
            fleet.reset(seed);
            assert!(!fleet.done());
            sim.run_controller(&mut ScanCheck(&mut fleet));
            assert!(fleet.done());
            assert_eq!(fleet.tasks_completed(), 8 * 3);
        }
    }
}
