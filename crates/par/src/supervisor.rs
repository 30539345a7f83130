//! Supervised fan-out: deadlines, circuit breakers, and run budgets
//! on top of the deterministic parallel primitives.
//!
//! A long sweep (25 apps × 30 configurations) must not be taken down
//! by one misbehaving app, and must stop cleanly when it exhausts its
//! allowance. The [`Supervisor`] wraps `parallel_indexed` with three
//! policies, all evaluated **deterministically**:
//!
//! - **Per-task virtual-clock deadlines.** Every task reports its
//!   virtual cost (device virtual nanoseconds, never wall clock); a
//!   task over the deadline is demoted to
//!   [`Outcome::DeadlineExceeded`] and counts as a failure.
//! - **Per-group circuit breakers.** After N *consecutive* failures
//!   within a group (an app), the breaker opens: the group is marked
//!   degraded and its remaining units are skipped rather than run —
//!   the sweep continues instead of aborting.
//! - **A global run budget.** Max tasks and max virtual time across
//!   the whole run; once exhausted, every remaining unit is skipped
//!   with [`Outcome::SkippedBudget`] and the caller reports a
//!   partial result.
//!
//! Determinism comes from fixed structure, not timing: units are
//! dispatched in **rounds** of `batch` consecutive indices (a config
//! knob, independent of the thread count), rounds run through the
//! order-preserving fan-out, and all policy state advances by folding
//! outcomes in index order. The same inputs therefore produce the
//! same outcomes at any thread count.
//!
//! Resume support: [`Supervisor::run_units`] accepts a `cached`
//! lookup. A unit with a journaled outcome is **replayed** — its
//! recorded outcome feeds the breaker and budget exactly as a fresh
//! execution would — so a resumed sweep walks the identical policy
//! trajectory and produces a bit-identical report.

use std::collections::BTreeMap;

/// The terminal state of one supervised unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<R, E> {
    /// The unit completed within its deadline.
    Done {
        /// The unit's result.
        value: R,
        /// Virtual nanoseconds the unit consumed.
        virtual_ns: u64,
    },
    /// The unit ran and failed.
    Failed(E),
    /// The unit completed but blew its virtual-clock deadline; the
    /// result is discarded and the unit counts as a failure.
    DeadlineExceeded {
        /// Virtual nanoseconds the unit consumed (> deadline).
        virtual_ns: u64,
    },
    /// Skipped: the group's circuit breaker was open.
    SkippedBreakerOpen,
    /// Skipped: the global run budget was exhausted.
    SkippedBudget,
}

impl<R, E> Outcome<R, E> {
    /// Stable short label, used for accounting and journal records.
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Done { .. } => "done",
            Outcome::Failed(_) => "failed",
            Outcome::DeadlineExceeded { .. } => "deadline",
            Outcome::SkippedBreakerOpen => "skip-breaker",
            Outcome::SkippedBudget => "skip-budget",
        }
    }

    /// Virtual time this outcome charges against the budget.
    pub fn virtual_ns(&self) -> u64 {
        match self {
            Outcome::Done { virtual_ns, .. } | Outcome::DeadlineExceeded { virtual_ns } => {
                *virtual_ns
            }
            _ => 0,
        }
    }

    /// True for `Done`.
    pub fn is_done(&self) -> bool {
        matches!(self, Outcome::Done { .. })
    }

    /// True for the outcomes that trip breakers (`Failed`,
    /// `DeadlineExceeded`).
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Failed(_) | Outcome::DeadlineExceeded { .. })
    }
}

/// Policy knobs for a supervised run. Every limit is optional; the
/// zero-config default supervises nothing away (no deadline, breaker
/// at 3, no budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Per-task virtual-time deadline; `None` = unlimited.
    pub deadline_virtual_ns: Option<u64>,
    /// Consecutive failures within a group that open its breaker;
    /// `0` disables circuit breaking.
    pub breaker_threshold: u32,
    /// Max units actually run (not skipped) across the whole run.
    pub max_tasks: Option<u64>,
    /// Max cumulative virtual nanoseconds across the whole run.
    pub max_virtual_ns: Option<u64>,
    /// Units per dispatch round. Policy checks happen between
    /// rounds, so this bounds over-dispatch after a breaker opens or
    /// the budget runs out. Independent of the thread count — the
    /// outcome sequence is identical at any thread count.
    pub batch: usize,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            deadline_virtual_ns: None,
            breaker_threshold: 3,
            max_tasks: None,
            max_virtual_ns: None,
            batch: 8,
        }
    }
}

#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: u32,
    open: bool,
}

/// The supervisor's answer to "may this unit start right now?" —
/// the admission-ticket half of the policy, usable one unit at a
/// time (a served session) as well as in batches
/// ([`Supervisor::run_units`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Run it; report the terminal [`Outcome`] back through
    /// [`Supervisor::finish`].
    Granted,
    /// The group's circuit breaker is open — shed the unit instead
    /// of running it.
    RejectedBreakerOpen,
    /// The global run budget is exhausted — shed the unit instead
    /// of running it.
    RejectedBudget,
}

/// Aggregate accounting for a supervised run, for reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Units that actually ran (or replayed as having run).
    pub tasks_run: u64,
    /// Units that finished successfully within deadline.
    pub completed: u64,
    /// Units that ran and failed.
    pub failed: u64,
    /// Units demoted for blowing their virtual deadline.
    pub deadline_exceeded: u64,
    /// Units skipped behind an open breaker.
    pub skipped_breaker: u64,
    /// Units skipped after budget exhaustion.
    pub skipped_budget: u64,
    /// Cumulative virtual time charged.
    pub virtual_ns_spent: u64,
    /// True once any budget limit was hit.
    pub budget_exhausted: bool,
    /// Groups whose breaker opened, in open order.
    pub degraded_groups: Vec<String>,
}

/// Policy state threaded across every `run_units` call of one sweep.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    breakers: BTreeMap<String, BreakerState>,
    report: SupervisorReport,
}

impl Supervisor {
    /// A fresh supervisor under `config`.
    pub fn new(config: SupervisorConfig) -> Supervisor {
        Supervisor {
            config: SupervisorConfig {
                batch: config.batch.max(1),
                ..config
            },
            breakers: BTreeMap::new(),
            report: SupervisorReport::default(),
        }
    }

    /// The active policy knobs.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// True once any budget limit has been hit.
    pub fn budget_exhausted(&self) -> bool {
        self.report.budget_exhausted
    }

    /// True when `group`'s breaker is open.
    pub fn group_degraded(&self, group: &str) -> bool {
        self.breakers.get(group).is_some_and(|b| b.open)
    }

    /// Accounting snapshot.
    pub fn report(&self) -> SupervisorReport {
        self.report.clone()
    }

    fn out_of_budget(&self) -> bool {
        let over_tasks = self
            .config
            .max_tasks
            .is_some_and(|m| self.report.tasks_run >= m);
        let over_virtual = self
            .config
            .max_virtual_ns
            .is_some_and(|m| self.report.virtual_ns_spent >= m);
        over_tasks || over_virtual
    }

    /// Fold one outcome (fresh or replayed) into breaker, budget,
    /// and accounting state — always in unit-index order.
    fn absorb<R, E>(&mut self, group: &str, outcome: &Outcome<R, E>) {
        match outcome {
            Outcome::Done { virtual_ns, .. } => {
                self.report.tasks_run += 1;
                self.report.completed += 1;
                self.report.virtual_ns_spent += virtual_ns;
                self.breakers
                    .entry(group.to_string())
                    .or_default()
                    .consecutive_failures = 0;
            }
            Outcome::Failed(_) | Outcome::DeadlineExceeded { .. } => {
                self.report.tasks_run += 1;
                if outcome.is_failure() {
                    match outcome {
                        Outcome::Failed(_) => self.report.failed += 1,
                        _ => self.report.deadline_exceeded += 1,
                    }
                }
                self.report.virtual_ns_spent += outcome.virtual_ns();
                let threshold = self.config.breaker_threshold;
                let breaker = self.breakers.entry(group.to_string()).or_default();
                breaker.consecutive_failures += 1;
                if threshold > 0 && breaker.consecutive_failures >= threshold && !breaker.open {
                    breaker.open = true;
                    self.report.degraded_groups.push(group.to_string());
                    gtpin_obs::counter_add("supervisor.breaker_opened", 1);
                    gtpin_faults::note("supervisor.breaker_open", 1);
                }
            }
            Outcome::SkippedBreakerOpen => self.report.skipped_breaker += 1,
            Outcome::SkippedBudget => self.report.skipped_budget += 1,
        }
        if !self.report.budget_exhausted && self.out_of_budget() {
            self.report.budget_exhausted = true;
            gtpin_obs::counter_add("supervisor.budget_exhausted", 1);
        }
    }

    /// One-unit admission ticket: may a unit of `group` start right
    /// now? Pure policy read plus the budget-exhaustion latch — the
    /// same gates [`Supervisor::run_units`] applies between rounds,
    /// exposed so a long-running service can admit sessions one at a
    /// time through identical policy state. Budget is checked before
    /// the breaker, mirroring the between-round order.
    pub fn admit(&mut self, group: &str) -> Admission {
        if self.out_of_budget() {
            if !self.report.budget_exhausted {
                self.report.budget_exhausted = true;
                gtpin_obs::counter_add("supervisor.budget_exhausted", 1);
            }
            return Admission::RejectedBudget;
        }
        if self.group_degraded(group) {
            return Admission::RejectedBreakerOpen;
        }
        Admission::Granted
    }

    /// Judge one fresh result against the per-task deadline — the
    /// demotion [`Supervisor::run_units`] applies to every fan-out
    /// result, exposed for single-unit callers.
    pub fn judge<R, E>(&self, result: Result<(R, u64), E>) -> Outcome<R, E> {
        match result {
            Ok((value, virtual_ns)) => {
                if self
                    .config
                    .deadline_virtual_ns
                    .is_some_and(|d| virtual_ns > d)
                {
                    Outcome::DeadlineExceeded { virtual_ns }
                } else {
                    Outcome::Done { value, virtual_ns }
                }
            }
            Err(e) => Outcome::Failed(e),
        }
    }

    /// Fold one terminal outcome into breaker, budget, and
    /// accounting state. Every admitted unit must be finished
    /// exactly once; replayed (journaled) outcomes go through here
    /// too, so a resumed service walks the identical policy
    /// trajectory.
    pub fn finish<R, E>(&mut self, group: &str, outcome: &Outcome<R, E>) {
        self.absorb(group, outcome);
    }

    /// Run `items.len()` units of `group` under supervision,
    /// returning one [`Outcome`] per unit in index order.
    ///
    /// `cached(i)` supplies a journaled outcome for unit `i` — it is
    /// **replayed** (fed to policy state, never re-run). `run(i,
    /// &items[i])` executes a fresh unit, returning the value and its
    /// virtual cost. Units are dispatched in rounds of
    /// `config.batch`; policy is re-checked between rounds, so the
    /// outcome sequence is a pure function of the config, the cached
    /// set, and the task results — identical at any thread count.
    pub fn run_units<T, R, E>(
        &mut self,
        group: &str,
        items: &[T],
        threads: usize,
        cached: impl Fn(usize) -> Option<Outcome<R, E>>,
        run: impl Fn(usize, &T) -> Result<(R, u64), E> + Sync,
    ) -> Vec<Outcome<R, E>>
    where
        T: Sync,
        R: Send,
        E: Send,
    {
        let n = items.len();
        let mut span = gtpin_obs::span("supervisor.units");
        if span.active() {
            span.arg_str("group", group.to_string());
            span.arg_u64("units", n as u64);
        }
        let mut out: Vec<Outcome<R, E>> = Vec::with_capacity(n);
        let mut index = 0usize;
        while index < n {
            let round_end = (index + self.config.batch).min(n);
            // Policy gates between rounds: an exhausted budget or an
            // open breaker skips everything that has not started.
            if self.out_of_budget() {
                self.report.budget_exhausted = true;
                for i in index..n {
                    let outcome = cached(i).unwrap_or(Outcome::SkippedBudget);
                    self.absorb(group, &outcome);
                    out.push(outcome);
                }
                break;
            }
            if self.group_degraded(group) {
                for i in index..n {
                    let outcome = cached(i).unwrap_or(Outcome::SkippedBreakerOpen);
                    self.absorb(group, &outcome);
                    out.push(outcome);
                }
                break;
            }

            // Fresh units of this round fan out; cached ones replay.
            let mut round: Vec<Option<Outcome<R, E>>> = (index..round_end).map(&cached).collect();
            let fresh: Vec<usize> = (index..round_end)
                .filter(|&i| round[i - index].is_none())
                .collect();
            let results = crate::parallel_indexed(fresh.len(), threads, |j| {
                let i = fresh[j];
                run(i, &items[i])
            });
            for (j, result) in fresh.iter().zip(results) {
                round[j - index] = Some(self.judge(result));
            }
            for outcome in round {
                let outcome = outcome.expect("every round slot resolved");
                self.absorb(group, &outcome);
                out.push(outcome);
            }
            index = round_end;
        }
        gtpin_obs::counter_add("supervisor.units", n as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds<R, E>(outcomes: &[Outcome<R, E>]) -> Vec<&'static str> {
        outcomes.iter().map(Outcome::kind).collect()
    }

    /// Tasks 3..6 fail; everything else succeeds with cost 10ns.
    fn flaky(i: usize, _: &u64) -> Result<(u64, u64), String> {
        if (3..6).contains(&i) {
            Err(format!("task {i} failed"))
        } else {
            Ok((i as u64, 10))
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_skips_the_rest() {
        let _guard = crate::test_guard();
        let items: Vec<u64> = (0..16).collect();
        let mut sup = Supervisor::new(SupervisorConfig {
            breaker_threshold: 3,
            batch: 2,
            ..SupervisorConfig::default()
        });
        let out = sup.run_units("app-a", &items, 1, |_| None, flaky);
        // Rounds of 2: failures at 3, 4, 5 — breaker opens folding
        // index 5 (round {4,5} completes), rest skipped.
        assert_eq!(
            kinds(&out),
            vec![
                "done",
                "done",
                "done",
                "failed",
                "failed",
                "failed",
                "skip-breaker",
                "skip-breaker",
                "skip-breaker",
                "skip-breaker",
                "skip-breaker",
                "skip-breaker",
                "skip-breaker",
                "skip-breaker",
                "skip-breaker",
                "skip-breaker",
            ]
        );
        assert!(sup.group_degraded("app-a"));
        assert!(!sup.group_degraded("app-b"));
        assert_eq!(sup.report().degraded_groups, vec!["app-a".to_string()]);
        assert_eq!(sup.report().skipped_breaker, 10);
    }

    #[test]
    fn success_resets_the_consecutive_counter() {
        let _guard = crate::test_guard();
        let items: Vec<u64> = (0..12).collect();
        let mut sup = Supervisor::new(SupervisorConfig {
            breaker_threshold: 3,
            batch: 1,
            ..SupervisorConfig::default()
        });
        // Alternate fail/ok: never 3 consecutive, breaker stays shut.
        let out = sup.run_units(
            "app",
            &items,
            1,
            |_| None,
            |i, _| {
                if i % 2 == 0 {
                    Err("even fails".to_string())
                } else {
                    Ok((i as u64, 1))
                }
            },
        );
        assert!(!sup.group_degraded("app"));
        assert_eq!(out.iter().filter(|o| o.is_failure()).count(), 6);
    }

    #[test]
    fn deadline_demotes_slow_tasks() {
        let _guard = crate::test_guard();
        let items: Vec<u64> = (0..6).collect();
        let mut sup = Supervisor::new(SupervisorConfig {
            deadline_virtual_ns: Some(100),
            breaker_threshold: 0,
            ..SupervisorConfig::default()
        });
        let out = sup.run_units(
            "app",
            &items,
            4,
            |_| None,
            |i, _| Ok::<_, String>((i as u64, if i == 2 { 500 } else { 50 })),
        );
        assert_eq!(out[2], Outcome::DeadlineExceeded { virtual_ns: 500 });
        assert_eq!(out.iter().filter(|o| o.is_done()).count(), 5);
        let report = sup.report();
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.virtual_ns_spent, 5 * 50 + 500);
    }

    #[test]
    fn budget_exhaustion_skips_cleanly() {
        let _guard = crate::test_guard();
        let items: Vec<u64> = (0..10).collect();
        let mut sup = Supervisor::new(SupervisorConfig {
            max_tasks: Some(4),
            batch: 2,
            ..SupervisorConfig::default()
        });
        let out = sup.run_units(
            "app",
            &items,
            2,
            |_| None,
            |i, _| Ok::<_, String>((i as u64, 1)),
        );
        assert_eq!(
            kinds(&out),
            vec![
                "done",
                "done",
                "done",
                "done",
                "skip-budget",
                "skip-budget",
                "skip-budget",
                "skip-budget",
                "skip-budget",
                "skip-budget",
            ]
        );
        assert!(sup.budget_exhausted());
        let report = sup.report();
        assert_eq!(report.tasks_run, 4);
        assert_eq!(report.skipped_budget, 6);
    }

    #[test]
    fn virtual_budget_spans_groups() {
        let _guard = crate::test_guard();
        let mut sup = Supervisor::new(SupervisorConfig {
            max_virtual_ns: Some(100),
            batch: 4,
            ..SupervisorConfig::default()
        });
        let items: Vec<u64> = (0..4).collect();
        let a = sup.run_units(
            "a",
            &items,
            1,
            |_| None,
            |i, _| Ok::<_, String>((i as u64, 30)),
        );
        assert!(a.iter().all(|o| o.is_done()));
        assert!(sup.budget_exhausted(), "120ns spent of 100ns budget");
        let b = sup.run_units(
            "b",
            &items,
            1,
            |_| None,
            |i, _| Ok::<_, String>((i as u64, 30)),
        );
        assert!(b.iter().all(|o| *o == Outcome::SkippedBudget));
    }

    #[test]
    fn outcomes_identical_at_every_thread_count() {
        let _guard = crate::test_guard();
        let items: Vec<u64> = (0..23).collect();
        let run_at = |threads: usize| {
            let mut sup = Supervisor::new(SupervisorConfig {
                breaker_threshold: 2,
                batch: 4,
                deadline_virtual_ns: Some(90),
                ..SupervisorConfig::default()
            });
            let out = sup.run_units(
                "app",
                &items,
                threads,
                |_| None,
                |i, _| {
                    if i % 7 == 3 {
                        Err(format!("flake {i}"))
                    } else {
                        Ok((i as u64 * 3, (i as u64 * 13) % 120))
                    }
                },
            );
            (kinds(&out), sup.report())
        };
        let serial = run_at(1);
        for threads in 2..=8 {
            assert_eq!(run_at(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn single_unit_admission_matches_batch_policy() {
        let _guard = crate::test_guard();
        let config = SupervisorConfig {
            breaker_threshold: 2,
            max_tasks: Some(5),
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(config);
        // Two consecutive failures open app-a's breaker.
        for _ in 0..2 {
            assert_eq!(sup.admit("app-a"), Admission::Granted);
            let o: Outcome<u64, String> = sup.judge(Err("boom".to_string()));
            sup.finish("app-a", &o);
        }
        assert_eq!(sup.admit("app-a"), Admission::RejectedBreakerOpen);
        // Other groups still run — until the task budget (5) is gone.
        for _ in 0..3 {
            assert_eq!(sup.admit("app-b"), Admission::Granted);
            let o: Outcome<u64, String> = sup.judge(Ok((1, 10)));
            sup.finish("app-b", &o);
        }
        assert_eq!(sup.admit("app-b"), Admission::RejectedBudget);
        assert!(sup.budget_exhausted());
        // Budget outranks the breaker, mirroring run_units' gates.
        assert_eq!(sup.admit("app-a"), Admission::RejectedBudget);
        let report = sup.report();
        assert_eq!(report.tasks_run, 5);
        assert_eq!(report.failed, 2);
        assert_eq!(report.degraded_groups, vec!["app-a".to_string()]);
    }

    #[test]
    fn judge_applies_the_deadline_demotion() {
        let _guard = crate::test_guard();
        let sup = Supervisor::new(SupervisorConfig {
            deadline_virtual_ns: Some(100),
            ..SupervisorConfig::default()
        });
        assert_eq!(
            sup.judge(Ok::<_, String>((7u64, 99))),
            Outcome::Done {
                value: 7,
                virtual_ns: 99
            }
        );
        assert_eq!(
            sup.judge(Ok::<_, String>((7u64, 101))),
            Outcome::DeadlineExceeded { virtual_ns: 101 }
        );
    }

    #[test]
    fn cached_outcomes_replay_the_same_policy_trajectory() {
        let _guard = crate::test_guard();
        let items: Vec<u64> = (0..16).collect();
        let config = SupervisorConfig {
            breaker_threshold: 3,
            batch: 2,
            ..SupervisorConfig::default()
        };
        let mut fresh_sup = Supervisor::new(config.clone());
        let fresh = fresh_sup.run_units("app", &items, 3, |_| None, flaky);

        // Resume after "crash at unit 5": outcomes 0..5 replay from
        // the journal, the rest run fresh.
        let prefix: Vec<Outcome<u64, String>> = fresh[..5].to_vec();
        let mut resumed_sup = Supervisor::new(config);
        let resumed = resumed_sup.run_units("app", &items, 3, |i| prefix.get(i).cloned(), flaky);
        assert_eq!(resumed, fresh);
        assert_eq!(resumed_sup.report(), fresh_sup.report());
    }
}
