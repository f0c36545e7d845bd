//! The serve health/readiness state machine.
//!
//! The server moves through `Starting → Serving`, drops to `Degraded`
//! when a snapshot offer fails validation (it keeps answering from the
//! pinned last-good generation), recovers to `Serving` on the next valid
//! swap, and enters `Draining` when shutdown begins. The state is
//! queryable over the wire ([`crate::wire::OP_HEALTH`]) and exported as
//! the `serve.health` gauge plus `health_changed` events, so a chaos run
//! is diagnosable from the RunReport alone.

use ar_obs::{EventKind, Obs};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// Phase name shared with [`crate::server::PHASE`] (duplicated here to
/// keep this module free of a circular import).
const PHASE: &str = "serve";

/// Where the server is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Constructed but not yet accepting TCP connections.
    Starting,
    /// Accepting and answering from a validated snapshot.
    Serving,
    /// Still answering, but pinned to the last-good snapshot after a
    /// rejected swap offer.
    Degraded,
    /// Shutdown has begun; the acceptor is stopping and workers drain.
    Draining,
}

impl HealthState {
    /// Stable wire code (also the `serve.health` gauge value).
    pub fn code(&self) -> u8 {
        match self {
            HealthState::Starting => 0,
            HealthState::Serving => 1,
            HealthState::Degraded => 2,
            HealthState::Draining => 3,
        }
    }

    pub fn from_code(code: u8) -> Option<HealthState> {
        match code {
            0 => Some(HealthState::Starting),
            1 => Some(HealthState::Serving),
            2 => Some(HealthState::Degraded),
            3 => Some(HealthState::Draining),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Starting => "starting",
            HealthState::Serving => "serving",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The shared mutable cell behind the state machine: a lock-free state
/// code for the hot read path, a reason string behind a short lock.
pub(crate) struct HealthCell {
    state: AtomicU8,
    reason: Mutex<String>,
    last_good_generation: AtomicU64,
}

impl HealthCell {
    pub(crate) fn starting(last_good_generation: u64) -> HealthCell {
        HealthCell {
            state: AtomicU8::new(HealthState::Starting.code()),
            reason: Mutex::new(String::new()),
            last_good_generation: AtomicU64::new(last_good_generation),
        }
    }

    pub(crate) fn state(&self) -> HealthState {
        // The cell only ever stores codes produced by `HealthState::code`.
        HealthState::from_code(self.state.load(Ordering::Acquire)).unwrap_or(HealthState::Starting)
    }

    pub(crate) fn reason(&self) -> String {
        self.reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    pub(crate) fn last_good_generation(&self) -> u64 {
        self.last_good_generation.load(Ordering::Acquire)
    }

    pub(crate) fn pin_last_good(&self, generation: u64) {
        self.last_good_generation
            .store(generation, Ordering::Release);
    }

    /// Move to `next`, recording the transition as a `health_changed`
    /// event and the `serve.health` gauge. A same-state call only
    /// refreshes the reason — repeated degradations are already counted
    /// by their own `snapshot_rejected` events.
    pub(crate) fn transition(&self, obs: &Obs, next: HealthState, reason: &str) {
        let old = self.state.swap(next.code(), Ordering::AcqRel);
        *self.reason.lock().unwrap_or_else(PoisonError::into_inner) = reason.to_owned();
        obs.set_gauge("serve.health", i64::from(next.code()));
        if old != next.code() {
            let old_name = HealthState::from_code(old).map_or("unknown", |s| s.name());
            obs.event(
                PHASE,
                EventKind::HealthChanged,
                None,
                1,
                format!("{old_name} -> {}: {reason}", next.name()),
            );
        }
    }
}

/// One decoded wire health answer (what [`crate::Client::health`] returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthProbe {
    pub state: HealthState,
    /// Generation new queries answer from right now.
    pub generation: u64,
    /// Last generation that passed swap validation (equals `generation`
    /// unless the server is pinned after a rejected offer).
    pub last_good_generation: u64,
    /// Why the server is in this state; empty while everything is fine.
    pub reason: String,
}

impl HealthProbe {
    /// `"serving gen 3 (last good 3)"` or
    /// `"degraded gen 3 (last good 3): snapshot rejected: ..."`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} gen {} (last good {})",
            self.state, self.generation, self.last_good_generation
        );
        if !self.reason.is_empty() {
            out.push_str(": ");
            out.push_str(&self.reason);
        }
        out
    }
}

/// `StudyHealth`-style rollup of one serve run: the live state plus the
/// resilience counters that explain it, assembled from a [`HealthProbe`]
/// and the run's [`ar_obs::RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeHealthReport {
    pub state: HealthState,
    pub generation: u64,
    pub last_good_generation: u64,
    pub reason: String,
    /// Worker panics the supervisor caught.
    pub worker_panics: u64,
    /// Workers the supervisor restarted after a panic.
    pub worker_restarts: u64,
    /// Snapshot offers refused by swap validation.
    pub snapshots_rejected: u64,
    /// Requests shed by admission control.
    pub overloaded: u64,
    /// Frames refused: the aggregate is *derived* as the sum of the four
    /// per-reason counters below, so it can never drift from its parts
    /// (only the reasons are counted at the reject site).
    pub frames_rejected: u64,
    pub rejected_malformed: u64,
    pub rejected_oversized: u64,
    pub rejected_truncated: u64,
    pub rejected_overloaded: u64,
}

impl ServeHealthReport {
    /// The probe plus the resilience counters out of `counters` (an
    /// [`ar_obs::Obs::counters`] read; absent counters read as zero).
    pub fn from_parts(probe: &HealthProbe, counters: &BTreeMap<String, u64>) -> ServeHealthReport {
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
        let rejected_malformed = counter("serve.frames_rejected.malformed");
        let rejected_oversized = counter("serve.frames_rejected.oversized");
        let rejected_truncated = counter("serve.frames_rejected.truncated");
        let rejected_overloaded = counter("serve.frames_rejected.overloaded");
        ServeHealthReport {
            state: probe.state,
            generation: probe.generation,
            last_good_generation: probe.last_good_generation,
            reason: probe.reason.clone(),
            worker_panics: counter("serve.worker_panics"),
            worker_restarts: counter("serve.worker_restarts"),
            snapshots_rejected: counter("serve.snapshots_rejected"),
            overloaded: counter("serve.overloaded"),
            frames_rejected: rejected_malformed
                + rejected_oversized
                + rejected_truncated
                + rejected_overloaded,
            rejected_malformed,
            rejected_oversized,
            rejected_truncated,
            rejected_overloaded,
        }
    }

    /// Clean means the server ended up `Serving` and every caught panic
    /// was matched by a restart — injected chaos is fine as long as each
    /// fault was absorbed by its resilience mechanism. Refused frames,
    /// shed load and rejected snapshots are the mechanisms *working*.
    pub fn is_clean(&self) -> bool {
        self.state == HealthState::Serving && self.worker_panics == self.worker_restarts
    }

    /// Multi-line human rendering for the CLI selftest and CI smoke logs.
    pub fn render(&self) -> String {
        let probe = HealthProbe {
            state: self.state,
            generation: self.generation,
            last_good_generation: self.last_good_generation,
            reason: self.reason.clone(),
        };
        format!(
            "serve health: {}\n  worker panics {} / restarts {}\n  snapshots rejected {}\n  \
             overloaded {}\n  frames rejected {} (malformed {}, oversized {}, truncated {}, \
             overloaded {})",
            probe.render(),
            self.worker_panics,
            self.worker_restarts,
            self.snapshots_rejected,
            self.overloaded,
            self.frames_rejected,
            self.rejected_malformed,
            self.rejected_oversized,
            self.rejected_truncated,
            self.rejected_overloaded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_codes_round_trip_and_order() {
        for state in [
            HealthState::Starting,
            HealthState::Serving,
            HealthState::Degraded,
            HealthState::Draining,
        ] {
            assert_eq!(HealthState::from_code(state.code()), Some(state));
        }
        assert_eq!(HealthState::from_code(9), None);
    }

    #[test]
    fn transitions_emit_events_and_gauge_once_per_change() {
        let obs = Obs::new();
        let cell = HealthCell::starting(1);
        assert_eq!(cell.state(), HealthState::Starting);
        cell.transition(&obs, HealthState::Serving, "accepting");
        cell.transition(&obs, HealthState::Degraded, "snapshot rejected: checksum");
        // Same-state refresh: reason updates, no second event.
        cell.transition(&obs, HealthState::Degraded, "snapshot rejected: structure");
        assert_eq!(cell.reason(), "snapshot rejected: structure");
        let report = obs.report();
        assert_eq!(report.gauges["serve.health"], 2);
        assert_eq!(report.event_counts["health_changed"], 2);
    }

    #[test]
    fn clean_report_requires_serving_and_recovered_panics() {
        let probe = HealthProbe {
            state: HealthState::Serving,
            generation: 4,
            last_good_generation: 4,
            reason: String::new(),
        };
        let obs = Obs::new();
        obs.add("serve.worker_panics", 2);
        obs.add("serve.worker_restarts", 2);
        obs.add("serve.frames_rejected.malformed", 3);
        let report = ServeHealthReport::from_parts(&probe, &obs.counters());
        assert!(report.is_clean(), "{report:?}");
        assert!(report.render().contains("panics 2 / restarts 2"));
        // The aggregate is derived from the reasons, never read raw.
        assert_eq!(report.frames_rejected, 3);

        let degraded = HealthProbe {
            state: HealthState::Degraded,
            reason: "pinned".into(),
            ..probe.clone()
        };
        assert!(!ServeHealthReport::from_parts(&degraded, &obs.counters()).is_clean());

        let unrecovered = Obs::new();
        unrecovered.add("serve.worker_panics", 1);
        assert!(!ServeHealthReport::from_parts(&probe, &unrecovered.counters()).is_clean());
    }

    #[test]
    fn frames_rejected_aggregate_is_the_sum_of_reasons() {
        let probe = HealthProbe {
            state: HealthState::Serving,
            generation: 1,
            last_good_generation: 1,
            reason: String::new(),
        };
        let obs = Obs::new();
        obs.add("serve.frames_rejected.malformed", 2);
        obs.add("serve.frames_rejected.oversized", 3);
        obs.add("serve.frames_rejected.truncated", 5);
        obs.add("serve.frames_rejected.overloaded", 7);
        // A stray raw aggregate (e.g. in an artifact written before the
        // counter became derived) must not double-count.
        obs.add("serve.frames_rejected", 999);
        let report = ServeHealthReport::from_parts(&probe, &obs.counters());
        assert_eq!(report.frames_rejected, 17);
        assert_eq!(report.rejected_overloaded, 7);
        assert!(report
            .render()
            .contains("frames rejected 17 (malformed 2, oversized 3, truncated 5, overloaded 7)"));
    }
}
