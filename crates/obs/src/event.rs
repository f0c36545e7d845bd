//! The event taxonomy: discrete, notable things a run did that a terminal
//! per-phase verdict would hide.

use crate::json::Json;

/// What happened. The set is closed on purpose — dashboards and tests match
/// on it — and each variant has a stable snake_case wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A bt_ping verification send was retried under the retry policy.
    RetryFired,
    /// A crawler checkpoint was written at a scheduled crash.
    CheckpointWritten,
    /// The crawler resumed from a checkpoint after an outage's downtime.
    CheckpointResumed,
    /// A daily feed snapshot never arrived (count = days).
    FeedDayMissed,
    /// Listing reconstruction interpolated across missed snapshot days
    /// (count = bridged days).
    FeedDayBridged,
    /// A feed snapshot arrived truncated or corrupt.
    FeedSnapshotDamaged,
    /// Connection-log entries were censored by a scheduled Atlas gap.
    AtlasGapCensored,
    /// An AS-level blackout window opened.
    AsBlackoutEntered,
    /// An AS-level blackout window closed.
    AsBlackoutExited,
    /// A phase completed but the panic guard or fault accounting marked it
    /// degraded; the detail carries the triggering message.
    PhaseDegraded,
    /// A phase panicked and was replaced by its empty fallback.
    PhaseFailed,
    /// `ar-lint` flagged a non-allowlisted invariant violation; the detail
    /// carries the rendered finding (path, rule, symbol, message).
    LintFinding,
    /// A new reputation snapshot was installed atomically; the detail
    /// carries the old and new generation numbers.
    SnapshotSwapped,
    /// An `ar-serve` wire frame failed to decode and was refused without
    /// tearing the server down.
    FrameRejected,
    /// One `ar-serve` shard worker came up and began accepting work.
    ShardStarted,
    /// An `ar-serve` shard worker panicked; the supervisor caught it and
    /// the connection it was servicing was dropped.
    WorkerPanicked,
    /// The shard supervisor restarted a panicked worker; the shard is
    /// accepting work again.
    WorkerRestarted,
    /// A snapshot offered for hot swap failed validation (checksum,
    /// structure, or generation monotonicity) and was refused; the server
    /// keeps serving the pinned last-good generation.
    SnapshotRejected,
    /// The serve health state machine transitioned; the detail carries
    /// `old -> new` and the triggering reason.
    HealthChanged,
    /// An SLO error budget was exhausted inside a telemetry window; the
    /// detail carries the objective and the measured burn.
    SloBreach,
    /// A previously breached SLO came back inside budget.
    SloRecovered,
    /// An `OP_STATS` probe was answered with a live telemetry frame.
    StatsServed,
    /// A record was appended to the `ar-store` freezer; the count
    /// aggregates records written in one ingest.
    RecordFrozen,
    /// An `ar-store` file failed its FNV-1a checksum on open or read;
    /// the store degraded to the last valid record instead of serving
    /// the corrupt bytes.
    StoreChecksumFailure,
    /// A `SnapshotDelta` was applied to a base ReputationSnapshot and the
    /// rebuilt generation matched the expected content checksum.
    DeltaApplied,
    /// `Study::run` reloaded a completed phase artifact from the store
    /// instead of replaying the phase.
    ResumeHit,
}

impl EventKind {
    /// Stable snake_case name, as the JSON report writes it.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RetryFired => "retry_fired",
            EventKind::CheckpointWritten => "checkpoint_written",
            EventKind::CheckpointResumed => "checkpoint_resumed",
            EventKind::FeedDayMissed => "feed_day_missed",
            EventKind::FeedDayBridged => "feed_day_bridged",
            EventKind::FeedSnapshotDamaged => "feed_snapshot_damaged",
            EventKind::AtlasGapCensored => "atlas_gap_censored",
            EventKind::AsBlackoutEntered => "as_blackout_entered",
            EventKind::AsBlackoutExited => "as_blackout_exited",
            EventKind::PhaseDegraded => "phase_degraded",
            EventKind::PhaseFailed => "phase_failed",
            EventKind::LintFinding => "lint_finding",
            EventKind::SnapshotSwapped => "snapshot_swapped",
            EventKind::FrameRejected => "frame_rejected",
            EventKind::ShardStarted => "shard_started",
            EventKind::WorkerPanicked => "worker_panicked",
            EventKind::WorkerRestarted => "worker_restarted",
            EventKind::SnapshotRejected => "snapshot_rejected",
            EventKind::HealthChanged => "health_changed",
            EventKind::SloBreach => "slo_breach",
            EventKind::SloRecovered => "slo_recovered",
            EventKind::StatsServed => "stats_served",
            EventKind::RecordFrozen => "record_frozen",
            EventKind::StoreChecksumFailure => "store_checksum_failure",
            EventKind::DeltaApplied => "delta_applied",
            EventKind::ResumeHit => "resume_hit",
        }
    }
}

/// One aggregated event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Phase that emitted it (`blocklists`, `crawl[0]`, `atlas`, …).
    pub phase: String,
    pub kind: EventKind,
    /// Sim-time seconds when the event is tied to a simulated moment
    /// (blackout windows, crashes); `None` for aggregate records.
    pub time: Option<u64>,
    /// How many occurrences this record aggregates (≥ 1).
    pub count: u64,
    /// Human-readable specifics; stable wording, no wall-clock content.
    pub detail: String,
}

impl Event {
    pub(crate) fn json(&self) -> Json {
        Json::object([
            ("phase", Json::Str(self.phase.clone())),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("time", self.time.map_or(Json::Null, Json::U64)),
            ("count", Json::U64(self.count)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}
