//! # ar-serve — the reputation-query service
//!
//! Turns the study's offline join artifacts into an online system: the
//! per-address verdict the paper's §5–§6 build toward — *is this IP on a
//! blocklist, which of the 151 lists carry it, is it reused (NATed /
//! dynamic-/24), and should a greylist policy soften the block?* —
//! answered from an immutable, versioned [`ReputationSnapshot`] by a
//! sharded server with atomic hot swap.
//!
//! * [`snapshot`] — the compiled artifact and single-lookup logic;
//! * [`wire`] — the length-prefixed TCP frame protocol;
//! * [`server`] — supervised shard workers, admission control, the
//!   batch API, validated hot swap, metrics;
//! * [`health`] — the `Starting → Serving → Degraded → Draining`
//!   readiness state machine and the serve health rollup;
//! * [`client`] — the blocking wire client with a seeded retry policy;
//! * [`chaos`] — serving-path fault injection hooks driven by
//!   [`ar_faults::ServeFaultPlan`];
//! * [`telemetry`] — the live telemetry plane, one fixed shape behind one
//!   lock: a ring of per-window counts over a logical query-ordinal
//!   clock, deterministic trace sampling, SLO burn-rate tracking, and the
//!   [`StatsFrame`] scraped via `OP_STATS`. Answered traffic is counted
//!   in the `serve.*` registry counters, never logged per batch.
//!
//! ```
//! use ar_blocklists::policy::GreylistPolicy;
//! use ar_blocklists::{build_catalog, ListId};
//! use ar_serve::{ReputationServer, ReputationSnapshot, SnapshotInput};
//!
//! let input = SnapshotInput {
//!     memberships: vec![(0xC0000207, ListId(3))],
//!     ..SnapshotInput::default()
//! };
//! let snapshot =
//!     ReputationSnapshot::build(1, build_catalog(), GreylistPolicy::default(), input);
//! let server = ReputationServer::new(snapshot, 2, ar_obs::Obs::disabled());
//! let verdict = server.verdict(0xC0000207);
//! assert_eq!(verdict.lists.len(), 1);
//! ```

pub mod chaos;
pub mod client;
pub mod health;
pub mod server;
pub mod snapshot;
pub mod telemetry;
pub mod wire;

pub use chaos::{misbehave, ChaosEvent, FaultInjector};
pub use client::{Client, RetryPolicy};
pub use health::{HealthProbe, HealthState, ServeHealthReport};
pub use server::{LatencySummary, ReputationServer, ServeOptions, ServerHandle};
pub use snapshot::{
    checksum_verdicts, encode_verdicts, fnv1a64, ListVerdict, ReputationSnapshot, SnapshotDefect,
    SnapshotInput, Verdict, VerdictClass,
};
pub use telemetry::{SloState, StatsFrame, WindowSummary};
pub use wire::{Request, WireError, MAX_FRAME};
