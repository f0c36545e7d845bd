//! # ar-faults — seeded, deterministic fault plans for the measurement pipeline
//!
//! Real measurement campaigns run against a hostile, lossy Internet: whole
//! ASes fall off the routing table for hours, the crawler host crashes
//! mid-crawl, blocklist feeds miss collection days or ship truncated files,
//! Atlas probes go dark, and DHT packet loss comes in bursts rather than
//! i.i.d. drops. This crate schedules all of those failures up front as a
//! [`FaultPlan`] — a pure function of `(Seed, intensity, FaultDomain)` —
//! so a faulted study is exactly as reproducible as a fault-free one.
//!
//! Two invariants make the plan safe to thread through every subsystem:
//!
//! 1. **Zero intensity is a strict no-op.** A plan generated at intensity
//!    0.0 has every schedule empty, every `has_*` probe returns `false`,
//!    and consumers take their unfaulted code paths — output stays
//!    byte-identical to a study with no plan at all.
//! 2. **Fault coins never touch consumer RNG streams.** The plan is
//!    generated from its own forked seed, and per-packet loss decisions use
//!    the stateless [`coin`] hash over `(plan seed, time, endpoint, nonce)`
//!    rather than advancing any simulation RNG, so injecting faults cannot
//!    perturb the rest of the simulation's randomness.

pub mod coin;
pub mod plan;
pub mod serve_plan;

pub use plan::{
    AtlasGap, Blackout, CrawlerOutage, FaultDomain, FaultPlan, FaultSpec, FeedFault, FeedFaultKind,
    LossBurst, PlanSummary,
};
pub use serve_plan::{
    ClientMisbehavior, ServeFaultConfig, ServeFaultPlan, ServePlanSummary, SnapshotFault,
};
