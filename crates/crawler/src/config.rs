//! Crawl configuration.

use ar_index::PrefixSet;
use ar_simnet::time::{SimDuration, TimeWindow};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Which part of the address space the crawler contacts.
///
/// The paper restricts its crawler "only to address spaces where blocklists
/// are present" (899K /24 prefixes) to limit probing burden (§3.1/§4).
/// The prefix index is shared via `Arc`: concurrent per-period crawls all
/// read the same set instead of each cloning it.
#[derive(Debug, Clone)]
pub enum Scope {
    /// Contact any discovered endpoint.
    All,
    /// Contact only endpoints inside these /24 prefixes.
    Prefixes(Arc<PrefixSet>),
}

impl Scope {
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        match self {
            Scope::All => true,
            Scope::Prefixes(set) => set.contains_ip(ip),
        }
    }

    pub fn prefix_count(&self) -> Option<usize> {
        match self {
            Scope::All => None,
            Scope::Prefixes(set) => Some(set.len()),
        }
    }
}

/// Retry-with-exponential-backoff for the bt_ping verification path.
///
/// A lost ping is not evidence of absence — under bursty loss or transient
/// blackouts an entire verification round can silently miss a live NAT.
/// With retries enabled, each unanswered ping is re-sent after 30 s
/// (doubling per attempt) until `max_retries` re-sends have been spent or
/// the next send would land more than 10 minutes past the original send
/// or past the crawl window.
///
/// The default is **off** (`max_retries == 0`): a retry-free engine is
/// byte-identical to the pre-retry engine, which the determinism matrix
/// depends on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-sends allowed per unanswered ping (0 = feature off).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// The resilience setting used by fault-sweep studies: up to three
    /// re-sends.
    pub fn resilient() -> Self {
        RetryPolicy { max_retries: 3 }
    }

    pub fn is_off(&self) -> bool {
        self.max_retries == 0
    }
}

/// Crawler parameters (§3.1).
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// The measurement window to crawl.
    pub window: TimeWindow,
    /// Address-space restriction.
    pub scope: Scope,
    /// Endpoints requested from the bootstrap node.
    pub bootstrap_size: usize,
    /// Maximum messages sent per virtual second (rate limiting to spare the
    /// network, as the paper's admins demanded).
    pub rate_per_sec: u32,
    /// Interval between bt_ping verification rounds (paper: hourly).
    pub ping_round_every: SimDuration,
    /// Per-IP contact suppression (paper: 20 minutes).
    pub per_ip_cooldown: SimDuration,
    /// Number of crawler vantage points. The paper runs one and notes
    /// "we could reduce this burden and have a faster coverage by having
    /// the crawler at multiple vantage points in different networks"
    /// (§3.1) — each vantage contributes its own send budget and bootstrap
    /// draw, while per-IP politeness remains global.
    pub vantage_points: u32,
    /// Skip the bt_ping verification round entirely and classify from
    /// discovery alone. **Ablation only** — quantifies the false positives
    /// the paper's design avoids (see `ablation_pingverify`).
    pub disable_ping_verification: bool,
    /// Retry policy for unanswered verification pings (default: off).
    pub ping_retry: RetryPolicy,
    /// Adaptive politeness (AIMD): halve the discovery rate when an hour's
    /// response rate falls below 20% (probing dead space annoys networks
    /// for nothing — the paper throttled after its "ping replies generated
    /// tremendous amount of incoming traffic"), and recover by 10% per
    /// healthy hour up to `rate_per_sec`.
    pub adaptive_rate: bool,
    /// Message-log retention: keep the first `log_head` and the most
    /// recent `log_tail` message records (0/0 keeps counters only —
    /// full-volume crawls would otherwise hold millions of records).
    pub log_head: usize,
    pub log_tail: usize,
    /// Logical partitions of the study's crawls: the address space is
    /// split by /24 prefix into this many independent crawl partitions
    /// with their own frontier, RNG stream and buffers. **Fixed regardless
    /// of worker threads** — the partition layout, not the thread count,
    /// determines the artifacts, which is what makes them byte-identical
    /// at any parallelism. [`crate::crawl_sharded`] takes one partition
    /// per transport it is given, so this is the count its callers build;
    /// [`crate::crawl`] and the checkpointed crawls are one partition.
    pub shards: usize,
}

impl CrawlConfig {
    pub fn new(window: TimeWindow) -> Self {
        CrawlConfig {
            window,
            scope: Scope::All,
            bootstrap_size: 64,
            rate_per_sec: 600,
            ping_round_every: SimDuration::from_hours(1),
            per_ip_cooldown: SimDuration::from_mins(20),
            vantage_points: 1,
            disable_ping_verification: false,
            ping_retry: RetryPolicy::default(),
            adaptive_rate: false,
            log_head: 0,
            log_tail: 0,
            shards: 8,
        }
    }

    pub fn with_scope(mut self, scope: Scope) -> Self {
        self.scope = scope;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_simnet::time::PERIOD_1;

    #[test]
    fn scope_filtering() {
        let p: ar_simnet::ip::Prefix24 = "10.1.2.0/24".parse().unwrap();
        let scope = Scope::Prefixes(Arc::new([p].into_iter().collect()));
        assert!(scope.contains("10.1.2.77".parse().unwrap()));
        assert!(!scope.contains("10.1.3.77".parse().unwrap()));
        assert!(Scope::All.contains("8.8.8.8".parse().unwrap()));
        assert_eq!(scope.prefix_count(), Some(1));
        assert_eq!(Scope::All.prefix_count(), None);
    }

    #[test]
    fn defaults_match_paper() {
        let c = CrawlConfig::new(PERIOD_1);
        assert_eq!(c.per_ip_cooldown, SimDuration::from_mins(20));
        assert_eq!(c.ping_round_every, SimDuration::from_hours(1));
        assert!(!c.disable_ping_verification);
        assert!(c.ping_retry.is_off(), "retries must default off");
    }

    #[test]
    fn resilient_retry_policy_is_on() {
        use crate::engine::{RETRY_BACKOFF, RETRY_DEADLINE};
        let p = RetryPolicy::resilient();
        assert!(!p.is_off());
        assert_eq!(p.max_retries, 3);
        assert!(!RETRY_BACKOFF.is_zero());
        assert!(RETRY_DEADLINE.as_secs() >= RETRY_BACKOFF.as_secs());
    }
}
