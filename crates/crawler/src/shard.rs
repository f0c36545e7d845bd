//! The crawl driver. Every crawl is one or more partitions of the address
//! space stepped hour by hour and merged deterministically; a serial crawl
//! is partition 0 of 1.
//!
//! ## Why artifacts are byte-identical at any thread count
//!
//! Everything observable is a function of the *partition layout*, never
//! the schedule:
//!
//! * the partition of the address space is `shard_of(ip)` — pure in the
//!   /24 prefix;
//! * each partition owns its frontier, dedup set, observation map, message
//!   log and RNG stream (seeded per partition index by the transport);
//! * cross-partition discoveries leave through per-hour outboxes, which
//!   the driver routes on the calling thread between hours, in
//!   source-partition order;
//! * the merge walks partitions in id order and re-derives the global
//!   uniques.
//!
//! Worker threads are therefore a pure performance knob. Each hour,
//! [`par::par_map`] steps the partitions on up to `threads` workers and
//! returns their outboxes in partition order; its join is the hour's only
//! synchronisation point, so no partition sees hour `r + 1` hand-offs
//! while stepping hour `r`.

use crate::config::CrawlConfig;
use crate::engine::{CrawlCheckpoint, CrawlReport, Engine, Handoff};
use ar_dht::KrpcTransport;
use ar_simnet::par;
use ar_simnet::time::{SimDuration, SimTime};

/// One partition of a crawl: its engine and its transport.
type Part<'c, N> = (Engine<'c>, N);

/// Run one crawl partitioned over `nets.len()` partitions on up to
/// `threads` worker threads. `nets[i]` is partition `i`'s transport — for
/// the simulated fabric, [`ar_dht::ShardedSimNetwork::shards`] builds the
/// set with one deterministic RNG stream per partition.
///
/// The report is byte-identical for every `threads` value (including 1);
/// only wall-clock changes.
pub fn crawl_sharded<N: KrpcTransport + Send>(
    nets: Vec<N>,
    config: &CrawlConfig,
    threads: usize,
) -> CrawlReport {
    if nets.is_empty() {
        return CrawlReport::empty(config.window);
    }
    let (mut parts, inboxes) = bootstrap(config, nets);
    run_hours(
        &mut parts,
        inboxes,
        config.window.start,
        config.window.end,
        threads,
    );
    Engine::finish_merged(config, parts.into_iter().map(|(engine, _)| engine))
}

/// Run a full crawl of `net` under `config`: partition 0 of 1.
pub fn crawl<N: KrpcTransport + Send>(net: &mut N, config: &CrawlConfig) -> CrawlReport {
    crawl_sharded(vec![net], config, 1)
}

/// Crawl from the window start until `stop`, returning a resumable
/// checkpoint instead of a report.
pub fn crawl_until<N: KrpcTransport + Send>(
    net: &mut N,
    config: &CrawlConfig,
    stop: SimTime,
) -> CrawlCheckpoint {
    let (parts, inboxes) = bootstrap(config, vec![net]);
    run_to_checkpoint(config, parts, inboxes, config.window.start, stop)
}

/// Resume a checkpointed crawl and run it up to `stop`, yielding another
/// checkpoint. Used when several outages hit one crawl: each middle
/// segment runs checkpoint-to-checkpoint, and [`resume`] finishes the last.
pub fn resume_until<N: KrpcTransport + Send>(
    net: &mut N,
    config: &CrawlConfig,
    checkpoint: CrawlCheckpoint,
    stop: SimTime,
) -> CrawlCheckpoint {
    let from = checkpoint.resume_at;
    let parts = vec![(Engine::from_checkpoint(config, checkpoint), net)];
    run_to_checkpoint(config, parts, vec![Vec::new()], from, stop)
}

/// Resume a checkpointed crawl and run it to the window end.
pub fn resume<N: KrpcTransport + Send>(
    net: &mut N,
    config: &CrawlConfig,
    checkpoint: CrawlCheckpoint,
) -> CrawlReport {
    let from = checkpoint.resume_at;
    let mut parts = vec![(Engine::from_checkpoint(config, checkpoint), net)];
    run_hours(&mut parts, vec![Vec::new()], from, config.window.end, 1);
    Engine::finish_merged(config, parts.into_iter().map(|(engine, _)| engine))
}

/// Fresh partitions, one per transport, through round −1: each bootstraps,
/// keeps its own share of the draw and routes the rest, which the first
/// hour applies.
fn bootstrap<N: KrpcTransport>(
    config: &CrawlConfig,
    nets: Vec<N>,
) -> (Vec<Part<'_, N>>, Vec<Vec<Handoff>>) {
    let count = nets.len();
    let mut parts: Vec<Part<'_, N>> = nets
        .into_iter()
        .enumerate()
        .map(|(id, net)| (Engine::new(config, id, count), net))
        .collect();
    let outboxes = parts
        .iter_mut()
        .map(|(engine, net)| {
            engine.bootstrap(net);
            engine.take_outbox()
        })
        .collect();
    (parts, route(outboxes))
}

/// Step a one-partition crawl from `from` up to `stop` (at most the window
/// end) and checkpoint it. Nothing is in flight at the checkpoint: a
/// partition that owns every address never hands anything off.
fn run_to_checkpoint<N: KrpcTransport + Send>(
    config: &CrawlConfig,
    mut parts: Vec<Part<'_, N>>,
    inboxes: Vec<Vec<Handoff>>,
    from: SimTime,
    stop: SimTime,
) -> CrawlCheckpoint {
    let stop = stop.min(config.window.end);
    let resume_at = run_hours(&mut parts, inboxes, from, stop, 1);
    let (engine, _) = parts.pop().expect("a checkpointed crawl has one partition");
    engine.into_checkpoint(resume_at)
}

/// The hourly driver every crawl runs on. Steps each partition through
/// the hours in `[from, to)` and returns the first hour not taken, so a
/// resumed crawl stays on the same hourly grid. Each hour, `par_map`
/// applies every partition's inbox, runs its hour and collects its
/// outbox; the calling thread then routes the outboxes into the next
/// hour's inboxes. Hand-offs routed by the last hour are applied before
/// returning: they still count as observations even though no further
/// hour crawls them.
fn run_hours<N: KrpcTransport + Send>(
    parts: &mut [Part<'_, N>],
    mut inboxes: Vec<Vec<Handoff>>,
    from: SimTime,
    to: SimTime,
    threads: usize,
) -> SimTime {
    let hour = SimDuration::from_hours(1);
    let mut now = from;
    while now < to {
        let outboxes = par::par_map(
            threads,
            parts.iter_mut().zip(inboxes),
            |((engine, net), inbox)| {
                engine.apply_inbox(inbox);
                engine.step_hour(net, now);
                engine.take_outbox()
            },
        );
        inboxes = route(outboxes);
        now += hour;
    }
    for ((engine, _), inbox) in parts.iter_mut().zip(inboxes) {
        engine.apply_inbox(inbox);
    }
    now
}

/// Route each partition's outbox into the inboxes of the partitions it
/// addresses, walking sources in partition order: the order
/// `Engine::apply_inbox` relies on.
fn route(outboxes: Vec<Vec<Vec<Handoff>>>) -> Vec<Vec<Handoff>> {
    let mut inboxes = vec![Vec::new(); outboxes.len()];
    for outbox in outboxes {
        for (inbox, queue) in inboxes.iter_mut().zip(outbox) {
            inbox.extend(queue);
        }
    }
    inboxes
}
