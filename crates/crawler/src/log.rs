//! Crawl message log.
//!
//! "The crawler logs all the messages (bt_ping or get_nodes) sent and all
//! the messages received with the timestamps, which are then processed to
//! determine NATed addresses" (§3.1). At full volume that log is enormous
//! (the real crawl sent 1.6B messages), so retention is bounded: the log
//! keeps the first `head` and the most recent `tail` records, plus exact
//! counters — enough to audit behaviour and replay message timelines in
//! tests without unbounded memory.

use ar_simnet::codec::{Codec, Cursor};
use ar_simnet::time::SimTime;
use std::collections::VecDeque;
use std::net::SocketAddrV4;

/// Message direction, crawler-relative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Sent,
    Received,
}

impl Codec for Direction {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Direction::Sent => 0,
            Direction::Received => 1,
        });
    }
    fn decode(cur: &mut Cursor<'_>) -> Option<Direction> {
        match u8::decode(cur)? {
            0 => Some(Direction::Sent),
            1 => Some(Direction::Received),
            _ => None,
        }
    }
}

/// What kind of message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    GetNodes,
    BtPing,
    Reply,
}

impl Codec for MessageKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MessageKind::GetNodes => 0,
            MessageKind::BtPing => 1,
            MessageKind::Reply => 2,
        });
    }
    fn decode(cur: &mut Cursor<'_>) -> Option<MessageKind> {
        match u8::decode(cur)? {
            0 => Some(MessageKind::GetNodes),
            1 => Some(MessageKind::BtPing),
            2 => Some(MessageKind::Reply),
            _ => None,
        }
    }
}

/// One log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageRecord {
    pub time: SimTime,
    pub direction: Direction,
    pub kind: MessageKind,
    /// Remote endpoint (destination when sent, source when received).
    pub endpoint: SocketAddrV4,
}

ar_simnet::codec_struct!(MessageRecord {
    time,
    direction,
    kind,
    endpoint
});

/// Bounded-retention message log.
#[derive(Debug, Clone)]
pub struct MessageLog {
    head_cap: usize,
    tail_cap: usize,
    head: Vec<MessageRecord>,
    tail: VecDeque<MessageRecord>,
    /// Exact count of records ever offered (including evicted ones).
    pub total: u64,
    pub sent: u64,
    pub received: u64,
    /// Exact per-kind counts, independent of retention.
    pub get_nodes: u64,
    pub bt_pings: u64,
    pub replies: u64,
}

ar_simnet::codec_struct!(MessageLog {
    head_cap,
    tail_cap,
    head,
    tail,
    total,
    sent,
    received,
    get_nodes,
    bt_pings,
    replies
});

impl MessageLog {
    /// A log retaining the first `head_cap` and last `tail_cap` records.
    /// `disabled()` keeps counters only.
    pub fn new(head_cap: usize, tail_cap: usize) -> Self {
        MessageLog {
            head_cap,
            tail_cap,
            head: Vec::with_capacity(head_cap.min(1024)),
            tail: VecDeque::with_capacity(tail_cap.min(1024)),
            total: 0,
            sent: 0,
            received: 0,
            get_nodes: 0,
            bt_pings: 0,
            replies: 0,
        }
    }

    /// Counters only — the default for full-scale crawls.
    pub fn disabled() -> Self {
        Self::new(0, 0)
    }

    /// Deterministically merge per-shard logs into one canonical log.
    ///
    /// Exact counters sum. Retained records follow the sharded crawl's
    /// merge rule — shard id first, then each shard's own order: the head
    /// is the concatenation of shard heads truncated to `head_cap`, and
    /// the tail keeps the last `tail_cap` records of the concatenated
    /// shard tails. Independent of thread count by construction, since the
    /// inputs and the rule are.
    pub fn merge_shards(head_cap: usize, tail_cap: usize, parts: Vec<MessageLog>) -> MessageLog {
        let mut out = MessageLog::new(head_cap, tail_cap);
        for part in parts {
            out.total += part.total;
            out.sent += part.sent;
            out.received += part.received;
            out.get_nodes += part.get_nodes;
            out.bt_pings += part.bt_pings;
            out.replies += part.replies;
            for record in part.head.into_iter().chain(part.tail) {
                if out.head.len() < head_cap {
                    out.head.push(record);
                    continue;
                }
                if tail_cap == 0 {
                    break;
                }
                if out.tail.len() == tail_cap {
                    out.tail.pop_front();
                }
                out.tail.push_back(record);
            }
        }
        out
    }

    pub fn push(&mut self, record: MessageRecord) {
        self.total += 1;
        match record.direction {
            Direction::Sent => self.sent += 1,
            Direction::Received => self.received += 1,
        }
        match record.kind {
            MessageKind::GetNodes => self.get_nodes += 1,
            MessageKind::BtPing => self.bt_pings += 1,
            MessageKind::Reply => self.replies += 1,
        }
        if self.head.len() < self.head_cap {
            self.head.push(record);
            return;
        }
        if self.tail_cap == 0 {
            return;
        }
        if self.tail.len() == self.tail_cap {
            self.tail.pop_front();
        }
        self.tail.push_back(record);
    }

    /// Retained records, oldest first. A gap may exist between the head
    /// and tail segments; `truncated()` says whether it does.
    pub fn records(&self) -> impl Iterator<Item = &MessageRecord> {
        self.head.iter().chain(self.tail.iter())
    }

    pub fn retained(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    pub fn truncated(&self) -> bool {
        self.total > self.retained() as u64
    }

    /// How many records were offered but not retained (the head/tail gap).
    pub fn dropped_records(&self) -> u64 {
        self.total - self.retained() as u64
    }

    /// Publish the exact counters (and the truncation gauge) into the
    /// registry under `crawler.log.*`. The gauge is suffixed with the
    /// crawl's phase label because each period has its own log.
    pub fn record_obs(&self, obs: &ar_obs::Obs, phase: &str) {
        obs.add("crawler.log.records", self.total);
        obs.add("crawler.log.sent", self.sent);
        obs.add("crawler.log.received", self.received);
        obs.add("crawler.log.get_nodes", self.get_nodes);
        obs.add("crawler.log.bt_pings", self.bt_pings);
        obs.add("crawler.log.replies", self.replies);
        obs.set_gauge(
            &format!("crawler.log.dropped_records.{phase}"),
            self.dropped_records() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64) -> MessageRecord {
        MessageRecord {
            time: SimTime(t),
            direction: if t % 2 == 0 {
                Direction::Sent
            } else {
                Direction::Received
            },
            kind: MessageKind::BtPing,
            endpoint: "192.0.2.1:6881".parse().unwrap(),
        }
    }

    #[test]
    fn head_and_tail_retention() {
        let mut log = MessageLog::new(3, 2);
        for t in 0..10 {
            log.push(rec(t));
        }
        assert_eq!(log.total, 10);
        assert_eq!(log.sent, 5);
        assert_eq!(log.received, 5);
        let times: Vec<u64> = log.records().map(|r| r.time.0).collect();
        // First three, last two.
        assert_eq!(times, vec![0, 1, 2, 8, 9]);
        assert!(log.truncated());
        assert_eq!(log.dropped_records(), 5);
        assert_eq!(log.bt_pings, 10);
    }

    #[test]
    fn per_kind_counters_are_exact_despite_truncation() {
        let mut log = MessageLog::new(1, 1);
        for t in 0..6 {
            let mut r = rec(t);
            r.kind = match t % 3 {
                0 => MessageKind::GetNodes,
                1 => MessageKind::BtPing,
                _ => MessageKind::Reply,
            };
            log.push(r);
        }
        assert_eq!(log.retained(), 2);
        assert_eq!((log.get_nodes, log.bt_pings, log.replies), (2, 2, 2));
        assert_eq!(log.dropped_records(), 4);

        let obs = ar_obs::Obs::new();
        log.record_obs(&obs, "crawl[0]");
        let report = obs.report();
        assert_eq!(report.counters["crawler.log.bt_pings"], 2);
        assert_eq!(report.counters["crawler.log.records"], 6);
        assert_eq!(report.gauges["crawler.log.dropped_records.crawl[0]"], 4);
    }

    #[test]
    fn small_volumes_keep_everything() {
        let mut log = MessageLog::new(8, 8);
        for t in 0..5 {
            log.push(rec(t));
        }
        assert_eq!(log.retained(), 5);
        assert!(!log.truncated());
    }

    #[test]
    fn merge_shards_sums_counters_and_keeps_head_tail_rule() {
        // Three shard logs with distinct time ranges; merged retention is
        // shard order (not time order), head first, last records in tail.
        let mut parts = Vec::new();
        for shard in 0..3u64 {
            let mut log = MessageLog::new(2, 2);
            for t in 0..5 {
                log.push(rec(shard * 100 + t));
            }
            parts.push(log);
        }
        let merged = MessageLog::merge_shards(3, 2, parts);
        assert_eq!(merged.total, 15);
        assert_eq!(merged.bt_pings, 15);
        assert_eq!(merged.sent + merged.received, 15);
        let times: Vec<u64> = merged.records().map(|r| r.time.0).collect();
        // Head: shard 0's retained head (0,1) + shard 0's first tail
        // record (3); tail: the last two retained records overall.
        assert_eq!(times, vec![0, 1, 3, 203, 204]);
        assert!(merged.truncated());

        // Counter-only merge keeps nothing but stays exact.
        let a = MessageLog::merge_shards(0, 0, vec![MessageLog::new(1, 1)]);
        assert_eq!(a.retained(), 0);
    }

    #[test]
    fn disabled_counts_only() {
        let mut log = MessageLog::disabled();
        for t in 0..100 {
            log.push(rec(t));
        }
        assert_eq!(log.total, 100);
        assert_eq!(log.retained(), 0);
        assert!(log.truncated());
    }
}
