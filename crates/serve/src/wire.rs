//! The length-prefixed TCP protocol.
//!
//! Every frame is `len:u32be` followed by `len` payload bytes, `len`
//! capped at [`MAX_FRAME`]. Request payloads open with an op byte:
//!
//! * [`OP_QUERY`] — `op:u8 n:u32be (ip:u32be)*n`: answer `n` addresses.
//! * [`OP_GENERATION`] — `op:u8`: report the serving snapshot generation.
//! * [`OP_HEALTH`] — `op:u8`: report the health state machine.
//! * [`OP_STATS`] — `op:u8`: scrape the live telemetry plane (a canonical
//!   binary [`StatsFrame`]: logical tick, per-shard queue depths,
//!   cumulative counters, retained windows, SLO state, trace digest).
//!
//! Response payloads open with a status byte: `0` then the body (for a
//! query, `n:u32be` followed by the concatenated verdict encodings of
//! [`crate::snapshot::Verdict::encode_into`]; for a generation probe,
//! `gen:u64be`; for a health probe, `state:u8 gen:u64be last_good:u64be
//! reason_len:u16be reason`; for a stats probe, the layout documented on
//! [`encode_stats_response`]), `1` then a UTF-8 error message, or `2` then
//! a UTF-8 message when admission control shed the request
//! ([`WireError::Overloaded`] — retryable, unlike status `1`). Decoding is
//! total — every malformed input returns a [`WireError`], never panics —
//! because the fault-injection suite feeds this module arbitrary bytes.

use crate::health::{HealthProbe, HealthState};
use crate::snapshot::{ListVerdict, Verdict, VerdictClass};
use crate::telemetry::{SloState, StatsFrame, WindowSummary};
use ar_blocklists::policy::{Action, ReuseEvidence};
use ar_blocklists::ListId;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::Ipv4Addr;

/// Largest accepted frame payload (1 MiB ≈ 260k query addresses).
pub const MAX_FRAME: u32 = 1 << 20;

/// Request op: batch verdict query.
pub const OP_QUERY: u8 = 1;
/// Request op: snapshot-generation probe.
pub const OP_GENERATION: u8 = 2;
/// Request op: health/readiness probe.
pub const OP_HEALTH: u8 = 3;
/// Request op: live telemetry scrape.
pub const OP_STATS: u8 = 4;

/// Why a frame or payload was refused.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// Transport failure underneath the codec.
    Io(std::io::Error),
    /// Declared length exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// Payload ended before its declared contents.
    Truncated(&'static str),
    /// Unknown request op byte.
    BadOp(u8),
    /// Structurally invalid payload.
    Malformed(&'static str),
    /// The peer answered with an error frame; the message is theirs.
    Remote(String),
    /// Admission control shed the request; retry after backoff.
    Overloaded(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME}"),
            WireError::Truncated(what) => write!(f, "truncated payload: {what}"),
            WireError::BadOp(op) => write!(f, "unknown op {op}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Remote(msg) => write!(f, "server error: {msg}"),
            WireError::Overloaded(msg) => write!(f, "server overloaded: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Query(Vec<u32>),
    Generation,
    Health,
    Stats,
}

/// Write one `len:u32be` + payload frame with a single `write_all`.
///
/// Two writes (prefix, then payload) would be a write-write-read pattern:
/// Nagle's algorithm holds the payload until the peer ACKs the prefix, and
/// the peer delays that ACK waiting for data of its own, so every frame
/// would stall for a delayed-ACK timeout.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() as u64 > u64::from(MAX_FRAME) {
        return Err(WireError::TooLarge(payload.len() as u32));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. A clean EOF on the length prefix is [`WireError::Closed`];
/// an oversized declaration is refused before any allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Truncated("length prefix")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated("frame body")
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(payload)
}

/// Encode a query request payload.
pub fn encode_query(ips: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + ips.len() * 4);
    out.push(OP_QUERY);
    out.extend_from_slice(&(ips.len() as u32).to_be_bytes());
    for ip in ips {
        out.extend_from_slice(&ip.to_be_bytes());
    }
    out
}

/// Encode a generation-probe request payload.
pub fn encode_generation_probe() -> Vec<u8> {
    vec![OP_GENERATION]
}

/// Encode a health-probe request payload.
pub fn encode_health_probe() -> Vec<u8> {
    vec![OP_HEALTH]
}

/// Encode a stats-scrape request payload.
pub fn encode_stats_probe() -> Vec<u8> {
    vec![OP_STATS]
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let (&op, rest) = payload
        .split_first()
        .ok_or(WireError::Truncated("empty payload"))?;
    match op {
        OP_QUERY => {
            let n_bytes: [u8; 4] = rest
                .get(..4)
                .and_then(|s| s.try_into().ok())
                .ok_or(WireError::Truncated("query count"))?;
            let n = u32::from_be_bytes(n_bytes) as usize;
            let body = rest.get(4..).unwrap_or(&[]);
            if body.len() != n * 4 {
                return Err(WireError::Malformed("query body length"));
            }
            let ips = body
                .chunks_exact(4)
                .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Ok(Request::Query(ips))
        }
        OP_GENERATION => {
            if rest.is_empty() {
                Ok(Request::Generation)
            } else {
                Err(WireError::Malformed("generation probe carries a body"))
            }
        }
        OP_HEALTH => {
            if rest.is_empty() {
                Ok(Request::Health)
            } else {
                Err(WireError::Malformed("health probe carries a body"))
            }
        }
        OP_STATS => {
            if rest.is_empty() {
                Ok(Request::Stats)
            } else {
                Err(WireError::Malformed("stats probe carries a body"))
            }
        }
        other => Err(WireError::BadOp(other)),
    }
}

/// Encode an ok query response payload.
pub fn encode_query_response(verdicts: &[Verdict]) -> Vec<u8> {
    let mut out = vec![0u8];
    out.extend_from_slice(&(verdicts.len() as u32).to_be_bytes());
    for v in verdicts {
        v.encode_into(&mut out);
    }
    out
}

/// Encode an ok generation response payload.
pub fn encode_generation_response(generation: u64) -> Vec<u8> {
    let mut out = vec![0u8];
    out.extend_from_slice(&generation.to_be_bytes());
    out
}

/// Encode an ok health response payload.
pub fn encode_health_response(probe: &HealthProbe) -> Vec<u8> {
    let reason = probe.reason.as_bytes();
    let reason_len = reason.len().min(usize::from(u16::MAX));
    let mut out = vec![0u8, probe.state.code()];
    out.extend_from_slice(&probe.generation.to_be_bytes());
    out.extend_from_slice(&probe.last_good_generation.to_be_bytes());
    out.extend_from_slice(&(reason_len as u16).to_be_bytes());
    out.extend_from_slice(&reason[..reason_len]);
    out
}

/// Encode one `name_len:u16be name value:u64be` counter entry.
fn encode_counter(out: &mut Vec<u8>, name: &str, value: u64) {
    let bytes = name.as_bytes();
    let len = bytes.len().min(usize::from(u16::MAX));
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&bytes[..len]);
    out.extend_from_slice(&value.to_be_bytes());
}

/// Encode a `count:u16be` + counter-entry map. Iteration over the
/// `BTreeMap` is sorted by name, so the encoding is canonical.
fn encode_counter_map(out: &mut Vec<u8>, counters: &BTreeMap<String, u64>) {
    let n = counters.len().min(usize::from(u16::MAX));
    out.extend_from_slice(&(n as u16).to_be_bytes());
    for (name, &value) in counters.iter().take(n) {
        encode_counter(out, name, value);
    }
}

/// Encode an ok stats response payload. Canonical layout (everything
/// big-endian, maps sorted by name):
///
/// ```text
/// status:u8(=0) tick:u64 gen:u64 health:u8
/// shard_count:u16 (queue_depth:u64)*shard_count
/// counter_count:u16 (name_len:u16 name value:u64)*counter_count
/// window_count:u16 (index:u64 counter_count:u16 counters
///                   batch_count:u64 batch_sum:u64)*window_count
/// breached:u8 breaches:u64 recoveries:u64 windows_evaluated:u64
/// last_shed_permille:u32 shed_budget_permille:u32
/// trace_count:u64 trace_digest:u64
/// ```
pub fn encode_stats_response(frame: &StatsFrame) -> Vec<u8> {
    let mut out = vec![0u8];
    out.extend_from_slice(&frame.tick.to_be_bytes());
    out.extend_from_slice(&frame.generation.to_be_bytes());
    out.push(frame.health_state.code());
    let shards = frame.queue_depths.len().min(usize::from(u16::MAX));
    out.extend_from_slice(&(shards as u16).to_be_bytes());
    for depth in frame.queue_depths.iter().take(shards) {
        out.extend_from_slice(&depth.to_be_bytes());
    }
    encode_counter_map(&mut out, &frame.counters);
    let windows = frame.windows.len().min(usize::from(u16::MAX));
    out.extend_from_slice(&(windows as u16).to_be_bytes());
    for w in frame.windows.iter().take(windows) {
        out.extend_from_slice(&w.index.to_be_bytes());
        encode_counter_map(&mut out, &w.counters);
        out.extend_from_slice(&w.batch_count.to_be_bytes());
        out.extend_from_slice(&w.batch_sum.to_be_bytes());
    }
    out.push(u8::from(frame.slo.breached));
    out.extend_from_slice(&frame.slo.breaches.to_be_bytes());
    out.extend_from_slice(&frame.slo.recoveries.to_be_bytes());
    out.extend_from_slice(&frame.slo.windows_evaluated.to_be_bytes());
    out.extend_from_slice(&frame.slo.last_shed_permille.to_be_bytes());
    out.extend_from_slice(&frame.slo.shed_budget_permille.to_be_bytes());
    out.extend_from_slice(&frame.trace_count.to_be_bytes());
    out.extend_from_slice(&frame.trace_digest.to_be_bytes());
    out
}

/// Decode a `count:u16be` + counter-entry map (inverse of
/// [`encode_counter_map`]).
fn decode_counter_map(r: &mut Reader<'_>) -> Result<BTreeMap<String, u64>, WireError> {
    let n = r.u16("counter count")?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let name_len = usize::from(r.u16("counter name length")?);
        let bytes = r.bytes(name_len, "counter name")?;
        let name = std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed("counter name utf-8"))?
            .to_owned();
        let value = r.u64("counter value")?;
        out.insert(name, value);
    }
    Ok(out)
}

/// Decode an ok stats response (client side).
pub fn decode_stats_response(payload: &[u8]) -> Result<StatsFrame, WireError> {
    let body = response_body(payload)?;
    let mut r = Reader { buf: body, pos: 0 };
    let tick = r.u64("stats tick")?;
    let generation = r.u64("stats generation")?;
    let health_state = HealthState::from_code(r.u8("stats health state")?)
        .ok_or(WireError::Malformed("stats health state"))?;
    let shards = r.u16("shard count")?;
    let mut queue_depths = Vec::with_capacity(usize::from(shards));
    for _ in 0..shards {
        queue_depths.push(r.u64("queue depth")?);
    }
    let counters = decode_counter_map(&mut r)?;
    let window_count = r.u16("window count")?;
    let mut windows = Vec::with_capacity(usize::from(window_count));
    for _ in 0..window_count {
        let index = r.u64("window index")?;
        let counters = decode_counter_map(&mut r)?;
        let batch_count = r.u64("window batch count")?;
        let batch_sum = r.u64("window batch sum")?;
        windows.push(WindowSummary {
            index,
            counters,
            batch_count,
            batch_sum,
        });
    }
    let breached = match r.u8("slo breached")? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("slo breached flag")),
    };
    let slo = SloState {
        breached,
        breaches: r.u64("slo breaches")?,
        recoveries: r.u64("slo recoveries")?,
        windows_evaluated: r.u64("slo windows evaluated")?,
        last_shed_permille: r.u32("slo last shed permille")?,
        shed_budget_permille: r.u32("slo shed budget permille")?,
    };
    let trace_count = r.u64("trace count")?;
    let trace_digest = r.u64("trace digest")?;
    if r.pos != body.len() {
        return Err(WireError::Malformed("trailing bytes after stats frame"));
    }
    Ok(StatsFrame {
        tick,
        generation,
        health_state,
        queue_depths,
        counters,
        windows,
        slo,
        trace_count,
        trace_digest,
    })
}

/// Encode an error response payload.
pub fn encode_error_response(message: &str) -> Vec<u8> {
    let mut out = vec![1u8];
    out.extend_from_slice(message.as_bytes());
    out
}

/// Encode an overloaded (load-shed) response payload.
pub fn encode_overloaded_response(message: &str) -> Vec<u8> {
    let mut out = vec![2u8];
    out.extend_from_slice(message.as_bytes());
    out
}

/// Cursor-style helpers for response decoding.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let bytes: [u8; N] = self
            .buf
            .get(self.pos..self.pos + N)
            .and_then(|s| s.try_into().ok())
            .ok_or(WireError::Truncated(what))?;
        self.pos += N;
        Ok(bytes)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take::<1>(what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(what)?))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(what)?))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(what)?))
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let slice = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(WireError::Truncated(what))?;
        self.pos += n;
        Ok(slice)
    }
}

/// Split a response payload into its ok body, or surface the remote error.
fn response_body(payload: &[u8]) -> Result<&[u8], WireError> {
    match payload.split_first() {
        Some((0, body)) => Ok(body),
        Some((1, msg)) => Err(WireError::Remote(String::from_utf8_lossy(msg).into_owned())),
        Some((2, msg)) => Err(WireError::Overloaded(
            String::from_utf8_lossy(msg).into_owned(),
        )),
        Some(_) => Err(WireError::Malformed("unknown response status")),
        None => Err(WireError::Truncated("empty response")),
    }
}

/// Decode one verdict at the cursor (inverse of [`Verdict::encode_into`]).
fn decode_verdict(r: &mut Reader<'_>) -> Result<Verdict, WireError> {
    let ip = Ipv4Addr::from(r.u32("verdict ip")?);
    let generation = r.u64("verdict generation")?;
    let class = match r.u8("verdict class")? {
        0 => VerdictClass::Unlisted,
        1 => VerdictClass::Block,
        2 => VerdictClass::Greylist,
        _ => return Err(WireError::Malformed("verdict class")),
    };
    let evidence = match r.u8("evidence tag")? {
        0 => None,
        1 => Some(ReuseEvidence::Natted {
            users: r.u32("nat users")?,
        }),
        2 => Some(ReuseEvidence::DynamicPrefix),
        _ => return Err(WireError::Malformed("evidence tag")),
    };
    let n_lists = r.u16("list count")?;
    let mut lists = Vec::with_capacity(usize::from(n_lists));
    for _ in 0..n_lists {
        let list = ListId(r.u16("list id")?);
        let action = match r.u8("list action")? {
            0 => Action::Block,
            1 => Action::Greylist,
            _ => return Err(WireError::Malformed("list action")),
        };
        lists.push(ListVerdict { list, action });
    }
    Ok(Verdict {
        ip,
        generation,
        class,
        evidence,
        lists,
    })
}

/// Decode an ok query response back into verdicts (client side).
pub fn decode_query_response(payload: &[u8]) -> Result<Vec<Verdict>, WireError> {
    let body = response_body(payload)?;
    let mut r = Reader { buf: body, pos: 0 };
    let n = r.u32("verdict count")?;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(decode_verdict(&mut r)?);
    }
    if r.pos != body.len() {
        return Err(WireError::Malformed("trailing bytes after verdicts"));
    }
    Ok(out)
}

/// Decode an ok generation response (client side).
pub fn decode_generation_response(payload: &[u8]) -> Result<u64, WireError> {
    let body = response_body(payload)?;
    let mut r = Reader { buf: body, pos: 0 };
    let gen = r.u64("generation")?;
    if r.pos != body.len() {
        return Err(WireError::Malformed("trailing bytes after generation"));
    }
    Ok(gen)
}

/// Decode an ok health response (client side).
pub fn decode_health_response(payload: &[u8]) -> Result<HealthProbe, WireError> {
    let body = response_body(payload)?;
    let mut r = Reader { buf: body, pos: 0 };
    let state = HealthState::from_code(r.u8("health state")?)
        .ok_or(WireError::Malformed("health state"))?;
    let generation = r.u64("serving generation")?;
    let last_good_generation = r.u64("last-good generation")?;
    let reason_len = usize::from(r.u16("reason length")?);
    let reason_bytes = body
        .get(r.pos..r.pos + reason_len)
        .ok_or(WireError::Truncated("health reason"))?;
    r.pos += reason_len;
    if r.pos != body.len() {
        return Err(WireError::Malformed("trailing bytes after health reason"));
    }
    let reason = std::str::from_utf8(reason_bytes)
        .map_err(|_| WireError::Malformed("health reason utf-8"))?
        .to_owned();
    Ok(HealthProbe {
        state,
        generation,
        last_good_generation,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let ips = vec![0u32, 1, 0xDEAD_BEEF, u32::MAX];
        let payload = encode_query(&ips);
        assert_eq!(decode_request(&payload).unwrap(), Request::Query(ips));
        assert_eq!(
            decode_request(&encode_generation_probe()).unwrap(),
            Request::Generation
        );
    }

    #[test]
    fn malformed_requests_are_refused_not_panicked() {
        assert!(matches!(decode_request(&[]), Err(WireError::Truncated(_))));
        assert!(matches!(decode_request(&[9]), Err(WireError::BadOp(9))));
        assert!(matches!(
            decode_request(&[OP_QUERY, 0, 0]),
            Err(WireError::Truncated(_))
        ));
        // Count says 2 addresses, body carries 1.
        let mut short = encode_query(&[5, 6]);
        short.truncate(short.len() - 4);
        assert!(matches!(
            decode_request(&short),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_request(&[OP_GENERATION, 0]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        /// Counts `write` calls, so the test sees how a frame is handed to
        /// the socket, not only which bytes it carries.
        #[derive(Default)]
        struct CountingWriter {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut out = CountingWriter::default();
        write_frame(&mut out, b"hello").unwrap();
        assert_eq!(out.writes, 1, "a frame must leave in one write");
        write_frame(&mut out, b"").unwrap();
        assert_eq!(out.writes, 2, "an empty frame is one write too");
        let mut cursor = &out.bytes[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Closed)));

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut cursor = &oversized[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::TooLarge(_))
        ));

        // Truncated body: declared 10 bytes, stream carries 3.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&10u32.to_be_bytes());
        truncated.extend_from_slice(b"abc");
        let mut cursor = &truncated[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Truncated(_))
        ));
    }

    #[test]
    fn error_responses_surface_the_remote_message() {
        let payload = encode_error_response("bad op 9");
        match decode_query_response(&payload) {
            Err(WireError::Remote(msg)) => assert_eq!(msg, "bad op 9"),
            other => panic!("expected remote error, got {other:?}"),
        }
    }

    #[test]
    fn generation_response_round_trips() {
        let payload = encode_generation_response(42);
        assert_eq!(decode_generation_response(&payload).unwrap(), 42);
    }

    #[test]
    fn health_probe_and_response_round_trip() {
        assert_eq!(
            decode_request(&encode_health_probe()).unwrap(),
            Request::Health
        );
        assert!(matches!(
            decode_request(&[OP_HEALTH, 0]),
            Err(WireError::Malformed(_))
        ));
        let probe = HealthProbe {
            state: HealthState::Degraded,
            generation: 7,
            last_good_generation: 6,
            reason: "snapshot rejected: checksum mismatch".to_owned(),
        };
        let decoded = decode_health_response(&encode_health_response(&probe)).unwrap();
        assert_eq!(decoded, probe);
        // Empty reason is fine too.
        let quiet = HealthProbe {
            state: HealthState::Serving,
            generation: 1,
            last_good_generation: 1,
            reason: String::new(),
        };
        assert_eq!(
            decode_health_response(&encode_health_response(&quiet)).unwrap(),
            quiet
        );
        // A truncated reason is refused, not panicked.
        let mut cut = encode_health_response(&probe);
        cut.truncate(cut.len() - 3);
        assert!(matches!(
            decode_health_response(&cut),
            Err(WireError::Truncated(_))
        ));
    }

    #[test]
    fn stats_probe_and_response_round_trip() {
        assert_eq!(
            decode_request(&encode_stats_probe()).unwrap(),
            Request::Stats
        );
        assert!(matches!(
            decode_request(&[OP_STATS, 1]),
            Err(WireError::Malformed(_))
        ));
        let frame = StatsFrame {
            tick: 4096,
            generation: 3,
            health_state: HealthState::Serving,
            queue_depths: vec![0, 7, 2],
            counters: BTreeMap::from([
                ("serve.queries".to_owned(), 4096),
                ("serve.overloaded".to_owned(), 12),
            ]),
            windows: vec![
                WindowSummary {
                    index: 2,
                    counters: BTreeMap::from([("queries".to_owned(), 1024)]),
                    batch_count: 16,
                    batch_sum: 1024,
                },
                WindowSummary {
                    index: 3,
                    counters: BTreeMap::new(),
                    batch_count: 0,
                    batch_sum: 0,
                },
            ],
            slo: SloState {
                breached: true,
                breaches: 2,
                recoveries: 1,
                windows_evaluated: 3,
                last_shed_permille: 75,
                shed_budget_permille: 50,
            },
            trace_count: 40,
            trace_digest: 0xDEAD_BEEF_CAFE_F00D,
        };
        let payload = encode_stats_response(&frame);
        assert_eq!(decode_stats_response(&payload).unwrap(), frame);
        // Canonical: encoding the decoded frame is byte-identical.
        assert_eq!(
            encode_stats_response(&decode_stats_response(&payload).unwrap()),
            payload
        );
        // Truncation anywhere is refused, not panicked.
        for cut in [1, payload.len() / 2, payload.len() - 1] {
            assert!(decode_stats_response(&payload[..cut]).is_err());
        }
        // Trailing garbage is refused.
        let mut long = payload.clone();
        long.push(0);
        assert!(matches!(
            decode_stats_response(&long),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn empty_stats_frame_round_trips() {
        let frame = StatsFrame {
            tick: 0,
            generation: 1,
            health_state: HealthState::Starting,
            queue_depths: Vec::new(),
            counters: BTreeMap::new(),
            windows: Vec::new(),
            slo: SloState {
                breached: false,
                breaches: 0,
                recoveries: 0,
                windows_evaluated: 0,
                last_shed_permille: 0,
                shed_budget_permille: 50,
            },
            trace_count: 0,
            trace_digest: 0,
        };
        let payload = encode_stats_response(&frame);
        assert_eq!(decode_stats_response(&payload).unwrap(), frame);
    }

    #[test]
    fn overloaded_responses_decode_as_retryable() {
        let payload = encode_overloaded_response("shard 1 queue full");
        match decode_query_response(&payload) {
            Err(WireError::Overloaded(msg)) => assert_eq!(msg, "shard 1 queue full"),
            other => panic!("expected overloaded, got {other:?}"),
        }
        // Status 2 is distinct from status 1: callers can tell shed from error.
        match decode_generation_response(&encode_error_response("boom")) {
            Err(WireError::Remote(msg)) => assert_eq!(msg, "boom"),
            other => panic!("expected remote error, got {other:?}"),
        }
    }
}
