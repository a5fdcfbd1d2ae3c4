//! The open-loop client: one thread per connection sends each request
//! at its due time and reads replies in between.
//!
//! Latency runs from a request's *due* time, not from when it was
//! actually written, so a stall also charges the requests queued behind
//! it. Each frame (request line plus newline) goes out in one write,
//! with `TCP_NODELAY` on the client's sockets. The server's sockets are
//! left exactly as the program sets them. Replies are timestamped as
//! soon as they are read; checking them (a hash of the mapping bytes,
//! compared with the cold oracle after the phase) happens after that.

use crate::poll;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One scheduled request: due time (ns from the phase start) and the
/// key whose frame is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    /// Due time, ns from the phase start.
    pub due_ns: u64,
    /// Index into the frame table.
    pub key: usize,
}

/// How a reply ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A served mapping; `cached` as the service reported it.
    Ok {
        /// Served from a cache tier (or coalesced).
        cached: bool,
    },
    /// A typed error reply with this code.
    Rejected(String),
    /// A reply without a status or typed code.
    Untyped,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Done {
    /// The request as scheduled.
    pub send: Send,
    /// How late the send started, ns.
    pub lag_ns: u64,
    /// Reply arrival, ns after the due time.
    pub latency_ns: u64,
    /// Reply arrival, ns from the phase start.
    pub recv_ns: u64,
    /// Status of the reply.
    pub outcome: Outcome,
    /// Hash of the reply's `mapping` bytes (`0` when there is none).
    pub mapping_hash: u64,
    /// The reply's `trace` object, kept only when asked for.
    pub trace: Option<String>,
}

/// Hash of a byte string, eight bytes at a step: cheap enough for the
/// reading thread, and only ever compared with the cold oracle's bytes.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
    }
    h
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn rfind(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).rposition(|w| w == needle)
}

/// The `mapping` value of a map reply: after `"mapping":`, up to the
/// trace field when there is one, else up to the closing brace.
pub fn mapping_bytes(reply: &[u8], traced: bool) -> Option<&[u8]> {
    let head = &reply[..reply.len().min(512)];
    let start = find(head, b"\"mapping\":")? + b"\"mapping\":".len();
    let end = if traced {
        rfind(reply, b",\"trace\":{")?
    } else {
        reply.len().checked_sub(1)?
    };
    (start <= end).then(|| &reply[start..end])
}

/// Classifies one reply line.
pub fn classify(reply: &[u8]) -> Outcome {
    let head = &reply[..reply.len().min(160)];
    if find(head, b"\"status\":\"ok\"").is_some() {
        return Outcome::Ok {
            cached: find(head, b"\"cached\":true").is_some(),
        };
    }
    let Some(at) = find(reply, b"\"code\":\"") else {
        return Outcome::Untyped;
    };
    let rest = &reply[at + b"\"code\":\"".len()..];
    let end = rest.iter().position(|&b| b == b'"').unwrap_or(rest.len());
    Outcome::Rejected(String::from_utf8_lossy(&rest[..end]).into_owned())
}

fn since(t0: Instant) -> u64 {
    Instant::now().saturating_duration_since(t0).as_nanos() as u64
}

/// Drives one connection through `sends` (ascending due times) from
/// `t0`, and returns every reply in send order. Gives up with an error
/// when replies are still missing `drain` after the last due time.
pub fn drive(
    stream: &mut TcpStream,
    frames: &[Vec<u8>],
    sends: &[Send],
    t0: Instant,
    keep_trace: bool,
    drain: Duration,
) -> Result<Vec<Done>, String> {
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let last_due = sends.last().map_or(0, |s| s.due_ns);
    let give_up = last_due + drain.as_nanos() as u64;
    let mut next = 0usize;
    // (send index, lag) of requests written (or being written), FIFO.
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
    // The frame being written and how much of it is out.
    let mut writing: Option<(usize, usize)> = None;
    let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut tmp = vec![0u8; 256 << 10];
    let mut out = Vec::with_capacity(sends.len());
    loop {
        // Send everything due, one whole frame per write call.
        loop {
            let now = since(t0);
            if writing.is_none() && next < sends.len() && sends[next].due_ns <= now {
                inflight.push_back((next, now - sends[next].due_ns));
                writing = Some((next, 0));
                next += 1;
            }
            let Some((i, off)) = writing else { break };
            let frame = &frames[sends[i].key];
            match stream.write(&frame[off..]) {
                Ok(n) if off + n == frame.len() => writing = None,
                Ok(n) => {
                    writing = Some((i, off + n));
                    break;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        // Read whatever has arrived.
        match stream.read(&mut tmp) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                let recv_ns = since(t0);
                let scan_from = rbuf.len();
                rbuf.extend_from_slice(&tmp[..n]);
                let mut start = 0usize;
                let mut at = scan_from;
                while let Some(k) = rbuf[at..].iter().position(|&b| b == b'\n') {
                    let line = &rbuf[start..at + k];
                    let (i, lag_ns) = inflight
                        .pop_front()
                        .ok_or("a reply arrived that nobody asked for")?;
                    let send = sends[i];
                    let outcome = classify(line);
                    let mapping_hash = match outcome {
                        Outcome::Ok { .. } => mapping_bytes(line, keep_trace).map_or(0, hash_bytes),
                        _ => 0,
                    };
                    let trace = if keep_trace {
                        rfind(line, b",\"trace\":{").map(|p| {
                            String::from_utf8_lossy(&line[p + b",\"trace\":".len()..line.len() - 1])
                                .into_owned()
                        })
                    } else {
                        None
                    };
                    out.push(Done {
                        send,
                        lag_ns,
                        latency_ns: recv_ns.saturating_sub(send.due_ns),
                        recv_ns,
                        outcome,
                        mapping_hash,
                        trace,
                    });
                    start = at + k + 1;
                    at = start;
                }
                rbuf.drain(..start);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        if next == sends.len() && writing.is_none() && inflight.is_empty() {
            out.sort_by_key(|d| d.send.due_ns);
            return Ok(out);
        }
        // Wait for a reply, send-buffer room, or the next due time.
        let now = since(t0);
        if now > give_up {
            return Err(format!(
                "{} replies still missing {:?} after the last send",
                inflight.len() + (sends.len() - next),
                drain
            ));
        }
        let until_due = if writing.is_none() && next < sends.len() {
            sends[next].due_ns.saturating_sub(now)
        } else {
            10_000_000
        };
        if until_due > 0 {
            poll::wait(stream, writing.is_some(), Duration::from_nanos(until_due))
                .map_err(|e| format!("poll: {e}"))?;
        }
    }
}
