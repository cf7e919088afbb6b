//! Wire load: pre-encoded requests sent over keep-alive connections with
//! the independent test-side client.
//!
//! Open loop: every request has a due time fixed before the run starts and
//! is timed from that due time, so a stall is charged to every request
//! queued behind it. A connection carries one request at a time; when a
//! reply comes back after the next request was due, that request leaves
//! late, and the wait is the server's. When the connection was idle and the
//! request still left late, the generator itself was late; that part is
//! reported separately so a slow generator cannot pass for a slow server.

use crate::trace::Tracer;
use sigma_testutil::{WireClient, WireResponse};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One request, encoded before timing starts.
pub struct Planned {
    pub id: u64,
    /// Offset from the phase start (open loop only).
    pub due: Duration,
    pub bytes: Vec<u8>,
}

/// What happened to one request. `status` 0 means a transport error.
pub struct Outcome {
    pub id: u64,
    /// Latency from the due time (open loop) or from the send (closed loop).
    pub latency: Duration,
    /// Generator lateness: send time minus the later of due time and the
    /// previous reply on this connection.
    pub late: Duration,
    pub sent: Instant,
    pub done: Instant,
    pub status: u16,
    pub body: Vec<u8>,
}

/// Encodes a keep-alive `POST` with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sleeps until `t`. With the timer slack `raise_priority` sets, the
/// wake-up lands within microseconds of `t`.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Gives the calling load-generator thread a higher scheduling priority
/// (nice −10) and a 1 µs timer slack, when the process may. The daemon
/// under test shares the machine's cores with the generator; a CPU-bound
/// repair would otherwise delay the generator's sends, and a default
/// 50 µs timer slack would make every send late, both charged to requests
/// as latency the server did not cause. Without the privilege the thread
/// keeps its settings and the lateness shows in `gen.late_p99_us`.
fn raise_priority() {
    const PRIO_PROCESS: i32 = 0;
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: both calls take plain integers and touch no memory of ours;
    // on Linux `who = 0` and `PR_SET_TIMERSLACK` apply to the calling
    // thread only. A failure leaves the setting as it was.
    unsafe {
        setpriority(PRIO_PROCESS, 0, -10);
        prctl(PR_SET_TIMERSLACK, 1_000u64);
    }
}

struct Conn {
    addr: SocketAddr,
    client: Option<WireClient>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            client: WireClient::connect(addr).ok(),
        }
    }

    /// Sends one request and reads its reply; a transport error drops the
    /// connection (status 0) and the next request reconnects.
    fn exchange(&mut self, bytes: &[u8]) -> WireResponse {
        let result = match &mut self.client {
            Some(client) => client.send_raw(bytes).and_then(|()| client.read_response()),
            None => WireClient::connect(self.addr).and_then(|mut client| {
                client.send_raw(bytes)?;
                let reply = client.read_response();
                self.client = Some(client);
                reply
            }),
        };
        result.unwrap_or_else(|_| {
            self.client = None;
            WireResponse {
                status: 0,
                headers: Vec::new(),
                body: Vec::new(),
            }
        })
    }
}

/// Traced requests get a `bench.request` root spanning due time to reply
/// and a `daemon.wire` child spanning send to reply; the gap is time the
/// request waited before it could leave.
fn trace_request(tracer: &Tracer, id: u64, due: Instant, sent: Instant, done: Instant) {
    if tracer.enabled() && id.is_multiple_of(2) {
        let root = tracer.record("bench.request", None, Some(id), due, done);
        tracer.record("daemon.wire", root, Some(id), sent, done);
    }
}

/// Sends `plan` on one connection at the planned due times after `start`.
pub fn open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    start: Instant,
    tracer: &Tracer,
) -> Vec<Outcome> {
    raise_priority();
    let mut conn = Conn::new(addr);
    let mut out = Vec::with_capacity(plan.len());
    let mut prev_done = start;
    for p in plan {
        let due = start + p.due;
        wait_until(due);
        let sent = Instant::now();
        let reply = conn.exchange(&p.bytes);
        let done = Instant::now();
        trace_request(tracer, p.id, due, sent, done);
        out.push(Outcome {
            id: p.id,
            latency: done - due,
            late: sent.saturating_duration_since(due.max(prev_done)),
            sent,
            done,
            status: reply.status,
            body: reply.body,
        });
        prev_done = done;
    }
    out
}

/// Sends `plan` back to back on one connection until `until`, cycling
/// through it if it runs out.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &[Planned],
    until: Instant,
    tracer: &Tracer,
) -> Vec<Outcome> {
    raise_priority();
    let mut conn = Conn::new(addr);
    let mut out = Vec::new();
    for p in plan.iter().cycle() {
        let sent = Instant::now();
        if sent >= until {
            break;
        }
        let reply = conn.exchange(&p.bytes);
        let done = Instant::now();
        trace_request(tracer, p.id, sent, sent, done);
        out.push(Outcome {
            id: p.id,
            latency: done - sent,
            late: Duration::ZERO,
            sent,
            done,
            status: reply.status,
            body: reply.body,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// A one-connection HTTP server that answers each request at once,
    /// except request `stall_at`, which it holds for `stall`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for i in 0.. {
                let mut length = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    let line = line.trim_end().to_ascii_lowercase();
                    if line.is_empty() {
                        break;
                    }
                    if let Some(v) = line.strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
                if writer.write_all(reply).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let interval = Duration::from_millis(2);
        let stall = Duration::from_millis(60);
        let (addr, server) = stalling_server(10, stall);
        let plan: Vec<Planned> = (0..60)
            .map(|i| Planned {
                id: i,
                due: interval * i as u32,
                bytes: post("/x", "{}"),
            })
            .collect();
        let out = open_loop(
            addr,
            &plan,
            Instant::now() + Duration::from_millis(5),
            &Tracer::new(false),
        );
        server.join().unwrap();
        assert!(out.iter().all(|o| o.status == 200));
        // The stalled request and the ones due during its stall each wait
        // for the stall to end: request 10 + k was due k intervals later.
        for k in 0..25u32 {
            let o = &out[10 + k as usize];
            let floor = stall.saturating_sub(interval * k);
            assert!(
                o.latency >= floor,
                "request {} latency {:?} < {:?}",
                10 + k,
                o.latency,
                floor
            );
            // Their late departure is the server's doing, not the
            // generator's.
            assert!(
                o.late < Duration::from_millis(5),
                "generator lateness {:?}",
                o.late
            );
        }
        // Well before the stall, replies were prompt.
        assert!(out[..10]
            .iter()
            .all(|o| o.latency < Duration::from_millis(20)));
    }

    #[test]
    fn closed_loop_stops_at_the_deadline() {
        let (addr, server) = stalling_server(usize::MAX, Duration::ZERO);
        let plan = vec![Planned {
            id: 0,
            due: Duration::ZERO,
            bytes: post("/x", "{}"),
        }];
        let out = closed_loop(
            addr,
            &plan,
            Instant::now() + Duration::from_millis(50),
            &Tracer::new(false),
        );
        server.join().unwrap();
        assert!(out.len() > 10);
        assert!(out.iter().all(|o| o.status == 200 && o.body == b"ok"));
    }
}
