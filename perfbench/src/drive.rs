//! The load generator: a closed loop of clients, each sending its next
//! request only after the previous reply, with no think time.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dbgpt::server::tcp::send_request;
use dbgpt::server::{Request, Response, Server, Status};

use crate::workload::{check, Kind, Op, Stream, Verdict};

/// How requests reach the server.
#[derive(Debug, Clone, Copy)]
pub enum Via {
    /// Length-prefixed frames over a loopback TCP connection per client.
    Tcp(SocketAddr),
    /// `Server::handle` called directly, no transport or codec.
    InProcess,
}

/// One client: its request stream and its open session. Both outlive a
/// single loop, so a traced run's phases continue the same streams.
pub struct Client {
    /// The seeded request stream.
    stream: Stream,
    session: Option<String>,
    next_id: u64,
}

impl Client {
    /// A client that has sent nothing yet.
    pub fn new(stream: Stream) -> Client {
        Client {
            stream,
            session: None,
            next_id: 0,
        }
    }

    /// The next request, opening a new session (and closing the previous
    /// one) at session boundaries. The wire protocol has no session
    /// command, so sessions are managed in-process.
    pub fn next_request(&mut self, server: &Server) -> (Op, Request) {
        if self.session.is_none() || self.stream.session_starts() {
            if let Some(old) = self.session.take() {
                server
                    .sessions()
                    .close(&old)
                    .expect("the client's session is open");
            }
            self.session = Some(server.open_session("chat"));
        }
        let op = self.stream.next_op();
        self.next_id += 1;
        let mut req = Request::new(self.next_id, op.app, op.input.clone());
        req.session = self.session.clone().expect("session opened above");
        (op, req)
    }
}

/// What one client saw in one loop. Latencies and counts cover requests
/// started inside the measured window; every reply is judged.
#[derive(Debug, Default)]
pub struct Log {
    /// Latency of each read request, ms.
    pub read_ms: Vec<f64>,
    /// Latency of each write request, ms.
    pub write_ms: Vec<f64>,
    /// Requests sent in the window.
    pub attempted: usize,
    /// Of those: transport failures and non-`Ok` replies.
    pub failed: usize,
    /// Read replies judged by the oracle (window only).
    pub answers: usize,
    /// Of those: matching the oracle.
    pub right: usize,
    /// Failed replies and replies contradicting the oracle, warm-up
    /// included.
    pub wrong: Vec<String>,
    /// Seconds from the window start to each reply.
    pub done_s: Vec<f64>,
}

impl Log {
    /// Fold another client's log into this one.
    pub fn merge(&mut self, other: Log) {
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answers += other.answers;
        self.right += other.right;
        self.wrong.extend(other.wrong);
        self.done_s.extend(other.done_s);
    }

    /// Median over `slices` equal slices of `window_s` of the replies per
    /// second completed in each: a burst of interference from outside the
    /// program moves one slice, not the median.
    pub fn req_per_s(&self, window_s: f64, slices: usize) -> f64 {
        let width = window_s / slices as f64;
        let mut counts = vec![0usize; slices];
        for &t in &self.done_s {
            if let Some(c) = counts.get_mut((t / width) as usize) {
                *c += 1;
            }
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
        crate::stats::median(&rates)
    }

    /// Every latency, ms.
    pub fn all_ms(&self) -> Vec<f64> {
        self.read_ms.iter().chain(&self.write_ms).copied().collect()
    }

    /// Judge one reply and account for it.
    pub fn record(&mut self, op: &Op, reply: Result<Response, String>, ms: f64, measured: bool) {
        let verdict = match &reply {
            Ok(r) if r.status == Status::Ok => Some(check(&op.expect, &r.content)),
            Ok(r) => {
                self.wrong
                    .push(format!("{} {:?}: {}", op.input, r.status, r.content));
                None
            }
            Err(e) => {
                self.wrong.push(format!("{}: transport: {e}", op.input));
                None
            }
        };
        if let Some(Verdict::Wrong(why)) = &verdict {
            self.wrong.push(format!("{}: {why}", op.input));
        }
        if !measured {
            return;
        }
        self.attempted += 1;
        match op.kind {
            Kind::Read => self.read_ms.push(ms),
            Kind::Write => self.write_ms.push(ms),
        }
        match verdict {
            None => self.failed += 1,
            Some(v) if op.kind == Kind::Read => {
                self.answers += 1;
                self.right += usize::from(v == Verdict::Right);
            }
            Some(_) => {}
        }
    }
}

/// Run every client until `warmup + window` has passed. Requests started
/// during the warm-up are judged but not timed. Returns the merged log.
pub fn closed_loop(
    server: &Server,
    via: Via,
    clients: &mut [Client],
    warmup: Duration,
    window: Duration,
) -> Log {
    let start = Instant::now();
    let (window_start, end) = (start + warmup, start + warmup + window);
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut conn = match via {
                        Via::Tcp(addr) => {
                            Some(TcpStream::connect(addr).expect("connect to the front door"))
                        }
                        Via::InProcess => None,
                    };
                    let mut log = Log::default();
                    while Instant::now() < end {
                        let (op, req) = client.next_request(server);
                        let sent = Instant::now();
                        let reply = match conn.as_mut() {
                            Some(stream) => send_request(stream, &req).map_err(|e| e.to_string()),
                            None => Ok(server.handle(&req)),
                        };
                        let done = Instant::now();
                        let ms = (done - sent).as_secs_f64() * 1e3;
                        let measured = sent >= window_start;
                        log.record(&op, reply, ms, measured);
                        if measured {
                            log.done_s.push((done - window_start).as_secs_f64());
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Log::default();
    for log in logs {
        all.merge(log);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_median_slice() {
        let log = Log {
            done_s: vec![0.1, 0.2, 1.5, 2.5, 2.6, 2.7, 3.5],
            ..Log::default()
        };
        // Slices of 1 s hold 2, 1 and 3 replies; the one after the window
        // is ignored.
        assert_eq!(log.req_per_s(3.0, 3), 2.0);
        assert_eq!(log.req_per_s(3.0, 1), 6.0 / 3.0);
    }
}
