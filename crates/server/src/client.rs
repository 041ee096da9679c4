//! A small blocking client for the framed protocol.
//!
//! Synchronous helpers ([`prepare`](Client::prepare),
//! [`execute`](Client::execute)) cover the common request/response
//! round trip; the split [`submit`](Client::submit) /
//! [`recv`](Client::recv) pair supports pipelined and open-loop use —
//! many executions in flight on one connection, answers correlated by
//! request id — which is exactly what the benchmark's served workload
//! and the cancellation tests need ([`cancel`](Client::cancel) races a running
//! query by design).

use crate::protocol::{DecodeError, ErrorCode, FrameBuf, Request, Response};
use aqe_engine::plan::FieldTy;
use aqe_engine::ParamValue;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A client-side failure: transport, codec, or a server error frame.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    Decode(DecodeError),
    /// The server answered with an error frame.
    Server {
        code: ErrorCode,
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Decode(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> ClientError {
        ClientError::Decode(e)
    }
}

/// A prepared statement as the server described it.
#[derive(Clone, Debug)]
pub struct PreparedHandle {
    pub stmt_id: u64,
    pub param_count: u16,
    pub columns: Vec<String>,
    /// The statement text, kept so the handle can be re-prepared on a
    /// fresh connection after a transport failure
    /// ([`Client::execute_retry`]).
    pub sql: String,
}

/// One execution's result set.
#[derive(Clone, Debug)]
pub struct QueryResult {
    pub tys: Vec<FieldTy>,
    /// Dense row-major 64-bit values (`tys.len()` per row).
    pub rows: Vec<u64>,
    /// Admission queue wait the request experienced server-side.
    pub queue_wait_us: u64,
}

impl QueryResult {
    pub fn row_count(&self) -> usize {
        if self.tys.is_empty() {
            0
        } else {
            self.rows.len() / self.tys.len()
        }
    }

    /// Value at (`row`, `col`) as its 64-bit pattern.
    pub fn bits(&self, row: usize, col: usize) -> u64 {
        self.rows[row * self.tys.len() + col]
    }

    /// Value at (`row`, `col`) as an `i64` (the caller asserts the type).
    pub fn i64(&self, row: usize, col: usize) -> i64 {
        self.bits(row, col) as i64
    }

    /// Value at (`row`, `col`) as an `f64` (the caller asserts the type).
    pub fn f64(&self, row: usize, col: usize) -> f64 {
        f64::from_bits(self.bits(row, col))
    }
}

/// A blocking connection to an `aqe-server`.
pub struct Client {
    stream: TcpStream,
    inbuf: FrameBuf,
    /// Responses read while looking for a specific correlation id.
    parked: VecDeque<Response>,
    next_stmt: u64,
    next_req: u64,
    /// The peer address, kept for [`reconnect`](Client::reconnect).
    addr: Option<SocketAddr>,
    /// PRNG state for backoff jitter (splitmix64).
    backoff_rng: u64,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr().ok();
        let seed = 0x9E3779B97F4A7C15 ^ stream.local_addr().map_or(0, |a| u64::from(a.port()));
        Ok(Client {
            stream,
            inbuf: FrameBuf::new(),
            parked: VecDeque::new(),
            next_stmt: 1,
            next_req: 1,
            addr: peer,
            backoff_rng: seed,
        })
    }

    /// Drop the broken transport and dial the same server again. All
    /// connection-scoped state is gone on the far side, so parked
    /// responses and the inbound buffer are discarded with it; prepared
    /// handles must be re-prepared
    /// ([`re_prepare`](Client::re_prepare)).
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let addr = self.addr.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "peer address unknown; cannot reconnect",
            ))
        })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.inbuf = FrameBuf::new();
        self.parked.clear();
        Ok(())
    }

    /// Re-prepare a handle on the current connection (after
    /// [`reconnect`](Client::reconnect)), reusing its statement text.
    /// The handle is updated in place with the fresh server-side id.
    pub fn re_prepare(&mut self, stmt: &mut PreparedHandle) -> Result<(), ClientError> {
        let sql = stmt.sql.clone();
        *stmt = self.prepare(&sql)?;
        Ok(())
    }

    /// Bound the wait of any single `recv` (None blocks forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Prepare `sql` under a fresh statement id.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedHandle, ClientError> {
        let stmt_id = self.next_stmt;
        self.next_stmt += 1;
        self.send(&Request::Prepare { stmt_id, sql: sql.to_string() })?;
        match self.recv()? {
            Response::Prepared { stmt_id, param_count, columns } => {
                Ok(PreparedHandle { stmt_id, param_count, columns, sql: sql.to_string() })
            }
            Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Decode(DecodeError::Malformed(match other {
                Response::Rows { .. } => "rows frame while awaiting prepare",
                _ => "unexpected frame while awaiting prepare",
            }))),
        }
    }

    /// Execute synchronously at normal priority with no deadline.
    pub fn execute(
        &mut self,
        stmt: &PreparedHandle,
        params: &[ParamValue],
    ) -> Result<QueryResult, ClientError> {
        self.execute_with(stmt, params, 1, 0)
    }

    /// Execute synchronously with an explicit priority tier and deadline
    /// (`deadline_ms == 0` leaves the server default in charge).
    pub fn execute_with(
        &mut self,
        stmt: &PreparedHandle,
        params: &[ParamValue],
        priority: u8,
        deadline_ms: u32,
    ) -> Result<QueryResult, ClientError> {
        let request_id = self.submit(stmt, params, priority, deadline_ms)?;
        self.wait(request_id)
    }

    /// Execute with automatic retry on load shed and transient transport
    /// failures, under an optional total time `budget`.
    ///
    /// Retryable outcomes are `ErrorCode::Shed` / `Backpressure` error
    /// frames (the server refused or dropped the work but the protocol
    /// is intact) and transient I/O errors (connection reset, broken
    /// pipe, timeouts — the transport died; [`reconnect`] and
    /// [`re_prepare`] rebuild it, which is why the handle is `&mut`).
    /// Everything else — plan errors, cancellations, protocol
    /// violations — returns immediately.
    ///
    /// Attempts are spaced by jittered exponential backoff (10 ms base,
    /// doubling to a 500 ms cap, ±50% jitter) and each carries the
    /// *remaining* budget as its server-side deadline, so a retried
    /// query can never outlive the caller's patience. With no budget the
    /// retry count is capped instead.
    ///
    /// [`reconnect`]: Client::reconnect
    /// [`re_prepare`]: Client::re_prepare
    pub fn execute_retry(
        &mut self,
        stmt: &mut PreparedHandle,
        params: &[ParamValue],
        priority: u8,
        budget: Option<Duration>,
    ) -> Result<QueryResult, ClientError> {
        const MAX_UNBUDGETED_RETRIES: u32 = 8;
        const BACKOFF_BASE: Duration = Duration::from_millis(10);
        const BACKOFF_CAP: Duration = Duration::from_millis(500);
        let start = Instant::now();
        let mut backoff = BACKOFF_BASE;
        let mut attempt: u32 = 0;
        loop {
            let remaining = match budget {
                Some(b) => match b.checked_sub(start.elapsed()) {
                    Some(r) if !r.is_zero() => Some(r),
                    _ => {
                        return Err(ClientError::Server {
                            code: ErrorCode::DeadlineExceeded,
                            message: format!("retry budget of {budget:?} exhausted client-side"),
                        })
                    }
                },
                None => None,
            };
            let deadline_ms =
                remaining.map_or(0, |r| r.as_millis().min(u128::from(u32::MAX)) as u32);
            let err = match self.execute_with(stmt, params, priority, deadline_ms) {
                Ok(result) => return Ok(result),
                Err(e) => e,
            };
            let transport_died = match &err {
                ClientError::Server { code: ErrorCode::Shed | ErrorCode::Backpressure, .. } => {
                    false
                }
                ClientError::Io(e) if io_transient(e.kind()) => true,
                _ => return Err(err),
            };
            attempt += 1;
            if budget.is_none() && attempt > MAX_UNBUDGETED_RETRIES {
                return Err(err);
            }
            let mut sleep = jitter(&mut self.backoff_rng, backoff);
            if let Some(r) = remaining {
                sleep = sleep.min(r);
            }
            std::thread::sleep(sleep);
            backoff = (backoff * 2).min(BACKOFF_CAP);
            if transport_died {
                if let Err(e) = self.reconnect().and_then(|()| self.re_prepare(stmt)) {
                    match &e {
                        // Server still coming back up — keep dialing
                        // under the same backoff schedule.
                        ClientError::Io(_) => continue,
                        // The statement no longer plans, the protocol
                        // broke: no retry fixes these.
                        _ => return Err(e),
                    }
                }
            }
        }
    }

    /// Send an execute without waiting; returns the correlation id.
    pub fn submit(
        &mut self,
        stmt: &PreparedHandle,
        params: &[ParamValue],
        priority: u8,
        deadline_ms: u32,
    ) -> Result<u64, ClientError> {
        let request_id = self.next_req;
        self.next_req += 1;
        self.send(&Request::Execute {
            stmt_id: stmt.stmt_id,
            request_id,
            priority,
            deadline_ms,
            params: params.to_vec(),
        })?;
        Ok(request_id)
    }

    /// Ask the server to cancel an in-flight execution (idempotent).
    pub fn cancel(&mut self, request_id: u64) -> Result<(), ClientError> {
        self.send(&Request::Cancel { request_id })
    }

    /// Drop a prepared statement server-side.
    pub fn close_stmt(&mut self, stmt: &PreparedHandle) -> Result<(), ClientError> {
        self.send(&Request::CloseStmt { stmt_id: stmt.stmt_id })
    }

    /// Round-trip a ping (also flushes any parked pong).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        loop {
            match self.recv()? {
                Response::Pong => return Ok(()),
                other => self.parked.push_back(other),
            }
        }
    }

    /// Block until the reply for `request_id` arrives; replies for other
    /// requests read along the way are parked, not lost.
    pub fn wait(&mut self, request_id: u64) -> Result<QueryResult, ClientError> {
        // A parked reply may already hold it.
        if let Some(pos) = self.parked.iter().position(|r| response_req_id(r) == Some(request_id)) {
            let resp = self.parked.remove(pos).unwrap();
            return result_of(resp);
        }
        loop {
            let resp = self.recv()?;
            if response_req_id(&resp) == Some(request_id) {
                return result_of(resp);
            }
            self.parked.push_back(resp);
        }
    }

    /// The next response frame: parked ones first, then the wire.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if let Some(r) = self.parked.pop_front() {
            return Ok(r);
        }
        loop {
            if let Some(body) = self.inbuf.next_body()? {
                return Ok(Response::decode(body)?);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => self.inbuf.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.stream.write_all(&req.encode())?;
        Ok(())
    }
}

/// Transport failures worth a reconnect-and-retry: the connection died
/// or timed out in a way a fresh dial can fix.
fn io_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
    )
}

/// 50%–150% of `base`, stepping a splitmix64 stream — desynchronizes
/// retry herds without a clock or an RNG dependency.
fn jitter(state: &mut u64, base: Duration) -> Duration {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    let pct = 50 + (z % 101); // 50..=150
    base * (pct as u32) / 100
}

fn response_req_id(r: &Response) -> Option<u64> {
    match r {
        Response::Rows { request_id, .. } => Some(*request_id),
        Response::Error { request_id, .. } => Some(*request_id),
        _ => None,
    }
}

fn result_of(resp: Response) -> Result<QueryResult, ClientError> {
    match resp {
        Response::Rows { queue_wait_us, tys, rows, .. } => {
            Ok(QueryResult { tys, rows, queue_wait_us })
        }
        Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
        _ => Err(ClientError::Decode(DecodeError::Malformed("non-result frame for request id"))),
    }
}
