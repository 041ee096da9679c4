//! The front-door server: one epoll event loop, an executor pool, and
//! the request router between them.
//!
//! ## Threads
//!
//! * **Event loop** (the thread calling [`Server::run`]): owns the
//!   listener, every connection's state machines, the prepared-statement
//!   tables, and the in-flight execution registry. It never executes a
//!   query — `prepare` (pure planning, microseconds) is the only work it
//!   does inline.
//! * **Executor pool** (`workers` threads): each pulls one admitted job
//!   at a time from the [`Admission`] queue and runs it to completion
//!   through its own engine [`Session`]. The pool size *is* the
//!   in-flight execution budget.
//!
//! The two sides meet twice: jobs flow loop → pool through the admission
//! queue, and completions flow pool → loop through a mutexed vector plus
//! an `eventfd` doorbell that wakes the `epoll_wait`.
//!
//! ## Cancellation
//!
//! Every dispatched execution registers its [`CancelToken`] under
//! `(connection, request id)`. A `CANCEL` frame poisons the token
//! (`CancelKind::Client`); a dropped connection poisons every token it
//! registered (`Disconnect`); shutdown poisons all of them (`Shutdown`);
//! deadlines are armed on the token itself and self-poison inside the
//! engine's checkpoint polls. The worker thread never needs to be
//! interrupted — the morsel loop observes the poison on its next range
//! claim and returns `ExecError::Cancelled`, which the loop answers with
//! the matching error frame.

use crate::admission::{Admission, Submitted};
use crate::conn::{Conn, FlushOutcome, QueueOutcome, ReadOutcome};
use crate::protocol::{DecodeError, ErrorCode, Request, Response};
use crate::sys::{self, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use aqe_engine::cancel::{CancelKind, CancelToken};
use aqe_engine::exec::ExecOptions;
use aqe_engine::session::{Engine, ServerCounters, Session};
use aqe_sql::PreparedStatement;
use aqe_vm::interp::ExecError;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Executor pool size — the in-flight execution budget. At most this
    /// many queries run concurrently; everything else waits in the
    /// admission queue.
    pub workers: usize,
    /// Admission queue capacity: the maximum number of *waiting*
    /// requests before load shedding starts.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry one
    /// (`deadline_ms == 0`). `None` means such requests run unbounded.
    pub default_deadline: Option<Duration>,
    /// Template execution options (mode, per-query threads, morsel
    /// sizing). The per-request cancel token is installed over this
    /// template at dispatch.
    pub exec: ExecOptions,
    /// Per-connection outbound byte budget. A finished result that would
    /// overflow it is shed with an `ErrorCode::Backpressure` frame; a
    /// peer that won't drain even those is poisoned and closed. The
    /// default (two max-size frames) never sheds a response a reading
    /// client would have received.
    pub outbuf_budget: usize,
    /// Close connections with no in-flight work and no pending output
    /// that have not sent a complete frame for this long. `None` (the
    /// default) never reaps.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: thread::available_parallelism().map_or(2, |p| p.get().min(4)),
            queue_capacity: 64,
            default_deadline: None,
            exec: ExecOptions::default(),
            outbuf_budget: 2 * crate::protocol::MAX_FRAME,
            idle_timeout: None,
        }
    }
}

/// Epoll cookies: the listener and the wakeup doorbell get reserved ids;
/// connections start above them.
const DATA_LISTENER: u64 = 0;
const DATA_WAKE: u64 = 1;
const FIRST_CONN: u64 = 2;

/// An admitted execution traveling loop → pool.
struct Job {
    conn: u64,
    request_id: u64,
    stmt: Arc<PreparedStatement>,
    params: Vec<aqe_engine::ParamValue>,
    token: CancelToken,
    submitted: Instant,
}

/// A finished execution traveling pool → loop.
struct Completion {
    conn: u64,
    request_id: u64,
    result: Result<aqe_engine::ResultRows, ExecError>,
    queue_wait: Duration,
    token: CancelToken,
}

/// The eventfd doorbell, closed when the last owner drops so a late
/// [`ServerHandle::shutdown`] can never write into a recycled fd.
struct WakeFd(i32);

impl WakeFd {
    fn signal(&self) {
        let _ = sys::eventfd_signal(self.0);
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        sys::close(self.0);
    }
}

/// Remote control for a running server: the bound address and a
/// shutdown trigger. Cloneable; safe to use from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Arc<WakeFd>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the event loop to stop: in-flight executions are cancelled
    /// (`CancelKind::Shutdown`), queued work is answered with
    /// `ErrorCode::ShuttingDown`, connections close, workers join.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake.signal();
    }
}

/// The front-door server. [`bind`](Server::bind), then either
/// [`run`](Server::run) on the current thread or let
/// [`spawn`](Server::spawn) do both on a background thread.
pub struct Server {
    engine: Arc<Engine>,
    config: ServerConfig,
    listener: TcpListener,
    epfd: i32,
    wake: Arc<WakeFd>,
    stop: Arc<AtomicBool>,
    admission: Arc<Admission<Job>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    counters: Arc<ServerCounters>,
    /// Cancel tokens of dispatched-and-unanswered executions, by
    /// (connection, request id).
    active: HashMap<(u64, u64), CancelToken>,
    conns: HashMap<u64, Conn>,
    /// Connections with `EPOLLOUT` currently armed.
    out_armed: HashMap<u64, bool>,
    next_conn: u64,
    /// The event loop's own session (used only for `prepare`).
    session: Session,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Whether this platform can host the event loop at all (x86-64
    /// Linux; see `sys`).
    pub fn supported() -> bool {
        sys::supported()
    }

    /// Bind the listener and start the executor pool. No connection is
    /// accepted until [`run`](Server::run).
    pub fn bind(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        if !sys::supported() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "aqe-server requires x86-64 Linux",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let epfd = sys::epoll_create()?;
        let wake = Arc::new(WakeFd(sys::eventfd()?));
        sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, listener_fd(&listener), EPOLLIN, DATA_LISTENER)?;
        sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, wake.0, EPOLLIN, DATA_WAKE)?;

        let admission = Arc::new(Admission::new(config.queue_capacity));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let counters = engine.server_counters();
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let admission = admission.clone();
            let completions = completions.clone();
            let counters = counters.clone();
            let wake = wake.clone();
            let session = engine.session();
            let base = config.exec.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("aqe-exec-{i}"))
                    .spawn(move || {
                        worker_loop(admission, completions, counters, wake, session, base)
                    })
                    .expect("spawn executor thread"),
            );
        }

        let session = engine.session();
        Ok(Server {
            engine,
            config,
            listener,
            epfd,
            wake,
            stop: Arc::new(AtomicBool::new(false)),
            admission,
            completions,
            counters,
            active: HashMap::new(),
            conns: HashMap::new(),
            out_armed: HashMap::new(),
            next_conn: FIRST_CONN,
            session,
            workers,
        })
    }

    /// The bound address (resolves a port-0 bind).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control for this server (cloneable, thread-safe).
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            stop: self.stop.clone(),
            wake: self.wake.clone(),
        })
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Bind and run on a background thread; returns the handle and the
    /// loop thread's join handle.
    pub fn spawn(
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> io::Result<(ServerHandle, thread::JoinHandle<io::Result<()>>)> {
        let server = Server::bind(engine, config)?;
        let handle = server.handle()?;
        let join =
            thread::Builder::new().name("aqe-server".to_string()).spawn(move || server.run())?;
        Ok((handle, join))
    }

    /// Run the event loop until [`ServerHandle::shutdown`].
    pub fn run(mut self) -> io::Result<()> {
        let mut events = [EpollEvent::default(); 64];
        while !self.stop.load(Ordering::Acquire) {
            // A finite tick bounds the damage of any lost doorbell ring;
            // all normal wakeups arrive through the eventfd.
            let n = sys::epoll_wait(self.epfd, &mut events, 500)?;
            for ev in events.iter().take(n) {
                let (data, bits) = ({ ev.data }, { ev.events });
                match data {
                    DATA_LISTENER => self.accept_ready(),
                    DATA_WAKE => sys::eventfd_drain(self.wake.0),
                    id => self.conn_ready(id, bits),
                }
            }
            // Completions are drained once per wakeup batch, whatever
            // triggered it — a doorbell ring coalesced into an earlier
            // wait can never strand a result.
            self.deliver_completions();
            // The 500 ms tick doubles as the idle-reaper cadence.
            if let Some(window) = self.config.idle_timeout {
                self.reap_idle(window);
            }
        }
        self.shutdown_sequence();
        Ok(())
    }

    // -- accept path ------------------------------------------------------

    fn accept_ready(&mut self) {
        // Injectable accept fault (`AQE_FAULT="server_accept=..."`):
        // skip this readiness pass. Level-triggered epoll re-reports the
        // listener while peers are pending, so nobody is lost — only
        // delayed, exactly like a transient EMFILE/ENFILE.
        if aqe_fault::failpoint("server_accept").is_err() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    let fd = stream_fd(&stream);
                    if sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, in_mask(), id).is_err() {
                        continue;
                    }
                    self.conns.insert(id, Conn::new(stream, id, self.config.outbuf_budget));
                    self.out_armed.insert(id, false);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    // -- connection readiness ---------------------------------------------

    fn conn_ready(&mut self, id: u64, bits: u32) {
        // The id may have been closed earlier in this event batch.
        if !self.conns.contains_key(&id) {
            return;
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(id);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            let outcome = self.conns.get_mut(&id).map(Conn::read_ready);
            self.process_input(id);
            if outcome == Some(ReadOutcome::Disconnected) {
                // EOF after consuming whatever the peer sent first.
                self.close_conn(id);
                return;
            }
        }
        if bits & EPOLLOUT != 0 {
            self.flush_conn(id);
        }
    }

    /// Parse and route every complete frame the connection has buffered.
    fn process_input(&mut self, id: u64) {
        loop {
            let next = match self.conns.get_mut(&id) {
                None => return,
                Some(conn) => conn.next_request(),
            };
            match next {
                Ok(None) => break,
                Ok(Some(req)) => self.handle_request(id, req),
                Err(e) => {
                    self.protocol_error(id, e);
                    break;
                }
            }
        }
        self.flush_conn(id);
    }

    /// A malformed frame: answer with one protocol-error frame, then
    /// drain and close. The peer learns why; the stream is done.
    fn protocol_error(&mut self, id: u64, e: DecodeError) {
        self.respond(
            id,
            Response::Error { request_id: 0, code: ErrorCode::Protocol, message: e.to_string() },
        );
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.draining = true;
        }
    }

    /// Queue a response within the connection's outbound budget and
    /// account for what the bounded queue did with it.
    fn respond(&mut self, id: u64, resp: Response) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        match conn.queue_response(&resp) {
            QueueOutcome::Queued | QueueOutcome::Dropped => {}
            QueueOutcome::Shed => self.counters.note_overflow(),
            // The close happens at the next flush touch, which every
            // queue site performs.
            QueueOutcome::Poisoned => self.counters.note_conn_poisoned(),
        }
    }

    // -- request routing ----------------------------------------------------

    fn handle_request(&mut self, id: u64, req: Request) {
        match req {
            Request::Ping => self.respond(id, Response::Pong),
            Request::Prepare { stmt_id, sql } => {
                let resp = match aqe_sql::prepare(&self.session, &sql) {
                    Ok(stmt) => {
                        let param_count = stmt.query.param_types().len() as u16;
                        let columns = stmt.output_names.clone();
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.stmts.insert(stmt_id, Arc::new(stmt));
                        }
                        Response::Prepared { stmt_id, param_count, columns }
                    }
                    Err(e) => Response::Error {
                        request_id: 0,
                        code: ErrorCode::Plan,
                        message: e.to_string(),
                    },
                };
                self.respond(id, resp);
            }
            Request::CloseStmt { stmt_id } => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.stmts.remove(&stmt_id);
                }
            }
            Request::Cancel { request_id } => {
                // Idempotent and race-free by design: an unknown id means
                // the execution already completed (or never existed) —
                // either way there is nothing to stop.
                if let Some(token) = self.active.get(&(id, request_id)) {
                    token.cancel(CancelKind::Client);
                }
            }
            Request::Execute { stmt_id, request_id, priority, deadline_ms, params } => {
                self.handle_execute(id, stmt_id, request_id, priority, deadline_ms, params);
            }
        }
    }

    fn handle_execute(
        &mut self,
        id: u64,
        stmt_id: u64,
        request_id: u64,
        priority: u8,
        deadline_ms: u32,
        params: Vec<aqe_engine::ParamValue>,
    ) {
        let stmt = match self.conns.get(&id).and_then(|c| c.stmts.get(&stmt_id)) {
            Some(s) => s.clone(),
            None => {
                self.respond(
                    id,
                    Response::Error {
                        request_id,
                        code: ErrorCode::UnknownStatement,
                        message: format!("statement {stmt_id} is not prepared on this connection"),
                    },
                );
                return;
            }
        };

        let token = CancelToken::new();
        let deadline = if deadline_ms > 0 {
            Some(Duration::from_millis(u64::from(deadline_ms)))
        } else {
            self.config.default_deadline
        };
        if let Some(d) = deadline {
            token.arm_deadline(Instant::now() + d);
        }

        let job = Job {
            conn: id,
            request_id,
            stmt,
            params,
            token: token.clone(),
            submitted: Instant::now(),
        };
        match self.admission.submit(job, priority) {
            Submitted::Enqueued => {
                self.counters.note_accepted();
                self.counters.note_enqueued();
                self.active.insert((id, request_id), token);
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.in_flight += 1;
                }
            }
            Submitted::ShedVictim(victim) => {
                // The incoming request took a displaced waiter's place.
                self.counters.note_accepted();
                self.counters.note_enqueued();
                self.active.insert((id, request_id), token);
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.in_flight += 1;
                }
                self.shed(victim, ErrorCode::Shed, "shed by higher-priority work");
            }
            Submitted::ShedIncoming(job) => {
                self.shed(job, ErrorCode::Shed, "admission queue full");
            }
            Submitted::ShuttingDown(job) => {
                self.shed(job, ErrorCode::ShuttingDown, "server shutting down");
            }
        }
    }

    /// Refuse a job with an error frame on *its own* connection — which
    /// for a displaced victim is not the connection being served. The
    /// connection itself stays open: shed is an answer, not a hangup.
    fn shed(&mut self, job: Job, code: ErrorCode, why: &str) {
        if code == ErrorCode::Shed {
            self.counters.note_shed();
        }
        if self.active.remove(&(job.conn, job.request_id)).is_some() {
            // A displaced victim was queued: un-count it.
            self.counters.note_dequeued();
            if let Some(conn) = self.conns.get_mut(&job.conn) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
            }
        }
        let victim_conn = job.conn;
        self.respond(
            victim_conn,
            Response::Error { request_id: job.request_id, code, message: why.to_string() },
        );
        self.flush_conn(victim_conn);
    }

    // -- completions --------------------------------------------------------

    fn deliver_completions(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.completions.lock().unwrap());
        for c in done {
            self.active.remove(&(c.conn, c.request_id));
            let resp = completion_response(&c);
            let conn_id = c.conn;
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
            } else {
                continue;
            }
            self.respond(conn_id, resp);
            self.flush_conn(conn_id);
        }
    }

    // -- flushing and teardown ---------------------------------------------

    /// Flush a connection's outbound queue and keep its `EPOLLOUT`
    /// interest in sync with whether bytes remain.
    fn flush_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.poisoned {
            // The peer stopped draining past the outbound budget; there
            // is nothing useful left to say to it.
            self.close_conn(id);
            return;
        }
        match conn.flush() {
            FlushOutcome::Disconnected => self.close_conn(id),
            FlushOutcome::Pending => self.arm_out(id, true),
            FlushOutcome::Drained => {
                let done = conn.draining && conn.in_flight == 0;
                self.arm_out(id, false);
                if done {
                    self.close_conn(id);
                }
            }
        }
    }

    fn arm_out(&mut self, id: u64, want: bool) {
        let armed = self.out_armed.entry(id).or_insert(false);
        if *armed == want {
            return;
        }
        if let Some(conn) = self.conns.get(&id) {
            let mask = if want { in_mask() | EPOLLOUT } else { in_mask() };
            if sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, stream_fd(&conn.stream), mask, id)
                .is_ok()
            {
                *armed = want;
            }
        }
    }

    /// Close every connection that is fully quiescent — no execution in
    /// flight, nothing left to flush, not mid-drain — and has not sent a
    /// complete frame within the idle window.
    fn reap_idle(&mut self, window: Duration) {
        let victims: Vec<u64> = self
            .conns
            .values()
            .filter(|c| {
                c.in_flight == 0 && !c.has_pending_output() && !c.draining && c.idle_for() > window
            })
            .map(|c| c.id)
            .collect();
        for id in victims {
            self.counters.note_idle_reaped();
            self.close_conn(id);
        }
    }

    /// Tear down one connection: poison every execution it still has in
    /// flight (`Disconnect` — nobody is left to read the rows), drop its
    /// statements, deregister, close.
    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else { return };
        self.out_armed.remove(&id);
        let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, stream_fd(&conn.stream), 0, 0);
        self.active.retain(|(conn_id, _), token| {
            if *conn_id == id {
                token.cancel(CancelKind::Disconnect);
                false
            } else {
                true
            }
        });
        // `conn` drops here: statements release, the socket closes.
    }

    /// Orderly shutdown: poison everything, refuse the queue's orphans,
    /// flush what can be flushed, join the pool.
    fn shutdown_sequence(&mut self) {
        for token in self.active.values() {
            token.cancel(CancelKind::Shutdown);
        }
        let orphans = self.admission.shutdown();
        for job in orphans {
            self.counters.note_dequeued();
            if let Some(conn) = self.conns.get_mut(&job.conn) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
            }
            self.active.remove(&(job.conn, job.request_id));
            self.respond(
                job.conn,
                Response::Error {
                    request_id: job.request_id,
                    code: ErrorCode::ShuttingDown,
                    message: "server shutting down".to_string(),
                },
            );
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers have exited: deliver their final completions, then
        // flush every connection once (best effort — a backpressured
        // peer is not worth blocking shutdown for).
        self.deliver_completions();
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                let _ = conn.flush();
            }
        }
        self.conns.clear();
        sys::close(self.epfd);
    }
}

/// Build the protocol answer for a finished execution.
fn completion_response(c: &Completion) -> Response {
    match &c.result {
        Ok(rows) => {
            if !Response::rows_fit(rows.tys.len(), rows.rows.len()) {
                return Response::Error {
                    request_id: c.request_id,
                    code: ErrorCode::ResultTooLarge,
                    message: format!("result of {} values exceeds the frame cap", rows.rows.len()),
                };
            }
            Response::Rows {
                request_id: c.request_id,
                queue_wait_us: c.queue_wait.as_micros() as u64,
                tys: rows.tys.clone(),
                rows: rows.rows.clone(),
            }
        }
        Err(ExecError::Cancelled { reason }) => Response::Error {
            request_id: c.request_id,
            code: match c.token.kind() {
                Some(CancelKind::Deadline) => ErrorCode::DeadlineExceeded,
                _ => ErrorCode::Cancelled,
            },
            message: reason.clone(),
        },
        Err(e @ ExecError::Internal { .. }) => Response::Error {
            request_id: c.request_id,
            code: ErrorCode::Internal,
            message: e.to_string(),
        },
        Err(e) => Response::Error {
            request_id: c.request_id,
            code: ErrorCode::Exec,
            message: e.to_string(),
        },
    }
}

/// One executor thread: dequeue, execute through an owned session, post
/// the completion, ring the doorbell.
fn worker_loop(
    admission: Arc<Admission<Job>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    counters: Arc<ServerCounters>,
    wake: Arc<WakeFd>,
    session: Session,
    base: ExecOptions,
) {
    while let Some(job) = admission.next() {
        counters.note_dequeued();
        let queue_wait = job.submitted.elapsed();
        counters.note_active();
        let mut opts = base.clone();
        opts.cancel = job.token.clone();
        // The executor thread is a shared resource serving every future
        // request: a panicking query must not take it down. The engine
        // contains worker-thread panics itself; this boundary catches
        // anything that escapes (planner edge cases, result assembly)
        // and turns it into a typed error on this one request.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            aqe_fault::failpoint("server_worker").map_err(|site| ExecError::Internal { site })?;
            session.execute_bound_with(&job.stmt.query, &job.params, &opts).map(|(rows, _)| rows)
        }))
        .unwrap_or_else(|_| Err(ExecError::Internal { site: "server executor".to_string() }));
        counters.note_done();
        completions.lock().unwrap().push(Completion {
            conn: job.conn,
            request_id: job.request_id,
            result,
            queue_wait,
            token: job.token,
        });
        wake.signal();
    }
}

fn in_mask() -> u32 {
    EPOLLIN | EPOLLRDHUP
}

#[cfg(unix)]
fn listener_fd(l: &TcpListener) -> i32 {
    use std::os::unix::io::AsRawFd;
    l.as_raw_fd()
}

#[cfg(unix)]
fn stream_fd(s: &std::net::TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn listener_fd(_l: &TcpListener) -> i32 {
    -1
}

#[cfg(not(unix))]
fn stream_fd(_s: &std::net::TcpStream) -> i32 {
    -1
}
