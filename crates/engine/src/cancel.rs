//! Cooperative query cancellation: the per-execution [`CancelToken`].
//!
//! A running query used to be unstoppable — once `run_pipelines` entered
//! the morsel loop, nothing outside the worker threads could end it short
//! of process death. The front-door server (`crates/server`) needs three
//! things to stop a query mid-flight: a client `CANCEL` frame, a
//! per-query deadline, and a dropped connection. All three converge on
//! one mechanism: a shared poison flag plus a reason, checked
//! **cooperatively** at the natural quiescent points of an execution —
//! the morsel loop checks on every range claim (so a worker stops within
//! one claim, never mid-morsel with a half-updated aggregate buffer), the
//! pipeline loop checks between pipelines, and the adaptive controller
//! checks before each evaluation so a doomed query compiles nothing more.
//!
//! Cancellation is an *execution* property, not a *prepared-query*
//! property: observing a poisoned token surfaces as
//! [`ExecError::Cancelled`] from that execution only. The prepared
//! query's retained module, bytecode, compiled backends, and the engine's
//! result cache are untouched — a subsequent execution of the same
//! statement runs warm (backends that a mid-query compile published
//! before the cancel landed are *kept*; they are paid for and valid).
//!
//! [`ExecError::Cancelled`]: aqe_vm::interp::ExecError::Cancelled

use aqe_vm::interp::ExecError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why an execution was cancelled. The first cancel wins: a token
/// poisoned by a deadline stays `Deadline` even if a client cancel frame
/// arrives a microsecond later, so counters and error frames agree on
/// one cause per execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CancelKind {
    /// An explicit cancel request (the protocol's `CANCEL` frame).
    Client,
    /// The execution's deadline expired (the token self-poisons on the
    /// first [`poll`](CancelToken::poll) past it).
    Deadline,
    /// The submitting connection went away; nobody is left to read the
    /// rows.
    Disconnect,
    /// The server (or embedding process) is shutting down.
    Shutdown,
}

impl CancelKind {
    /// The stable reason string carried by [`ExecError::Cancelled`] and
    /// the protocol's error frames.
    pub fn reason(self) -> &'static str {
        match self {
            CancelKind::Client => "client cancel",
            CancelKind::Deadline => "deadline exceeded",
            CancelKind::Disconnect => "connection dropped",
            CancelKind::Shutdown => "server shutting down",
        }
    }

    fn from_state(s: u8) -> Option<CancelKind> {
        match s {
            1 => Some(CancelKind::Client),
            2 => Some(CancelKind::Deadline),
            3 => Some(CancelKind::Disconnect),
            4 => Some(CancelKind::Shutdown),
            _ => None,
        }
    }

    fn state(self) -> u8 {
        match self {
            CancelKind::Client => 1,
            CancelKind::Deadline => 2,
            CancelKind::Disconnect => 3,
            CancelKind::Shutdown => 4,
        }
    }
}

struct Inner {
    /// 0 = live; otherwise the winning [`CancelKind`]'s state code.
    state: AtomicU8,
    /// Set when a deadline has been armed — the morsel loop's fast path
    /// reads one atomic and skips the clock and the lock entirely for
    /// deadline-free executions.
    has_deadline: AtomicBool,
    /// The armed deadline. Written before `has_deadline` is released;
    /// locked only on the (rare) arm and on polls of deadline-carrying
    /// tokens.
    deadline: Mutex<Option<Instant>>,
}

/// A shared cancellation token: poison it from any thread, and every
/// checkpoint of the execution(s) carrying it observes the poison on its
/// next visit. Cloning shares the token (`Arc` semantics).
///
/// One token should govern **one** execution: `ExecOptions` carries a
/// fresh token by default, and callers that cancel (the server, tests)
/// install a new token per execution. Sharing a token across executions
/// is well-defined — a cancel stops all of them — but rarely what a
/// request path wants.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.kind())
            .field("deadline", &*self.inner.deadline.lock())
            .finish()
    }
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(0),
                has_deadline: AtomicBool::new(false),
                deadline: Mutex::new(None),
            }),
        }
    }

    /// A live token that self-poisons with [`CancelKind::Deadline`] on
    /// the first poll at or past `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        let t = CancelToken::new();
        t.arm_deadline(deadline);
        t
    }

    /// Arm (or tighten) the deadline. A later deadline than the armed one
    /// is ignored — deadlines only ever shrink the budget.
    pub fn arm_deadline(&self, deadline: Instant) {
        let mut d = self.inner.deadline.lock();
        match *d {
            Some(cur) if cur <= deadline => {}
            _ => *d = Some(deadline),
        }
        self.inner.has_deadline.store(true, Ordering::Release);
    }

    /// The armed deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        *self.inner.deadline.lock()
    }

    /// Poison the token. The first cancel wins; returns whether this call
    /// was it.
    pub fn cancel(&self, kind: CancelKind) -> bool {
        self.inner
            .state
            .compare_exchange(0, kind.state(), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Whether the token is poisoned (does **not** evaluate the deadline;
    /// see [`poll`](CancelToken::poll)).
    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) != 0
    }

    /// The winning cancel cause, if any.
    pub fn kind(&self) -> Option<CancelKind> {
        CancelKind::from_state(self.inner.state.load(Ordering::Acquire))
    }

    /// The checkpoint read: poisoned → its kind; armed deadline reached →
    /// self-poison with [`CancelKind::Deadline`] and report it; otherwise
    /// `None`. The live fast path is one atomic load (plus one more for
    /// deadline-free tokens) — cheap enough for once-per-morsel-claim.
    #[inline]
    pub fn poll(&self) -> Option<CancelKind> {
        let s = self.inner.state.load(Ordering::Acquire);
        if s != 0 {
            return CancelKind::from_state(s);
        }
        if self.inner.has_deadline.load(Ordering::Acquire) {
            let expired = matches!(*self.inner.deadline.lock(), Some(d) if Instant::now() >= d);
            if expired {
                self.cancel(CancelKind::Deadline);
                // Report the *winning* kind: a racing client cancel may
                // have beaten the deadline to the flag.
                return self.kind();
            }
        }
        None
    }

    /// [`poll`] as an error: `Err(ExecError::Cancelled)` when poisoned or
    /// past deadline, for `?`-style checkpoints.
    ///
    /// [`poll`]: CancelToken::poll
    #[inline]
    pub fn check(&self) -> Result<(), ExecError> {
        match self.poll() {
            None => Ok(()),
            Some(kind) => Err(ExecError::Cancelled { reason: kind.reason().to_string() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn first_cancel_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.poll(), None);
        assert!(t.check().is_ok());
        assert!(t.cancel(CancelKind::Client));
        assert!(!t.cancel(CancelKind::Deadline), "second cancel must lose");
        assert_eq!(t.kind(), Some(CancelKind::Client));
        assert_eq!(t.poll(), Some(CancelKind::Client));
        assert_eq!(t.check(), Err(ExecError::Cancelled { reason: "client cancel".to_string() }));
    }

    #[test]
    fn clones_share_the_poison_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(u.cancel(CancelKind::Disconnect));
        assert_eq!(t.kind(), Some(CancelKind::Disconnect));
    }

    #[test]
    fn deadline_self_poisons_on_poll() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!t.is_cancelled(), "the flag is only set by a poll");
        assert_eq!(t.poll(), Some(CancelKind::Deadline));
        assert!(t.is_cancelled());
        assert_eq!(t.kind(), Some(CancelKind::Deadline));
    }

    #[test]
    fn future_deadline_stays_live_and_only_tightens() {
        let far = Instant::now() + Duration::from_secs(3600);
        let t = CancelToken::with_deadline(far);
        assert_eq!(t.poll(), None);
        let near = Instant::now() + Duration::from_secs(60);
        t.arm_deadline(near);
        assert_eq!(t.deadline(), Some(near));
        t.arm_deadline(far);
        assert_eq!(t.deadline(), Some(near), "a later deadline must not widen the budget");
    }
}
