//! # aqe-fault — deterministic fault injection
//!
//! Named failpoints threaded through the engine's high-risk sites
//! (compiles, W^X mapping, bytecode translation, morsel workers,
//! server syscalls). Disarmed, a failpoint is a single relaxed atomic
//! load. Armed — via the `AQE_FAULT` environment variable or the
//! programmatic [`arm`] guard — each site consults its rule and either
//! passes, returns an injected error, or panics, so the surrounding
//! containment machinery (catch_unwind boundaries, ladder degradation,
//! connection poisoning) can be driven deterministically.
//!
//! ## Schedule grammar
//!
//! ```text
//! AQE_FAULT="site=action[:spec],site=action[:spec],..."
//! ```
//!
//! * `action` is `err` (the failpoint returns `Err`) or `panic` (the
//!   failpoint panics with a recognizable message).
//! * `spec` selects which hits fire:
//!   * absent — every hit fires;
//!   * an integer `n` — the first `n` hits fire, later hits pass;
//!   * a decimal in `[0,1]` (contains a `.`) — each hit fires with that
//!     probability, drawn from a per-site splitmix64 stream seeded by
//!     `AQE_FAULT_SEED` (default `0xA0E`), so a given seed replays the
//!     exact same firing sequence per site.
//!
//! Example: `AQE_FAULT="native_compile=err,worker=panic:0.01"` fails
//! every native compile and panics ~1% of morsel-worker loop entries.
//!
//! ## Failpoint catalog
//!
//! | site             | location                                   |
//! |------------------|--------------------------------------------|
//! | `native_compile` | `aqe_jit::native::compile_native` entry    |
//! | `wx_map`         | `ExecMem::map` (W^X mmap/mprotect)         |
//! | `bc_translate`   | bytecode translation in the session        |
//! | `worker`         | morsel-worker loop, once per claim round   |
//! | `compile_job`    | adaptive controller's compile on a worker  |
//! | `server_accept`  | server accept path                         |
//! | `server_read`    | per-connection read readiness              |
//! | `server_write`   | per-connection flush                       |
//! | `server_worker`  | server executor thread, per job            |

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// What an armed failpoint does when its rule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    Err,
    Panic,
}

/// Which hits of a site fire.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Trigger {
    /// Every hit fires.
    Always,
    /// The first `n` hits fire; later hits pass.
    FirstN(u64),
    /// Each hit fires independently with this probability.
    Prob(f64),
}

#[derive(Debug)]
struct SiteRule {
    action: Action,
    trigger: Trigger,
    /// Times the site was reached while this schedule was armed.
    hits: AtomicU64,
    /// Times the rule actually fired.
    fired: AtomicU64,
    /// Per-site splitmix64 state for probabilistic triggers.
    rng: AtomicU64,
}

#[derive(Debug, Default)]
struct Schedule {
    sites: HashMap<String, SiteRule>,
}

/// Fast disarmed check: a single relaxed load on the hot path.
static ARMED: AtomicBool = AtomicBool::new(false);
static ACTIVE: OnceLock<Mutex<Option<Arc<Schedule>>>> = OnceLock::new();
static ENV_INIT: Once = Once::new();

fn active() -> &'static Mutex<Option<Arc<Schedule>>> {
    ACTIVE.get_or_init(|| Mutex::new(None))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Parse an `AQE_FAULT`-style schedule string. Errors describe the
/// offending entry.
fn parse_schedule(spec: &str, seed: u64) -> Result<Schedule, String> {
    let mut sched = Schedule::default();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, rule) = entry
            .split_once('=')
            .ok_or_else(|| format!("fault entry `{entry}`: expected site=action[:spec]"))?;
        let (action, trig) = match rule.split_once(':') {
            Some((a, t)) => (a, Some(t)),
            None => (rule, None),
        };
        let action = match action {
            "err" => Action::Err,
            "panic" => Action::Panic,
            other => return Err(format!("fault entry `{entry}`: unknown action `{other}`")),
        };
        let trigger = match trig {
            None => Trigger::Always,
            Some(t) if t.contains('.') => {
                let p: f64 = t
                    .parse()
                    .map_err(|_| format!("fault entry `{entry}`: bad probability `{t}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault entry `{entry}`: probability out of [0,1]"));
                }
                Trigger::Prob(p)
            }
            Some(t) => {
                let n: u64 =
                    t.parse().map_err(|_| format!("fault entry `{entry}`: bad count `{t}`"))?;
                Trigger::FirstN(n)
            }
        };
        sched.sites.insert(
            site.trim().to_string(),
            SiteRule {
                action,
                trigger,
                hits: AtomicU64::new(0),
                fired: AtomicU64::new(0),
                rng: AtomicU64::new(seed ^ fnv1a(site.trim())),
            },
        );
    }
    Ok(sched)
}

/// Default seed when `AQE_FAULT_SEED` is absent.
pub const DEFAULT_SEED: u64 = 0xA0E;

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(spec) = std::env::var("AQE_FAULT") else {
            return;
        };
        if spec.trim().is_empty() {
            return;
        }
        let seed = std::env::var("AQE_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(DEFAULT_SEED);
        match parse_schedule(&spec, seed) {
            Ok(sched) => {
                *active().lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(sched));
                ARMED.store(true, Ordering::Release);
            }
            Err(msg) => eprintln!("AQE_FAULT ignored: {msg}"),
        }
    });
}

/// A failpoint. Call at a site that should be injectable; the returned
/// `Err` carries a human-readable description of the injected fault
/// (always prefixed `injected`). With a `panic` action the call panics
/// instead — the surrounding thread boundary is expected to contain it.
///
/// Disarmed (the common case) this is one relaxed atomic load.
pub fn failpoint(site: &str) -> Result<(), String> {
    init_from_env();
    if !ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    let sched = {
        let guard = active().lock().unwrap_or_else(|e| e.into_inner());
        match &*guard {
            Some(s) => Arc::clone(s),
            None => return Ok(()),
        }
    };
    let Some(rule) = sched.sites.get(site) else {
        return Ok(());
    };
    let hit = rule.hits.fetch_add(1, Ordering::Relaxed);
    let fire = match rule.trigger {
        Trigger::Always => true,
        Trigger::FirstN(n) => hit < n,
        Trigger::Prob(p) => {
            // Advance the per-site stream atomically so concurrent hits
            // draw distinct values; the sequence is seed-deterministic
            // even if which *thread* sees which draw is not.
            let mut cur = rule.rng.load(Ordering::Relaxed);
            let draw = loop {
                let mut next = cur;
                let draw = splitmix64(&mut next);
                match rule.rng.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break draw,
                    Err(actual) => cur = actual,
                }
            };
            // Top 53 bits → uniform in [0,1).
            ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
        }
    };
    if !fire {
        return Ok(());
    }
    rule.fired.fetch_add(1, Ordering::Relaxed);
    match rule.action {
        Action::Err => Err(format!("injected fault at {site} (hit {hit})")),
        Action::Panic => panic!("injected panic at {site} (hit {hit})"),
    }
}

/// True if any schedule is currently armed.
pub fn armed() -> bool {
    init_from_env();
    ARMED.load(Ordering::Acquire)
}

/// Times `site` fired (injected an error or panic) under the currently
/// armed schedule. Zero when disarmed or the site has no rule.
pub fn fired(site: &str) -> u64 {
    site_stat(site, |r| r.fired.load(Ordering::Relaxed))
}

/// Times `site` was reached under the currently armed schedule.
pub fn hits(site: &str) -> u64 {
    site_stat(site, |r| r.hits.load(Ordering::Relaxed))
}

fn site_stat(site: &str, f: impl Fn(&SiteRule) -> u64) -> u64 {
    let guard = active().lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().and_then(|s| s.sites.get(site)).map(f).unwrap_or(0)
}

/// Arms `schedule` programmatically, replacing whatever was armed
/// before. The previous schedule is restored when the returned [`Guard`]
/// drops, so tests can scope chaos precisely. The schedule is
/// process-global: tests that arm must serialize among themselves.
pub fn arm(schedule: &str, seed: u64) -> Result<Guard, String> {
    init_from_env();
    let sched = parse_schedule(schedule, seed)?;
    let mut guard = active().lock().unwrap_or_else(|e| e.into_inner());
    let prev = guard.take();
    *guard = Some(Arc::new(sched));
    ARMED.store(true, Ordering::Release);
    Ok(Guard { prev })
}

/// Restores the previously armed schedule (usually none) on drop.
#[must_use = "dropping the guard immediately disarms the schedule"]
pub struct Guard {
    prev: Option<Arc<Schedule>>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let mut guard = active().lock().unwrap_or_else(|e| e.into_inner());
        *guard = self.prev.take();
        ARMED.store(guard.is_some(), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The schedule is process-global; serialize the tests that arm it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_failpoints_pass() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(failpoint("nowhere"), Ok(()));
    }

    #[test]
    fn always_err_fires_every_hit() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _armed = arm("x=err", 1).unwrap();
        for _ in 0..3 {
            assert!(failpoint("x").is_err());
        }
        assert_eq!(failpoint("other"), Ok(()));
        assert_eq!(fired("x"), 3);
        assert_eq!(hits("x"), 3);
    }

    #[test]
    fn first_n_then_passes() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _armed = arm("x=err:2", 1).unwrap();
        assert!(failpoint("x").is_err());
        assert!(failpoint("x").is_err());
        assert!(failpoint("x").is_ok());
        assert_eq!(fired("x"), 2);
    }

    #[test]
    fn probability_replays_with_same_seed() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut runs = Vec::new();
        for _ in 0..2 {
            let _armed = arm("x=err:0.5", 42).unwrap();
            let seq: Vec<bool> = (0..64).map(|_| failpoint("x").is_err()).collect();
            runs.push(seq);
        }
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].iter().any(|f| *f));
        assert!(runs[0].iter().any(|f| !*f));
    }

    #[test]
    fn panic_action_panics_with_marker() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _armed = arm("x=panic:1", 1).unwrap();
        let err = std::panic::catch_unwind(|| failpoint("x")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected panic at x"));
        assert!(failpoint("x").is_ok());
    }

    #[test]
    fn guard_restores_previous_schedule() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outer = arm("a=err", 1).unwrap();
        {
            let _inner = arm("b=err", 1).unwrap();
            assert!(failpoint("a").is_ok());
            assert!(failpoint("b").is_err());
        }
        assert!(failpoint("a").is_err());
        assert!(failpoint("b").is_ok());
        drop(outer);
        assert!(failpoint("a").is_ok());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_schedule("x", 1).is_err());
        assert!(parse_schedule("x=boom", 1).is_err());
        assert!(parse_schedule("x=err:1.5", 1).is_err());
        assert!(parse_schedule("x=err:abc", 1).is_err());
        assert!(parse_schedule("x=err:0.25,y=panic:3,z=err", 1).is_ok());
    }
}
