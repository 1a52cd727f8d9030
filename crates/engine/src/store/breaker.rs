//! The remote tier's circuit breaker: deterministic fail-fast with
//! self-healing probes.
//!
//! The remote store used to degrade *permanently*: the first unrecoverable
//! transport error marked the backend broken for the rest of the process.
//! That is the right call for a mistyped address, but a peer that restarts
//! mid-run (deploy, OOM, network blip) stayed invisible forever. The
//! breaker replaces the one-way latch with the classic three-state machine:
//!
//! * **Closed** — traffic flows; consecutive transport failures are
//!   counted, and reaching [`BreakerConfig::threshold`] opens the breaker.
//! * **Open** — every operation fails fast without touching the network,
//!   so a dead peer costs nanoseconds per key, not a timeout per key.
//! * **Probe** (half-open) — once the current backoff has elapsed, exactly
//!   the next caller is let through as a health probe. A successful probe
//!   closes the breaker and resets the backoff; a failed one re-arms the
//!   open state and doubles the backoff up to
//!   [`BreakerConfig::backoff_cap`].
//!
//! Everything is driven by the callers' own traffic — there is no timer
//! thread. All decisions are taken under one mutex, so concurrent callers
//! see a consistent state; the counters ([`opens`](CircuitBreaker::opens),
//! [`closes`](CircuitBreaker::closes), [`probes`](CircuitBreaker::probes))
//! surface in [`StoreStats`](crate::StoreStats) and `bbs client stats`.
//!
//! Only *transport* failures feed the breaker. Semantic refusals — a peer
//! that answers but rejects the request — are the caller's business: a
//! reachable peer that refuses every key should be dropped, not probed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the breaker.
    pub threshold: u32,
    /// Initial delay before the first health probe after opening; also the
    /// value the backoff resets to when a probe succeeds.
    pub probe_backoff: Duration,
    /// Upper bound the per-failure backoff doubling saturates at.
    pub backoff_cap: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            probe_backoff: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// What the breaker tells a caller about to touch the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The breaker is closed: proceed normally.
    Closed,
    /// The breaker is open and the backoff has elapsed: this caller should
    /// perform a health probe (and report the result back).
    Probe,
    /// The breaker is open and the backoff has not elapsed: fail fast.
    Open,
}

/// The mutable half of the breaker, guarded by one mutex.
#[derive(Debug)]
struct BreakerInner {
    consecutive_failures: u32,
    open: bool,
    /// When the open state was (re-)armed; probes wait `backoff` past it.
    opened_at: Instant,
    backoff: Duration,
}

/// A deterministic three-state circuit breaker (see the [module
/// docs](self)).
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<BreakerInner>,
    opens: AtomicU64,
    closes: AtomicU64,
    probes: AtomicU64,
}

impl CircuitBreaker {
    /// A breaker with the given tuning; starts closed.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: Mutex::new(BreakerInner {
                consecutive_failures: 0,
                open: false,
                opened_at: Instant::now(),
                backoff: config.probe_backoff,
            }),
            opens: AtomicU64::new(0),
            closes: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    /// What a caller about to touch the network should do right now.
    pub fn gate(&self) -> Gate {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.open {
            Gate::Closed
        } else if state.opened_at.elapsed() >= state.backoff {
            Gate::Probe
        } else {
            Gate::Open
        }
    }

    /// Records that a health probe is being attempted.
    pub fn record_probe(&self) {
        self.probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful round trip: resets the failure streak and, when
    /// the breaker was open, closes it and resets the backoff.
    pub fn record_success(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.consecutive_failures = 0;
        if state.open {
            state.open = false;
            state.backoff = self.config.probe_backoff;
            self.closes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a transport failure: while closed, extends the streak and
    /// opens at the threshold; while open (a failed probe), re-arms the
    /// backoff window and doubles it up to the cap.
    pub fn record_failure(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.open {
            state.opened_at = Instant::now();
            state.backoff = (state.backoff * 2).min(self.config.backoff_cap);
            return;
        }
        state.consecutive_failures += 1;
        if state.consecutive_failures >= self.config.threshold {
            state.open = true;
            state.opened_at = Instant::now();
            state.backoff = self.config.probe_backoff;
            state.consecutive_failures = 0;
            self.opens.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the breaker is open right now.
    pub fn is_open(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .open
    }

    /// Times the breaker opened.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Times a successful probe closed the breaker.
    pub fn closes(&self) -> u64 {
        self.closes.load(Ordering::Relaxed)
    }

    /// Health probes attempted while open.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config whose probes are due immediately — tests never sleep.
    fn instant_probes() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            probe_backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    #[test]
    fn opens_at_the_threshold_and_a_probe_heals_it() {
        let breaker = CircuitBreaker::new(instant_probes());
        assert_eq!(breaker.gate(), Gate::Closed);
        breaker.record_failure();
        breaker.record_failure();
        assert_eq!(breaker.gate(), Gate::Closed, "below threshold");
        breaker.record_failure();
        assert!(breaker.is_open());
        assert_eq!(breaker.opens(), 1);
        // Zero backoff: the very next caller is the probe.
        assert_eq!(breaker.gate(), Gate::Probe);
        breaker.record_probe();
        // A failed probe keeps it open (backoff stays zero at the cap).
        breaker.record_failure();
        assert!(breaker.is_open());
        assert_eq!(breaker.gate(), Gate::Probe);
        // A successful probe closes it.
        breaker.record_probe();
        breaker.record_success();
        assert!(!breaker.is_open());
        assert_eq!(breaker.gate(), Gate::Closed);
        assert_eq!(breaker.closes(), 1);
        assert_eq!(breaker.probes(), 2);
    }

    #[test]
    fn successes_reset_the_failure_streak() {
        let breaker = CircuitBreaker::new(instant_probes());
        breaker.record_failure();
        breaker.record_failure();
        breaker.record_success();
        breaker.record_failure();
        breaker.record_failure();
        assert_eq!(breaker.gate(), Gate::Closed, "streak was broken");
        breaker.record_failure();
        assert!(breaker.is_open());
    }

    #[test]
    fn nonzero_backoff_fails_fast_until_it_elapses() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            threshold: 1,
            probe_backoff: Duration::from_secs(3600),
            backoff_cap: Duration::from_secs(3600),
        });
        breaker.record_failure();
        assert!(breaker.is_open());
        // An hour of backoff has clearly not elapsed: fail fast, no probe.
        assert_eq!(breaker.gate(), Gate::Open);
    }

    #[test]
    fn reopening_after_a_close_needs_a_full_streak_again() {
        let breaker = CircuitBreaker::new(instant_probes());
        for _ in 0..3 {
            breaker.record_failure();
        }
        breaker.record_success();
        assert!(!breaker.is_open());
        breaker.record_failure();
        breaker.record_failure();
        assert!(!breaker.is_open(), "the close reset the streak");
        breaker.record_failure();
        assert!(breaker.is_open());
        assert_eq!(breaker.opens(), 2);
    }
}
