//! Query budgets: bounded-cost search with typed partial results.
//!
//! A [`BudgetHook`] is threaded through the engine's hot loop exactly
//! like the observer: the search entry points are generic over it, and
//! the no-budget case is the zero-sized [`NoBudget`], whose
//! [`check`](BudgetHook::check) is a constant `true` — so an
//! un-budgeted search monomorphizes to the exact un-instrumented code
//! and stays bit-identical (property-tested in `tests/profiling.rs`).
//!
//! A real [`QueryBudget`] caps the paper's `num_steps` metric and/or
//! wall-clock. The engine checks it once per **dismissal boundary** —
//! per candidate series, never inside a bound accumulation — so a trip
//! is detected within one candidate's worth of work. Exhaustion is
//! *sticky*: once a budget trips it stays tripped, the scan loops
//! simply stop admitting new candidates, and the caller gets back a
//! typed [`Exhausted`] partial result instead of an answer it might
//! mistake for exact.
//!
//! Deadline checks are **amortized**: reading the monotonic clock is a
//! vDSO call, and paying it at every dismissal boundary puts a syscall
//! in the scan hot path. The clock is consulted on the *first* check
//! (so an already-expired deadline trips before any work is admitted)
//! and thereafter only every [`DEADLINE_POLL_STEPS`] steps — a window
//! of work far under a millisecond, so trip latency stays bounded
//! while the common (non-tripping) check is pure integer arithmetic.
//! Deadlines can also race a [`ManualClock`] instead of the wall
//! clock, which makes `Deadline` trips deterministic in tests and lets
//! the serve crate's tests pin trip points exactly.
//!
//! [`SharedBudget`] extends the same semantics across the parallel
//! scan: workers charge their local step deltas into one atomic pool,
//! and any worker tripping it stops all of them at their next check.

// Under `--features loom-tests` the pool's atomics come from the
// vendored loom stand-in, so `loom::model` closures can explore every
// interleaving of `SharedBudget` charges (see tests/loom_model.rs in
// rotind-index and DESIGN.md §14). Outside a model the loom types are
// transparent passthroughs, so behaviour is unchanged.
#[cfg(feature = "loom-tests")]
use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(not(feature = "loom-tests"))]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steps between deadline clock reads once the first check has passed.
///
/// A step is roughly one pointwise distance operation (a few
/// nanoseconds), so 4096 steps is tens of microseconds of work — trip
/// latency stays three orders of magnitude under a millisecond while
/// the clock read is amortized over thousands of checks.
pub const DEADLINE_POLL_STEPS: u64 = 4096;

/// Force a clock read at least every this many checks even when the
/// step counter is not advancing. Purely a stall backstop: the engine
/// charges at least one step per dismissal boundary, so the step
/// window normally fires first — but a hook driven by a stalled
/// counter must still converge on its deadline.
const DEADLINE_POLL_CHECKS: u32 = 4096;

/// Why a budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// The step cap was exceeded.
    Steps,
    /// The wall-clock deadline passed.
    Deadline,
}

/// A partial result from a budget-limited search.
///
/// `partial` is everything the search had established when the budget
/// tripped: for nearest-neighbour queries the best candidate admitted
/// so far (which is exact over the *scanned prefix* of the database),
/// for range queries the hits found so far.
#[derive(Debug, Clone, PartialEq)]
pub struct Exhausted<T> {
    /// The best answer over the portion of the database scanned before
    /// the budget tripped.
    pub partial: T,
    /// Which limit tripped first.
    pub reason: BudgetReason,
    /// Steps spent when the search stopped.
    pub steps_spent: u64,
}

/// The outcome of a budgeted search: either the exact answer, or a
/// typed partial one. Deliberately not a `Result` — exhaustion is not
/// an error, and the partial result is still admissible over its
/// scanned prefix.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetOutcome<T> {
    /// The budget never tripped; this answer is exact, bit-identical to
    /// the un-budgeted search.
    Complete(T),
    /// The budget tripped mid-scan.
    Exhausted(Exhausted<T>),
}

impl<T> BudgetOutcome<T> {
    /// The answer, exact or partial, discarding the outcome tag.
    pub fn into_inner(self) -> T {
        match self {
            BudgetOutcome::Complete(v) => v,
            BudgetOutcome::Exhausted(e) => e.partial,
        }
    }

    /// True for [`BudgetOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, BudgetOutcome::Complete(_))
    }

    /// Apply `f` to the answer, keeping the outcome tag (and, when
    /// exhausted, the trip metadata).
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> BudgetOutcome<U> {
        match self {
            BudgetOutcome::Complete(v) => BudgetOutcome::Complete(f(v)),
            BudgetOutcome::Exhausted(e) => BudgetOutcome::Exhausted(Exhausted {
                partial: f(e.partial),
                reason: e.reason,
                steps_spent: e.steps_spent,
            }),
        }
    }
}

/// The budget side of the engine's hot loop, mirroring
/// [`SearchObserver`](crate::SearchObserver): generic, defaulted to a
/// zero-sized no-op, never able to change a result other than by
/// stopping the scan early.
pub trait BudgetHook {
    /// Called at each dismissal boundary with the query counter's
    /// current total. Returns `true` while the search may continue.
    /// Implementations must be *sticky*: once this returns `false` it
    /// returns `false` forever.
    fn check(&mut self, steps_now: u64) -> bool;

    /// Why the budget tripped, when it has.
    fn trip_reason(&self) -> Option<BudgetReason>;
}

/// The no-budget hook: a ZST whose `check` is a constant `true`, so
/// budget-generic code compiles down to the un-budgeted loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoBudget;

impl BudgetHook for NoBudget {
    #[inline(always)]
    fn check(&mut self, _steps_now: u64) -> bool {
        true
    }

    #[inline(always)]
    fn trip_reason(&self) -> Option<BudgetReason> {
        None
    }
}

/// A hand-advanced nanosecond clock for deterministic deadline trips.
///
/// Wall-clock deadlines are inherently racy to test: whether
/// [`BudgetOutcome::Exhausted`] carries `reason: Deadline` depends on
/// scheduler timing. Injecting a `ManualClock` into
/// [`QueryBudget::with_clock`] makes the trip point a pure function of
/// when the test advances the clock. Clones share the same underlying
/// time, so a test can hold one handle while a budget owns another.
///
/// The clock also counts how often it was read, so tests can assert
/// the amortized polling really skips clock reads between
/// [`DEADLINE_POLL_STEPS`] windows. A [`ticking`](Self::ticking) clock
/// moves itself forward on every deadline read, so a deadline shorter
/// than the tick trips at the first poll after it was set, with no
/// second thread racing the one that polls.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    inner: Arc<ManualClockInner>,
}

// The clock deliberately uses std atomics even under `loom-tests`: it
// is test infrastructure, not part of the shared-budget protocol that
// loom models, and loom permits unmodeled std atomics alongside its
// own types.
#[derive(Debug, Default)]
struct ManualClockInner {
    now_ns: std::sync::atomic::AtomicU64,
    clock_reads: std::sync::atomic::AtomicU64,
    /// Nanoseconds each deadline read advances the clock by (0: only
    /// [`ManualClock::advance`] moves it).
    tick_ns: u64,
}

impl ManualClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at time zero that moves forward by `tick` on
    /// every deadline read, before the read.
    pub fn ticking(tick: Duration) -> Self {
        ManualClock {
            inner: Arc::new(ManualClockInner {
                tick_ns: duration_ns(tick),
                ..ManualClockInner::default()
            }),
        }
    }

    /// Move the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.advance_ns(duration_ns(d));
    }

    fn advance_ns(&self, ns: u64) {
        // Saturating CAS add: a wrapped clock would un-trip deadlines.
        let mut current = self.inner.now_ns.load(std::sync::atomic::Ordering::Acquire);
        loop {
            let next = current.saturating_add(ns);
            match self.inner.now_ns.compare_exchange_weak(
                current,
                next,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current time as a duration since the clock's epoch.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.inner.now_ns.load(std::sync::atomic::Ordering::Acquire))
    }

    /// Current time in nanoseconds, counted as a read.
    fn read_ns(&self) -> u64 {
        // A plain wrapping add is fine for the read tally: it is test
        // telemetry about *how often* the clock was consulted, never
        // fed back into deadline math.
        self.inner
            .clock_reads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if self.inner.tick_ns > 0 {
            self.advance_ns(self.inner.tick_ns);
        }
        self.inner.now_ns.load(std::sync::atomic::Ordering::Acquire)
    }

    /// How many times a deadline check has read this clock.
    pub fn reads(&self) -> u64 {
        self.inner
            .clock_reads
            .load(std::sync::atomic::Ordering::Acquire)
    }
}

/// Convert a duration to nanoseconds, saturating at `u64::MAX`
/// (~584 years — effectively "no deadline").
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An absolute deadline against either the wall clock or a
/// [`ManualClock`].
#[derive(Debug, Clone)]
enum Deadline {
    /// Real monotonic time.
    Wall(Instant),
    /// Deterministic test/serve time.
    Manual {
        /// The clock the deadline races.
        clock: ManualClock,
        /// Absolute trip point on that clock, in nanoseconds.
        at_ns: u64,
    },
}

impl Deadline {
    /// A deadline `d` from now on the given clock (wall when `None`).
    fn after(clock: Option<&ManualClock>, d: Duration) -> Self {
        match clock {
            None => Deadline::Wall(Instant::now() + d),
            Some(c) => Deadline::Manual {
                clock: c.clone(),
                at_ns: c
                    .inner
                    .now_ns
                    .load(std::sync::atomic::Ordering::Acquire)
                    .saturating_add(duration_ns(d)),
            },
        }
    }

    /// Has the deadline passed? This is the (amortized) clock read.
    fn passed(&self) -> bool {
        match self {
            Deadline::Wall(at) => Instant::now() >= *at,
            Deadline::Manual { clock, at_ns } => clock.read_ns() >= *at_ns,
        }
    }

    /// The wall-clock trip point, when this is a wall deadline.
    fn wall_instant(&self) -> Option<Instant> {
        match self {
            Deadline::Wall(at) => Some(*at),
            Deadline::Manual { .. } => None,
        }
    }
}

/// Amortization state for deadline polling: the clock is consulted
/// when `steps_now` reaches `next_steps` (zero initially, so the first
/// check always polls) or after [`DEADLINE_POLL_CHECKS`] checks
/// without a poll, whichever comes first.
#[derive(Debug, Clone, Copy)]
struct PollState {
    /// Step total at which the next clock read is due.
    next_steps: u64,
    /// Checks since the last clock read.
    checks_since_poll: u32,
}

impl PollState {
    /// Fresh state whose first `due` is always true.
    fn new() -> Self {
        PollState {
            next_steps: 0,
            checks_since_poll: 0,
        }
    }

    /// True when the deadline should be consulted at this check.
    fn due(&mut self, steps_now: u64) -> bool {
        self.checks_since_poll = self.checks_since_poll.saturating_add(1);
        if steps_now >= self.next_steps || self.checks_since_poll >= DEADLINE_POLL_CHECKS {
            self.next_steps = steps_now.saturating_add(DEADLINE_POLL_STEPS);
            self.checks_since_poll = 0;
            true
        } else {
            false
        }
    }
}

/// A per-query budget: a cap on `num_steps`, a wall-clock deadline, or
/// both. Step caps are deterministic and machine-independent (they
/// count the paper's Section 5.3 metric); deadlines are for serving.
#[derive(Debug, Clone)]
pub struct QueryBudget {
    max_steps: Option<u64>,
    deadline: Option<Deadline>,
    tripped: Option<BudgetReason>,
    poll: PollState,
}

impl QueryBudget {
    /// A budget with both limits optional. `max_wall` is measured from
    /// now.
    pub fn new(max_steps: Option<u64>, max_wall: Option<Duration>) -> Self {
        QueryBudget {
            max_steps,
            deadline: max_wall.map(|d| Deadline::after(None, d)),
            tripped: None,
            poll: PollState::new(),
        }
    }

    /// Like [`new`](Self::new), but the deadline races `clock` instead
    /// of the wall clock — deterministic `Deadline` trips for tests
    /// and the serve crate's shutdown paths.
    pub fn with_clock(
        max_steps: Option<u64>,
        max_wall: Option<Duration>,
        clock: &ManualClock,
    ) -> Self {
        QueryBudget {
            max_steps,
            deadline: max_wall.map(|d| Deadline::after(Some(clock), d)),
            tripped: None,
            poll: PollState::new(),
        }
    }

    /// Cap the query at `n` steps (deterministic across machines).
    pub fn max_steps(n: u64) -> Self {
        Self::new(Some(n), None)
    }

    /// Give the query `d` of wall-clock from now.
    pub fn deadline(d: Duration) -> Self {
        Self::new(None, Some(d))
    }

    /// The configured step cap, when any.
    pub fn step_limit(&self) -> Option<u64> {
        self.max_steps
    }

    /// The absolute wall-clock deadline, when any (`None` for budgets
    /// racing a [`ManualClock`]).
    pub fn deadline_instant(&self) -> Option<Instant> {
        self.deadline.as_ref().and_then(Deadline::wall_instant)
    }
}

impl BudgetHook for QueryBudget {
    #[inline]
    fn check(&mut self, steps_now: u64) -> bool {
        if self.tripped.is_some() {
            return false;
        }
        if let Some(max) = self.max_steps {
            if steps_now >= max {
                self.tripped = Some(BudgetReason::Steps);
                return false;
            }
        }
        if let Some(deadline) = &self.deadline {
            if self.poll.due(steps_now) && deadline.passed() {
                self.tripped = Some(BudgetReason::Deadline);
                return false;
            }
        }
        true
    }

    #[inline]
    fn trip_reason(&self) -> Option<BudgetReason> {
        self.tripped
    }
}

/// One budget pool shared by the workers of a parallel scan.
///
/// Each worker holds a [`SharedBudgetHook`] that charges its local step
/// *delta* into the pool at every check; the pool trips when the total
/// crosses the cap (or the deadline passes), and the trip flag makes
/// every other worker's next check fail. The charge uses a
/// compare-exchange saturating add — the pool total must never wrap,
/// for the same reason [`StepCounter`](rotind_ts::StepCounter)
/// saturates. Deadline polling is amortized *per worker* (each hook
/// carries its own poll state), so the pool itself never reads the
/// clock.
#[derive(Debug)]
pub struct SharedBudget {
    max_steps: Option<u64>,
    deadline: Option<Deadline>,
    spent_pool: AtomicU64,
    tripped_steps: AtomicBool,
    tripped_deadline: AtomicBool,
}

impl SharedBudget {
    /// A pool with the same limits as `budget` (including its already
    /// fixed deadline, so sequential and parallel runs race the same
    /// clock).
    pub fn from_budget(budget: &QueryBudget) -> Self {
        SharedBudget {
            max_steps: budget.max_steps,
            deadline: budget.deadline.clone(),
            spent_pool: AtomicU64::new(0),
            tripped_steps: AtomicBool::new(false),
            tripped_deadline: AtomicBool::new(false),
        }
    }

    /// A fresh per-worker hook charging into this pool.
    pub fn hook(&self) -> SharedBudgetHook<'_> {
        SharedBudgetHook {
            shared: self,
            reported: 0,
            poll: PollState::new(),
        }
    }

    /// Total steps charged into the pool so far.
    pub fn spent(&self) -> u64 {
        self.spent_pool.load(Ordering::Acquire)
    }

    /// Why the pool tripped, when it has. Steps win ties: a step trip
    /// is deterministic, a deadline trip is not, and the flag is used
    /// to label the [`Exhausted`] result.
    pub fn trip_reason(&self) -> Option<BudgetReason> {
        if self.tripped_steps.load(Ordering::Acquire) {
            Some(BudgetReason::Steps)
        } else if self.tripped_deadline.load(Ordering::Acquire) {
            Some(BudgetReason::Deadline)
        } else {
            None
        }
    }

    /// Saturating atomic add via compare-exchange (no `fetch_add`: it
    /// would wrap, and telemetry must never wrap). Returns the new
    /// total.
    fn charge(&self, delta: u64) -> u64 {
        let mut current = self.spent_pool.load(Ordering::Acquire);
        loop {
            let next = current.saturating_add(delta);
            match self.spent_pool.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return next,
                Err(actual) => current = actual,
            }
        }
    }
}

/// A worker-thread view of a [`SharedBudget`]; implements
/// [`BudgetHook`] over the worker's own counter.
#[derive(Debug)]
pub struct SharedBudgetHook<'a> {
    shared: &'a SharedBudget,
    /// The worker-local step total already charged into the pool.
    reported: u64,
    /// Per-worker deadline polling amortization.
    poll: PollState,
}

impl BudgetHook for SharedBudgetHook<'_> {
    fn check(&mut self, steps_now: u64) -> bool {
        let delta = steps_now.saturating_sub(self.reported);
        self.reported = steps_now;
        let total = if delta > 0 {
            self.shared.charge(delta)
        } else {
            self.shared.spent()
        };
        if self.shared.tripped_steps.load(Ordering::Acquire)
            || self.shared.tripped_deadline.load(Ordering::Acquire)
        {
            return false;
        }
        if let Some(max) = self.shared.max_steps {
            if total >= max {
                self.shared.tripped_steps.store(true, Ordering::Release);
                return false;
            }
        }
        if let Some(deadline) = &self.shared.deadline {
            if self.poll.due(steps_now) && deadline.passed() {
                self.shared.tripped_deadline.store(true, Ordering::Release);
                return false;
            }
        }
        true
    }

    fn trip_reason(&self) -> Option<BudgetReason> {
        self.shared.trip_reason()
    }
}

impl<B: BudgetHook + ?Sized> BudgetHook for &mut B {
    #[inline]
    fn check(&mut self, steps_now: u64) -> bool {
        (**self).check(steps_now)
    }

    #[inline]
    fn trip_reason(&self) -> Option<BudgetReason> {
        (**self).trip_reason()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_never_trips() {
        let mut b = NoBudget;
        assert!(b.check(0));
        assert!(b.check(u64::MAX));
        assert_eq!(b.trip_reason(), None);
    }

    #[test]
    fn step_budget_trips_at_cap_and_stays_tripped() {
        let mut b = QueryBudget::max_steps(100);
        assert!(b.check(0));
        assert!(b.check(99));
        assert!(!b.check(100), "cap is inclusive: spent >= max trips");
        assert_eq!(b.trip_reason(), Some(BudgetReason::Steps));
        assert!(!b.check(0), "tripping is sticky even if steps rewind");
    }

    #[test]
    fn deadline_budget_trips_once_past() {
        let mut b = QueryBudget::deadline(Duration::from_secs(3600));
        assert!(b.check(1_000_000), "an hour out, nowhere near tripping");
        let mut expired = QueryBudget::deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(!expired.check(0), "first check always polls the clock");
        assert_eq!(expired.trip_reason(), Some(BudgetReason::Deadline));
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let mut b = QueryBudget::new(None, None);
        assert!(b.check(u64::MAX));
        assert_eq!(b.trip_reason(), None);
    }

    #[test]
    fn manual_clock_deadline_is_deterministic() {
        let clock = ManualClock::new();
        let mut b = QueryBudget::with_clock(None, Some(Duration::from_millis(5)), &clock);
        assert!(b.check(0), "clock at 0, deadline at 5ms");
        clock.advance(Duration::from_millis(4));
        // Force a poll by jumping past the poll window.
        assert!(b.check(DEADLINE_POLL_STEPS), "4ms < 5ms deadline");
        clock.advance(Duration::from_millis(1));
        assert!(!b.check(DEADLINE_POLL_STEPS * 2), "5ms >= 5ms trips");
        assert_eq!(b.trip_reason(), Some(BudgetReason::Deadline));
        clock.advance(Duration::from_secs(1));
        assert!(!b.check(0), "deadline trips are sticky");
    }

    #[test]
    fn a_ticking_clock_trips_at_the_first_poll_past_its_deadline() {
        let clock = ManualClock::ticking(Duration::from_millis(1));
        let mut b = QueryBudget::with_clock(None, Some(Duration::from_micros(1500)), &clock);
        assert!(b.check(0), "first read: 1ms < 1.5ms");
        assert_eq!(clock.now(), Duration::from_millis(1));
        assert!(b.check(1), "inside the poll window: no read, no tick");
        assert_eq!((clock.reads(), clock.now()), (1, Duration::from_millis(1)));
        assert!(!b.check(DEADLINE_POLL_STEPS), "second read: 2ms >= 1.5ms");
        assert_eq!(b.trip_reason(), Some(BudgetReason::Deadline));
        assert_eq!(clock.reads(), 2);
    }

    #[test]
    fn deadline_polling_is_amortized() {
        let clock = ManualClock::new();
        let mut b = QueryBudget::with_clock(None, Some(Duration::from_secs(1)), &clock);
        assert!(b.check(0), "first check polls");
        let after_first = clock.reads();
        assert_eq!(after_first, 1, "exactly one read on the first check");
        // Checks inside the poll window must not read the clock.
        for steps in 1..DEADLINE_POLL_STEPS {
            assert!(b.check(steps));
        }
        assert_eq!(
            clock.reads(),
            after_first,
            "no clock reads inside the {DEADLINE_POLL_STEPS}-step window"
        );
        assert!(b.check(DEADLINE_POLL_STEPS), "window boundary polls again");
        assert_eq!(clock.reads(), after_first + 1);
    }

    #[test]
    fn stalled_steps_still_poll_eventually() {
        let clock = ManualClock::new();
        let mut b = QueryBudget::with_clock(None, Some(Duration::ZERO), &clock);
        clock.advance(Duration::from_nanos(1));
        // Consume the first (always-polling) check before expiring:
        // deadline was 0ns from a 0ns clock, so it is already past —
        // the first check trips immediately.
        assert!(!b.check(0), "expired manual deadline trips on first check");
    }

    #[test]
    fn stalled_steps_poll_after_check_limit() {
        let clock = ManualClock::new();
        let mut b = QueryBudget::with_clock(None, Some(Duration::from_millis(1)), &clock);
        assert!(b.check(10), "first check polls, deadline not yet passed");
        clock.advance(Duration::from_millis(2));
        // The step counter never advances past the poll window, but the
        // check-count guard must force a poll within
        // DEADLINE_POLL_CHECKS checks.
        let mut tripped = false;
        for _ in 0..(DEADLINE_POLL_CHECKS + 1) {
            if !b.check(10) {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "stalled counter still converges on its deadline");
        assert_eq!(b.trip_reason(), Some(BudgetReason::Deadline));
    }

    #[test]
    fn shared_budget_pools_worker_deltas() {
        let pool = SharedBudget::from_budget(&QueryBudget::max_steps(100));
        let mut w0 = pool.hook();
        let mut w1 = pool.hook();
        assert!(w0.check(40), "40 total");
        assert!(w1.check(50), "90 total");
        assert!(!w1.check(60), "100 total trips the pool");
        assert!(!w0.check(41), "other workers see the trip immediately");
        assert_eq!(pool.trip_reason(), Some(BudgetReason::Steps));
        assert!(pool.spent() >= 100);
    }

    #[test]
    fn shared_hook_charges_deltas_not_totals() {
        let pool = SharedBudget::from_budget(&QueryBudget::max_steps(1000));
        let mut w = pool.hook();
        assert!(w.check(10));
        assert!(w.check(25));
        assert!(w.check(25), "no new steps, no new charge");
        assert_eq!(pool.spent(), 25, "monotone local totals charge once");
    }

    #[test]
    fn shared_charge_saturates() {
        let pool = SharedBudget::from_budget(&QueryBudget::new(None, None));
        let mut w = pool.hook();
        assert!(w.check(u64::MAX - 1));
        let mut w2 = pool.hook();
        assert!(w2.check(10));
        assert_eq!(pool.spent(), u64::MAX, "pool saturates, never wraps");
    }

    #[test]
    fn shared_manual_deadline_trips_all_workers() {
        let clock = ManualClock::new();
        let budget = QueryBudget::with_clock(None, Some(Duration::from_millis(1)), &clock);
        let pool = SharedBudget::from_budget(&budget);
        let mut w0 = pool.hook();
        let mut w1 = pool.hook();
        assert!(w0.check(5));
        assert!(w1.check(5));
        clock.advance(Duration::from_millis(2));
        // The first check armed w0's poll window at 5 + POLL_STEPS, so
        // jump past it to force the next clock read.
        assert!(
            !w0.check(DEADLINE_POLL_STEPS + 5),
            "past-deadline poll trips"
        );
        assert!(!w1.check(6), "other workers see the trip without polling");
        assert_eq!(pool.trip_reason(), Some(BudgetReason::Deadline));
    }

    #[test]
    fn outcome_accessors() {
        let complete: BudgetOutcome<u32> = BudgetOutcome::Complete(7);
        assert!(complete.is_complete());
        assert_eq!(complete.into_inner(), 7);
        let exhausted: BudgetOutcome<u32> = BudgetOutcome::Exhausted(Exhausted {
            partial: 3,
            reason: BudgetReason::Steps,
            steps_spent: 100,
        });
        assert!(!exhausted.is_complete());
        assert_eq!(exhausted.into_inner(), 3);
    }
}
