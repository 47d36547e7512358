//! Seeded violations: the worker loop looks lock-free here — the mutex
//! hides two calls down, in `metrics.rs`, and a `OnceLock` first-read
//! wait hides in `order.rs`.

pub fn worker_loop(s: &Shared) {
    run_job(s);
}

fn run_job(s: &Shared) {
    observe(s);
    abandon_order(&s.wedge);
}
