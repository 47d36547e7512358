//! The burned-down twin: the designed admission wait and the bounded
//! `OnceLock` first-read wait carry reasoned allowlist comments; the
//! metrics path switched to `try_lock`.

pub fn worker_loop(s: &Shared) {
    // lint: blocking-allowed(idle wait for the next admitted job is the designed parking point)
    let job = s.rx.recv();
    run_job(s, job);
}

fn run_job(s: &Shared, _job: Job) {
    observe(s);
    abandon_order(&s.wedge);
}
