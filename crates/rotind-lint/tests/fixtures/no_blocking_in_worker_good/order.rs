//! The lazily sorted cache, with its bounded wait vouched for.

pub fn abandon_order(w: &Wedge) -> &[u32] {
    // lint: blocking-allowed(a concurrent first reader waits for one sort of a pure function; no IO or lock runs under it)
    w.order.get_or_init(|| sorted_positions(w))
}
