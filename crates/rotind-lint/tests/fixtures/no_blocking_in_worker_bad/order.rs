//! A lazily sorted cache read on the worker path: a second thread that
//! reads it first waits on the `OnceLock` initializer the other is
//! running, and nothing vouches for how long that wait can be.

pub fn abandon_order(w: &Wedge) -> &[u32] {
    w.order.get_or_init(|| sorted_positions(w))
}
