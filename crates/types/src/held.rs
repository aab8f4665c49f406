//! What the current thread holds, for the latch rules' debug assertions.
//!
//! Two rules keep the kernel's waits acyclic (DESIGN.md §8.1): no lock
//! request and no explicit device operation while a page or tree latch
//! is held, and no scan pull while the evaluator's guard on the function
//! registry is held. Every latch guard carries a [`Latched`] marker and
//! every evaluator an [`Evaluating`] one, which count them per thread;
//! the lock manager, the explicit device operations and the dispatcher's
//! pulls call [`assert_unlatched`] or [`assert_may_pull`]. A debug build
//! thereby checks the rules on every path a test takes, closures and
//! guards kept in fields included. Release builds compile it all out:
//! the markers are empty and the checks do nothing.

use std::marker::PhantomData;

#[cfg(debug_assertions)]
thread_local! {
    static LATCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static EVALUATORS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Counts one page or tree latch guard while it lives. Not `Send`: the
/// count is the holding thread's.
pub struct Latched(PhantomData<*const ()>);

impl Latched {
    /// Marks a latch taken by this thread.
    pub fn enter() -> Latched {
        #[cfg(debug_assertions)]
        LATCHES.with(|n| n.set(n.get() + 1));
        Latched(PhantomData)
    }
}

#[cfg(debug_assertions)]
impl Drop for Latched {
    fn drop(&mut self) {
        LATCHES.with(|n| n.set(n.get() - 1));
    }
}

/// Counts one evaluator (a read guard on the function registry) while it
/// lives.
pub struct Evaluating(PhantomData<*const ()>);

impl Evaluating {
    /// Marks an evaluator taken by this thread.
    pub fn enter() -> Evaluating {
        #[cfg(debug_assertions)]
        EVALUATORS.with(|n| n.set(n.get() + 1));
        Evaluating(PhantomData)
    }
}

#[cfg(debug_assertions)]
impl Drop for Evaluating {
    fn drop(&mut self) {
        EVALUATORS.with(|n| n.set(n.get() - 1));
    }
}

/// Debug builds: panics when this thread holds a page or tree latch.
/// Called before `what` — a lock request or an explicit device operation
/// — because either may wait on a thread that needs the latch.
pub fn assert_unlatched(what: &str) {
    #[cfg(debug_assertions)]
    {
        let n = LATCHES.with(|n| n.get());
        debug_assert!(
            n == 0,
            "{what} under {n} page or tree latch(es): a latch is the leaf of the wait \
             hierarchy, release it first"
        );
    }
    let _ = what;
}

/// Debug builds: panics when this thread holds a latch or an evaluator.
/// Called at every pull of a scan: the input may take the registry guard
/// again, and a function registration queued between the two wedges both.
pub fn assert_may_pull(what: &str) {
    assert_unlatched(what);
    #[cfg(debug_assertions)]
    {
        let n = EVALUATORS.with(|n| n.get());
        debug_assert!(
            n == 0,
            "{what} under {n} evaluator(s): pull first, then take the evaluator"
        );
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn markers_count_while_they_live() {
        assert_may_pull("a pull with nothing held");
        {
            let _a = Latched::enter();
            let _b = Latched::enter();
            assert_eq!(LATCHES.with(|n| n.get()), 2);
        }
        let _e = Evaluating::enter();
        assert_unlatched("a lock under an evaluator");
        drop(_e);
        assert_may_pull("a pull after both went");
    }

    #[test]
    #[should_panic(expected = "under 1 page or tree latch")]
    fn a_lock_under_a_latch_panics() {
        let _held = Latched::enter();
        assert_unlatched("lock request");
    }

    #[test]
    #[should_panic(expected = "under 1 evaluator")]
    fn a_pull_under_an_evaluator_panics() {
        let _held = Evaluating::enter();
        assert_may_pull("scan pull");
    }
}
