//! Exploration leaves the process-wide panic hook alone.
//!
//! Pruned schedules, deadlocks and the engine's own teardown come back from
//! the engine as values, so `explore` has nothing to silence: it must not
//! replace the hook, must not trigger it on a clean search, and a panic the
//! program raises afterwards must still reach whatever hook is installed,
//! whatever its message says.
//!
//! This is its own test binary with a single test because the panic hook is
//! global to the process.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

use dsm_mc::{explore, program, McConfig};
use dsm_proto::Protocol;

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn explore_leaves_the_panic_hook_alone() {
    panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let report = explore(&McConfig::new(Protocol::Hlrc), &program::lock_counter(2, 1));
    let during = HOOK_CALLS.load(Ordering::SeqCst);
    let caught = panic::catch_unwind(|| panic!("simulation aborted: not from the engine"));
    let after = HOOK_CALLS.load(Ordering::SeqCst);
    drop(panic::take_hook());

    assert!(report.complete && report.clean(), "{report:?}");
    assert!(
        report.pruned_sleep > 0 && report.pruned_dedup > 0,
        "the search must take both prune paths: {report:?}"
    );
    assert_eq!(during, 0, "explore triggered the panic hook");
    assert!(caught.is_err());
    assert_eq!(after, 1, "a later panic did not reach the installed hook");
}
