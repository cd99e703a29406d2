//! Counting global allocator: forwards every request to the system
//! allocator. It always tracks the heap bytes live across all threads (the
//! simulator's node threads included) and their peak; while counting is
//! switched on it also tallies allocations and requested bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The allocator installed as `#[global_allocator]` in the benchmark binary.
pub struct Counting;

/// Allocation totals since the process started counting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl Allocs {
    /// Field-wise difference `self - earlier`.
    pub fn since(self, earlier: Allocs) -> Allocs {
        Allocs {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Switch allocation counting on or off. Off costs one relaxed load per
/// allocation.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Current totals. The counters are statistics that publish no other data,
/// so relaxed ordering suffices.
pub fn snapshot() -> Allocs {
    Allocs {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Highest number of heap bytes live at once since the process started.
/// Unlike resident memory, it does not depend on how the system allocator
/// spreads threads over its arenas, so it repeats closely from run to run.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

fn note(bytes: usize) {
    grow(bytes);
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly, so each caller's contract (non-zero
// layout size, pointers and layouts from a matching earlier call) passes
// straight through, and the pointer `System` returns is returned unchanged.
// The only added work is updating atomics, which never allocates, so it
// cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            note(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_live_bytes_covers_a_large_allocation() {
        let big = vec![1u8; 32 << 20];
        assert!(peak_live_bytes() >= big.len() as u64);
        drop(big);
        assert!(peak_live_bytes() >= 32 << 20);
    }

    #[test]
    fn counting_tallies_allocations_while_on() {
        set_counting(true);
        let before = snapshot();
        let v = std::hint::black_box(vec![0u64; 1000]);
        let d = snapshot().since(before);
        drop(v);
        assert!(d.count >= 1 && d.bytes >= 8000, "{d:?}");
    }
}
