//! A counting allocator: allocations and bytes requested, for the traced
//! pass. Counting is gated by one relaxed flag, so an untraced run pays a
//! single predictable branch per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Relaxed everywhere: the three values are statistics and publish no other
// data; they are read after the threads that bumped them have been joined.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting inside [`counting`].
pub struct Counting;

fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and do not allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the signature `GlobalAlloc` prescribes; the caller's obligations
    // are exactly the trait's and go to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the signature `GlobalAlloc` prescribes; the caller's obligations
    // are exactly the trait's and go to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the signature `GlobalAlloc` prescribes; the caller's obligations
    // are exactly the trait's and go to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System` underneath,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the signature `GlobalAlloc` prescribes; the caller's obligations
    // are exactly the trait's and go to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System` underneath,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` made by every thread while `f` runs.
pub fn counting(f: impl FnOnce()) -> (u64, u64) {
    let before = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ON.store(true, Ordering::Relaxed);
    f();
    ON.store(false, Ordering::Relaxed);
    (
        CALLS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}
