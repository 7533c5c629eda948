//! Counting global allocator: heap allocations per thread, the noise-free
//! software-cost proxy behind `allocs_per_op`. Counts are thread-local so a
//! rank thread reads exactly its own allocations around a timed block, with
//! no cross-thread traffic on the allocation path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator can neither allocate nor run after TLS teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` because the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made by the calling
/// thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator plus a per-thread allocation counter.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to keep valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        let b = Box::new(5u8);
        let after = thread_allocs();
        std::hint::black_box((&v, &b));
        assert_eq!(after - before, 2);

        // Another thread's allocations do not land on this thread's counter.
        let mine = thread_allocs();
        let theirs = std::thread::spawn(|| {
            let start = thread_allocs();
            let v: Vec<u8> = vec![0; 100];
            std::hint::black_box(&v);
            thread_allocs() - start
        })
        .join()
        .expect("counter thread");
        assert_eq!(theirs, 1);
        // Spawning itself allocates on this thread, so only bound it below.
        assert!(thread_allocs() >= mine);
    }

    #[test]
    fn growth_counts_as_reallocation() {
        let mut v: Vec<u8> = Vec::with_capacity(1);
        let before = thread_allocs();
        v.extend_from_slice(&[0u8; 4096]);
        std::hint::black_box(&v);
        assert!(thread_allocs() > before);
    }
}
