//! A global allocator that counts, per thread, the bytes live allocations
//! hold. A test binary installs it and reads [`held`] before and after what
//! it measures, so it sees only what its own thread allocated:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;
//! ```
//!
//! It forwards every call to [`System`] unchanged and only moves a
//! thread-local count, so what it hands out is exactly what `System` would.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: a thread being torn down has no counter left to move
    let _ = HELD.try_with(|held| held.set(held.get() + delta));
}

/// The bytes this thread's live allocations hold: what it allocated less
/// what it freed, whichever thread made the blocks it freed.
pub fn held() -> isize {
    HELD.with(Cell::get)
}

// SAFETY: every method forwards its arguments to `System`, which upholds
// `GlobalAlloc`'s contract, and returns what `System` returned; the count
// beside it neither allocates (a `const`-initialised thread-local `Cell`)
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller meets `alloc`'s contract (a non-zero size),
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator with `layout`, so from
        // `System` with `layout`, as `System.dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`, and the caller meets `realloc`'s conditions on
        // `new_size`, which are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    #[test]
    fn a_vec_moves_the_held_count_by_its_capacity_and_back() {
        let before = held();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(1000));
        assert_eq!(held() - before, 1000);
        drop(v);
        assert_eq!(held(), before);
    }
}
