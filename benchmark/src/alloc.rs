//! The benchmark's allocator: the system's, with big blocks on cache-line
//! boundaries.
//!
//! glibc hands out blocks on 16-byte boundaries, so whether two counters
//! of a node's shared state that different threads bump fall on one cache
//! line is decided by what the heap looked like when the node was
//! allocated. For `serve_train` that is the difference between 350 ns and
//! 650 ns per read (10 M and 4 M reads/s): repetitions of one process
//! landed in either regime at random, and the run reported whichever the
//! majority was. With every block of [`LINE_ALIGNED_FROM`] bytes or more
//! on a 64-byte boundary (as the size classes of jemalloc and mimalloc
//! are) the layout, and with it the regime, is the same in every
//! repetition, run and launcher.

use std::alloc::{GlobalAlloc, Layout, System};

/// Blocks at least this large start on a cache line.
const LINE_ALIGNED_FROM: usize = 256;
const CACHE_LINE: usize = 64;

pub struct LineAligned;

fn raised(layout: Layout) -> Layout {
    if layout.size() >= LINE_ALIGNED_FROM && layout.align() < CACHE_LINE {
        // A power of two no smaller than the old alignment, and the size
        // is unchanged, so the layout stays valid.
        Layout::from_size_align(layout.size(), CACHE_LINE).unwrap_or(layout)
    } else {
        layout
    }
}

// SAFETY: every call goes to `System` with a layout that `raised` maps
// the same way on allocation, reallocation and release.
unsafe impl GlobalAlloc for LineAligned {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(raised(layout))
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        System.alloc_zeroed(raised(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, raised(layout))
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (old, new) = (
            raised(layout),
            raised(Layout::from_size_align_unchecked(new_size, layout.align())),
        );
        if old.align() == new.align() {
            return System.realloc(ptr, old, new_size);
        }
        // The block crosses the size from which blocks are line-aligned.
        let fresh = System.alloc(new);
        if !fresh.is_null() {
            std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
            System.dealloc(ptr, old);
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_blocks_start_on_a_cache_line_and_survive_growing() {
        // The test binary runs on this allocator too.
        let big = vec![7u8; LINE_ALIGNED_FROM];
        assert_eq!(big.as_ptr() as usize % CACHE_LINE, 0);
        // Growing across the threshold and back keeps the contents.
        let mut v: Vec<u8> = (0..100).collect();
        v.reserve_exact(4 * LINE_ALIGNED_FROM);
        assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0);
        v.shrink_to_fit();
        assert!(v.iter().copied().eq(0..100));
    }
}
