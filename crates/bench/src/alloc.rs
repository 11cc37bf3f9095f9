//! A counting global allocator for the measuring binaries; the product
//! installs none. A binary opts in with `#[global_allocator] static
//! GLOBAL: Counting = Counting;`, and [`counted`] then reads every
//! `alloc`, `alloc_zeroed` and `realloc` call, and the bytes it asked
//! for, process-wide around a closure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting calls and requested bytes.
pub struct Counting;

/// Per-thread counter shards (calls, bytes), a cache line each: threads
/// allocating at once would otherwise bounce one line between cores,
/// which slowed eight concurrent readers by a third.
#[repr(align(64))]
struct Shard([AtomicU64; 2]);

const SHARDS: usize = 16;
// Only the array-repeat initialiser below reads it, and a fresh copy
// for each element is the point.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Shard = Shard([AtomicU64::new(0), AtomicU64::new(0)]);
static COUNTS: [Shard; SHARDS] = [ZERO; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    let mine = MY_SHARD.try_with(|mine| {
        if mine.get() == usize::MAX {
            mine.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        mine.get()
    });
    let [calls, total] = &COUNTS[mine.unwrap_or(0)].0;
    calls.fetch_add(1, Ordering::Relaxed);
    total.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Calls and bytes so far, summed over the shards.
fn totals() -> (u64, u64) {
    let load = |i: usize| COUNTS.iter().map(|s| s.0[i].load(Ordering::Relaxed)).sum();
    (load(0), load(1))
}

// SAFETY: every call is forwarded unchanged to `System`; counting
// touches only atomics and a const-initialised thread-local `Cell`
// without a destructor, none of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// The heap allocations a closure made, and the rows it returned (the
/// rows a round's monitor wrote).
#[derive(Clone, Copy)]
pub struct Allocs {
    /// Allocation calls.
    pub count: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// What the closure returned.
    pub rows: usize,
}

impl Allocs {
    /// `{"allocs": .., "alloc_bytes": .., "rows_written": ..}`.
    pub fn json(&self) -> String {
        format!(
            "{{\"allocs\": {}, \"alloc_bytes\": {}, \"rows_written\": {}}}",
            self.count, self.bytes, self.rows
        )
    }
}

/// Run `tick`, counting the allocations it makes (zero unless the binary
/// installed [`Counting`]).
pub fn counted(tick: impl FnOnce() -> usize) -> Allocs {
    let (count, bytes) = totals();
    let rows = tick();
    let (after, after_bytes) = totals();
    Allocs {
        count: after - count,
        bytes: after_bytes - bytes,
        rows,
    }
}
