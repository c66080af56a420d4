//! `RecordEncoder::encode_into` allocates nothing per sample: once its
//! scratch has grown to the planes a corpus needs, encoding the corpus again
//! makes no heap allocation. A counting global allocator checks it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hdc::{BinaryHv, Dim, Encode, EncodeScratch, RecordEncoder};

thread_local! {
    /// Allocations made by the current thread (const-initialized, so
    /// reading it never allocates).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a plain thread-local cell.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn encode_into_allocates_nothing_per_sample() {
    // The paper's MNIST shape, and a ragged one whose 17 features leave a
    // remainder after the groups of 8.
    for (d, n) in [(10_000, 784), (65, 17)] {
        let enc = RecordEncoder::builder(Dim::new(d), n)
            .levels(16)
            .seed(3)
            .build()
            .unwrap();
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..n).map(|i| ((i * 7 + r * 13) % 29) as f32 / 28.0).collect())
            .collect();
        let mut scratch = EncodeScratch::new(Dim::new(d));
        let mut out = BinaryHv::zeros(Dim::new(d));
        for row in &rows {
            enc.encode_into(row, &mut scratch, &mut out).unwrap();
        }
        let before = ALLOCATIONS.with(Cell::get);
        for row in &rows {
            enc.encode_into(row, &mut scratch, &mut out).unwrap();
        }
        assert_eq!(ALLOCATIONS.with(Cell::get), before, "D={d} N={n}");
        // The counter does see allocations: `encode` builds fresh scratch.
        enc.encode(&rows[0]).unwrap();
        assert!(ALLOCATIONS.with(Cell::get) > before, "D={d} N={n}");
    }
}
