//! The heap a synthesized trace holds, and the heap its synthesis
//! peaks at, for one BERT-base head at s = 512 (276 live tokens).
//!
//! A trace is what `/v1/serve` and every `/v1/decode` open build per
//! request, so both numbers are per-request memory. This binary counts
//! every allocation through its own global allocator, which is why it
//! holds exactly one test: a second one running on another thread
//! would be counted too.

// Implementing `GlobalAlloc` needs `unsafe impl`; the counter forwards
// every call to `System` unchanged.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sprint_workloads::{ModelConfig, TraceGenerator};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with its arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract is passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller's `dealloc` contract requires.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract is passed on unchanged,
        // and `ptr` came from `System` as above.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KIB: usize = 1024;

#[test]
fn a_bert_base_trace_holds_its_matrices_and_synthesis_peaks_below_the_full_decision_set() {
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(512);
    let mut generator = TraceGenerator::new(20220930);

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let trace = generator.generate(&spec).unwrap();
    let held = LIVE.load(Ordering::SeqCst) - before;
    let peak = PEAK.load(Ordering::SeqCst) - before;

    assert_eq!(trace.live_tokens(), 276);
    // Q, K and V, nothing else: the s × s reference decisions (another
    // 256 KiB as `bool`s) are derived only when asked for.
    let qkv = 3 * 512 * 64 * std::mem::size_of::<f32>();
    assert!(
        (qkv..qkv + 4 * KIB).contains(&held),
        "trace holds {held} B, Q + K + V are {qkv} B"
    );
    // Q, K, the live score matrix and calibration's copy of it are the
    // peak (about 851 KiB); keeping the build's `live × d` topic rows
    // alive while it scores would add their 138 KiB.
    assert!(peak < 900 * KIB, "synthesis peaked at {} KiB", peak / KIB);

    let decisions = trace.reference_decisions();
    assert_eq!(decisions.len(), 512);
    assert!(
        LIVE.load(Ordering::SeqCst) - before >= held + 276 * 512,
        "the decisions are stored once derived"
    );
}
