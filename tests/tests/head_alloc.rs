//! A warm Sprint head allocates less than half a dense score matrix.
//!
//! The on-chip recompute works over kept-ordered buffers and returns
//! only its output, so serving a head needs no `s_q × s_k` matrix: a
//! warm BERT-base s = 512 head allocates about 0.37 MB (its decisions,
//! its output, the prune's rows). The bound is half of one `f32` score
//! matrix (0.5 MiB): a dense score or probability matrix allocated per
//! head on the Sprint path crosses it, and so do whole-tensor `i32`
//! code matrices for Q, K and V (0.39 MB more for this head), which a
//! workspace pool recycling the dense matrices would not hide. This
//! binary counts every byte allocated through its own global
//! allocator, which is why it holds exactly one test: a second one
//! running on another thread would be counted too.

// Implementing `GlobalAlloc` needs `unsafe impl`; the counter forwards
// every call to `System` unchanged.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sprint_engine::{Engine, ExecutionMode, HeadRequest, SprintConfig};
use sprint_workloads::{ModelConfig, TraceGenerator};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with its arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a plain atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's `alloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller's `dealloc` contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::SeqCst);
        // SAFETY: the caller's `realloc` contract is passed on unchanged,
        // and `ptr` came from `System` as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_warm_sprint_head_allocates_less_than_half_a_score_matrix() {
    // A BERT-base head at s = 512 (276 live tokens), served twice by
    // one engine: the first call warms its scratch, the second counts.
    let seed = 20220930;
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(512);
    let head = TraceGenerator::new(seed).generate(&spec).unwrap();
    let request = HeadRequest::from_trace(&head);
    let engine = Engine::builder(SprintConfig::medium())
        .seed(seed)
        .mode(ExecutionMode::Sprint)
        .build()
        .unwrap();
    let warm = engine.run_head(&request).unwrap();
    let before = BYTES.load(Ordering::SeqCst);
    let counted = engine.run_head(&request).unwrap();
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    assert_eq!(counted, warm, "a warm head gives the same bits");
    let (s_q, s_k) = (head.q().rows(), head.k().rows());
    let matrix = s_q * s_k * std::mem::size_of::<f32>();
    assert!(
        bytes < matrix / 2,
        "a warm head allocated {bytes} bytes, half a {s_q} x {s_k} score matrix is {}",
        matrix / 2
    );
}
