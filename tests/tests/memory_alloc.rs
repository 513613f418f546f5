//! A warm memory controller's query allocates nothing.
//!
//! `MemoryController::process_query` runs once per live query of every
//! served head and once per decode step, so a heap allocation in it is
//! paid at the rate of the whole system. This binary counts every
//! allocation through its own global allocator, which is why it holds
//! exactly one test: a second one running on another thread would be
//! counted too.

// Implementing `GlobalAlloc` needs `unsafe impl`; the counter forwards
// every call to `System` unchanged.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sprint_engine::SprintConfig;
use sprint_memory::MemoryController;
use sprint_workloads::{ModelConfig, TraceGenerator};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with its arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a plain atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's `alloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller's `dealloc` contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's `realloc` contract is passed on unchanged,
        // and `ptr` came from `System` as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `queries` through `mc` twice — a warm-up, then again counting —
/// with a cold reset before the run (`cold_each == false`, one head) or
/// before every query (one decode step each); returns the allocations
/// of the counted queries.
fn counted(mc: &mut MemoryController, queries: &[Vec<bool>], cold_each: bool) -> usize {
    let mut run = |count: bool| {
        let mut allocations = 0;
        mc.reset_cold();
        for pruned in queries {
            if cold_each {
                mc.reset_cold();
            }
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            mc.process_query(pruned).unwrap();
            if count {
                allocations += ALLOCATIONS.load(Ordering::SeqCst) - before;
            }
        }
        allocations
    };
    run(false);
    run(true)
}

#[test]
fn a_warm_controller_allocates_nothing_per_query() {
    let mut mc = SprintConfig::medium().memory_controller().unwrap();

    // Every live row of a BERT-base s = 512 head (276 live keys).
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(512);
    let trace = TraceGenerator::new(20220930).generate(&spec).unwrap();
    let live = trace.live_tokens();
    let rows: Vec<Vec<bool>> = trace.reference_decisions()[..live]
        .iter()
        .map(|d| d.as_slice()[..live].to_vec())
        .collect();
    assert_eq!(
        counted(&mut mc, &rows, false),
        0,
        "warm BERT-B s = 512 rows"
    );

    // GPT-2-large decode steps t = 128..512, each over its t + 1 keys
    // on a cold controller, as a decode session prices them.
    let spec = ModelConfig::gpt2_large()
        .trace_spec()
        .with_seq_len(512)
        .with_padding(0.0);
    let trace = TraceGenerator::new(20220930).generate(&spec).unwrap();
    let steps: Vec<Vec<bool>> = (128..512)
        .map(|t| trace.reference_decisions()[t].as_slice()[..=t].to_vec())
        .collect();
    assert_eq!(
        counted(&mut mc, &steps, true),
        0,
        "cold GPT-2-L decode steps"
    );
}
