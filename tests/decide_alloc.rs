//! A warm `decide` of every stationary baseline allocates nothing.
//!
//! The batched engine calls a stationary policy's `decide` once per plan
//! miss, i.e. once per distinct remaining set of a cell. The policy may
//! size its scratch on the first call; after that a decision must not
//! touch the heap. A counting global allocator checks it. The counter is
//! thread-local, so allocations by the test harness's other threads do
//! not count.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use suu::algos::standard_registry;
use suu::core::{workload, BitSet, Precedence};
use suu::sim::{Assignment, StateView};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_stationary_decisions_allocate_nothing() {
    let (m, n) = (8, 96);
    let mut rng = SmallRng::seed_from_u64(96);
    let inst = Arc::new(workload::uniform_unrelated(
        m,
        n,
        0.1,
        0.9,
        Precedence::Independent,
        &mut rng,
    ));
    let registry = standard_registry();
    // Jobs leave the eligible set in a scrambled order (37 is coprime to
    // 96, so this visits 50 distinct jobs).
    let leaving: Vec<u32> = (0..50).map(|k| (k * 37 % n) as u32).collect();
    for name in ["greedy-lr", "best-machine", "gang-sequential"] {
        let mut policy = registry.build_named(&inst, name).unwrap();
        policy.reset();
        let mut remaining = BitSet::full(n);
        let mut out = Assignment::new(m);
        // The first call may size the policy's scratch.
        policy.decide(
            &StateView {
                time: 0,
                epoch: 0,
                remaining: &remaining,
                eligible: &remaining,
                n,
                m,
            },
            &mut out,
        );
        for (epoch, &j) in leaving.iter().enumerate() {
            remaining.remove(j);
            out.clear();
            let state = StateView {
                time: epoch as u64 + 1,
                epoch: epoch as u64 + 1,
                remaining: &remaining,
                eligible: &remaining,
                n,
                m,
            };
            let before = allocations();
            policy.decide(&state, &mut out);
            let made = allocations() - before;
            assert_eq!(
                made,
                0,
                "{name}: decide on {} eligible jobs allocated {made} times",
                remaining.len()
            );
            assert!(
                out.slots().iter().all(Option::is_some),
                "{name}: every machine has a useful job"
            );
        }
    }
}
