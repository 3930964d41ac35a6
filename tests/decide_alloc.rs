//! A warm `decide` of every stationary baseline allocates nothing, and
//! neither does a warm batch runner beyond the outcomes it returns.
//!
//! The batch runner calls a stationary policy's `decide` once per plan
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
use suu::sim::{Assignment, BatchRunner, EvalConfig, Evaluator, ExecConfig, Semantics, StateView};

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

/// The n = 96 instance both tests run on.
fn instance() -> Arc<suu::core::SuuInstance> {
    let mut rng = SmallRng::seed_from_u64(96);
    Arc::new(workload::uniform_unrelated(
        8,
        96,
        0.1,
        0.9,
        Precedence::Independent,
        &mut rng,
    ))
}

#[test]
fn warm_stationary_decisions_allocate_nothing() {
    let inst = instance();
    let (m, n) = (inst.num_machines(), inst.num_jobs());
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

/// Once a runner has run a batch, running the same trials again allocates
/// one `completion_time` per outcome plus the outcome vector, and nothing
/// per epoch: not for the plan-cache hits of a stationary policy
/// (`greedy-lr`, `best-machine`), and not for the per-epoch decisions of
/// a non-stationary one (`suu-i-obl`, which wakes at every row change).
#[test]
fn warm_batch_runner_allocates_only_its_outcomes() {
    let inst = instance();
    let registry = standard_registry();
    for semantics in [Semantics::Suu, Semantics::SuuStar] {
        let exec = ExecConfig {
            semantics,
            ..ExecConfig::default()
        };
        let trials = Evaluator::new(EvalConfig {
            trials: 64,
            master_seed: 0xA110C,
            exec,
            ..EvalConfig::default()
        })
        .trial_batch(0, 64);
        for name in ["greedy-lr", "best-machine", "suu-i-obl"] {
            let mut policy = registry.build_named(&inst, name).unwrap();
            let mut runner = BatchRunner::new(&inst, &exec);
            let cold = runner.run(&mut *policy, &trials);
            let before = allocations();
            let warm = runner.run(&mut *policy, &trials);
            let made = allocations() - before;
            assert_eq!(warm, cold, "{name}/{semantics:?}");
            assert!(
                made <= trials.len() as u64 + 1,
                "{name}/{semantics:?}: a warm run of {} trials allocated {made} times",
                trials.len()
            );
        }
    }
}
