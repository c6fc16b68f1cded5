//! The simulator's steady state allocates nothing: once a long kMeans
//! run is warm, a simulated cycle makes no heap allocation, on Baseline
//! or on Framework+ICM. A counting global allocator sees every
//! allocation the test thread makes; the machines are the benchmark's
//! `kernel-sim` ones (`rse_bench::run_workload`'s configurations, 2,560
//! patterns, seed 1).
//!
//! The same window pins how often the pipeline calls each engine tap,
//! and how many instructions it commits.
//!
//! Host time is too noisy for CI to gate; allocation and call counts are
//! exact.

use rse::core::Engine;
use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::mem::MemorySystem;
use rse::modules::icm::Icm;
use rse::pipeline::{
    CoProcessor, CommitGate, CoprocException, DispatchInfo, ExecuteInfo, Pipeline, RobId, StepEvent,
};
use rse::sys::Machine;
use rse::workloads::kmeans::{self, KmeansParams};
use rse_bench::MachineConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of each thread.
struct Counting;

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System` upholds the `GlobalAlloc` contract for `Counting`; `count`
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller meets `realloc`'s other requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP_CYCLES: u64 = 100_000;
const COUNTED_CYCLES: u64 = 200_000;

/// The kMeans machine, Baseline or Framework+ICM, run for
/// `WARM_UP_CYCLES`.
fn warm_machine(icm: bool) -> (Pipeline, Engine) {
    let params = KmeansParams {
        patterns: 2560,
        dims: 16,
        clusters: 4,
        iters: 1,
        seed: 1,
    };
    let image = assemble(&kmeans::source(&params)).expect("kMeans guest assembles");
    let config = if icm {
        MachineConfig::FrameworkIcm
    } else {
        MachineConfig::Baseline
    };
    let Machine {
        mut cpu,
        mut engine,
        ..
    } = Machine::build(&image, config.spec());
    assert_eq!(cpu.run(&mut engine, WARM_UP_CYCLES), StepEvent::Timeout);
    (cpu, engine)
}

/// Returns the allocations this thread made over `COUNTED_CYCLES` of a
/// warm machine, and the ICM's cache misses in that window (`None`
/// without the ICM).
fn allocations_at_steady_state(icm: bool) -> (u64, Option<u64>) {
    let (mut cpu, mut engine) = warm_machine(icm);
    let misses = |engine: &Engine| {
        engine
            .module_ref::<Icm>(ModuleId::ICM)
            .map(|m| m.stats().cache_misses)
    };
    let misses_before = misses(&engine);
    let before = ALLOCATIONS.with(Cell::get);
    assert_eq!(cpu.run(&mut engine, COUNTED_CYCLES), StepEvent::Timeout);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let window_misses = misses(&engine).zip(misses_before).map(|(a, b)| a - b);
    (allocations, window_misses)
}

#[test]
fn baseline_cycles_do_not_allocate() {
    assert_eq!(allocations_at_steady_state(false), (0, None));
}

#[test]
fn framework_icm_cycles_do_not_allocate() {
    // An ICM cache miss allocates the MAU's completion buffer, so the
    // window must also be free of misses for the count to mean anything.
    assert_eq!(allocations_at_steady_state(true), (0, Some(0)));
}

/// Calls to each tap, and the instructions committed, in a window.
#[derive(Debug, Default, PartialEq, Eq)]
struct TapCalls {
    dispatch: u64,
    execute: u64,
    commit: u64,
    squash: u64,
    commit_gate: u64,
    tick: u64,
    take_exception: u64,
    committed: u64,
}

/// The engine behind a wrapper that counts every tap call.
struct Counted<'a> {
    engine: &'a mut Engine,
    calls: TapCalls,
}

impl CoProcessor for Counted<'_> {
    fn on_dispatch(&mut self, now: u64, info: &DispatchInfo, mem: &mut MemorySystem) {
        self.calls.dispatch += 1;
        self.engine.on_dispatch(now, info, mem);
    }
    fn on_execute(&mut self, now: u64, info: &ExecuteInfo, mem: &mut MemorySystem) {
        self.calls.execute += 1;
        self.engine.on_execute(now, info, mem);
    }
    fn on_commit(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem) {
        self.calls.commit += 1;
        self.engine.on_commit(now, rob, mem);
    }
    fn on_squash(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem) {
        self.calls.squash += 1;
        self.engine.on_squash(now, rob, mem);
    }
    fn commit_gate(&mut self, now: u64, rob: RobId) -> CommitGate {
        self.calls.commit_gate += 1;
        self.engine.commit_gate(now, rob)
    }
    fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        self.calls.tick += 1;
        self.engine.tick(now, mem);
    }
    fn take_exception(&mut self) -> Option<CoprocException> {
        self.calls.take_exception += 1;
        self.engine.take_exception()
    }
}

/// The tap calls over `COUNTED_CYCLES` of a warm machine.
fn tap_calls_at_steady_state(icm: bool) -> TapCalls {
    let (mut cpu, mut engine) = warm_machine(icm);
    let committed_before = cpu.stats().committed;
    let mut counted = Counted {
        engine: &mut engine,
        calls: TapCalls::default(),
    };
    assert_eq!(cpu.run(&mut counted, COUNTED_CYCLES), StepEvent::Timeout);
    TapCalls {
        committed: cpu.stats().committed - committed_before,
        ..counted.calls
    }
}

/// The host cost of a simulated cycle follows these counts, so a change
/// that moves one says why, as it would for a golden.
#[test]
fn tap_calls_per_window_are_pinned() {
    let baseline = TapCalls {
        dispatch: 471_368,
        execute: 326_116,
        commit: 326_117,
        squash: 145_246,
        commit_gate: 326_117,
        tick: 200_000,
        take_exception: 200_000,
        committed: 326_117,
    };
    assert_eq!(tap_calls_at_steady_state(false), baseline);
    let framework_icm = TapCalls {
        dispatch: 466_242,
        execute: 337_240,
        commit: 337_235,
        squash: 129_003,
        commit_gate: 349_316,
        tick: 200_000,
        take_exception: 200_000,
        committed: 337_235,
    };
    assert_eq!(tap_calls_at_steady_state(true), framework_icm);
}
