//! The simulator's steady state allocates nothing: once a long kMeans
//! run is warm, a simulated cycle makes no heap allocation, on Baseline
//! or on Framework+ICM. A counting global allocator sees every
//! allocation the test thread makes; the machines are the benchmark's
//! `kernel-sim` ones (`rse_bench::run_workload`'s configurations, 2,560
//! patterns, seed 1).
//!
//! Host time is too noisy for CI to gate; an allocation count is exact.

use rse::core::{Engine, RseConfig};
use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::mem::{MemConfig, MemorySystem};
use rse::modules::icm::{Icm, IcmConfig};
use rse::pipeline::{CheckPolicy, Pipeline, PipelineConfig, StepEvent};
use rse::workloads::kmeans::{self, KmeansParams};
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

/// Builds the kMeans machine, runs it `WARM_UP_CYCLES`, then returns the
/// allocations this thread made over the next `COUNTED_CYCLES`, and the
/// ICM's cache misses in that window (`None` without the ICM).
fn allocations_at_steady_state(icm: bool) -> (u64, Option<u64>) {
    let params = KmeansParams {
        patterns: 2560,
        dims: 16,
        clusters: 4,
        iters: 1,
        seed: 1,
    };
    let image = assemble(&kmeans::source(&params)).expect("kMeans guest assembles");
    let (mem_config, pipe_config) = if icm {
        let pipe = PipelineConfig {
            check_policy: CheckPolicy::ControlFlow,
            ..PipelineConfig::default()
        };
        (MemConfig::with_framework(), pipe)
    } else {
        (MemConfig::baseline(), PipelineConfig::default())
    };
    let mut cpu = Pipeline::new(pipe_config, MemorySystem::new(mem_config));
    rse::sys::loader::load_process(&mut cpu, &image);
    let mut engine = Engine::new(RseConfig::default());
    if icm {
        let mut module = Icm::new(IcmConfig::default());
        module.install_for_control_flow(&image, &mut cpu.mem_mut().memory);
        engine.install(Box::new(module));
        engine.enable(ModuleId::ICM);
    }
    let misses = |engine: &Engine| {
        engine
            .module_ref::<Icm>(ModuleId::ICM)
            .map(|m| m.stats().cache_misses)
    };
    assert_eq!(cpu.run(&mut engine, WARM_UP_CYCLES), StepEvent::Timeout);
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
