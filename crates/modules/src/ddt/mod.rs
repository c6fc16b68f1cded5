//! The Data Dependency Tracker (DDT) — §4.2 of the paper.
//!
//! Tracks runtime data dependencies among the threads of a multithreaded
//! process at page granularity, and checkpoints shared pages (via the
//! SavePage exception) so that after a malicious thread crashes, the
//! healthy surviving threads can keep running while the faulty thread's
//! memory updates are undone.
//!
//! The module operates **asynchronously** (Figure 2(b)): it receives
//! memory-access instructions from `Fetch_Out`, the computed effective
//! address from `Execute_Out`, and logs ownership transitions and
//! dependencies only when the instruction **commits** — "so as not to
//! keep speculative information in the module".
//!
//! When a thread writes a page whose write-owner is another thread, the
//! Figure 5 state machine demands `SavePage`: the module captures the
//! pre-update page image in its internal buffer and raises an exception;
//! the OS exception handler (in `rse-sys`) stores the checkpoint and
//! suspends the process for the duration of the save.

mod ddm;
mod pst;

pub use ddm::DependencyMatrix;
pub use pst::{transition, PageOwners, PageStatusTable, ThreadId, TransitionActions};

use crate::take_pending;
use rse_core::{ChkDispatch, MauOp, MauRequest, Module, ModuleCtx, Verdict};
use rse_isa::chk::ops;
use rse_isa::layout::{page_base, page_id, PAGE_SIZE};
use rse_isa::{InstClass, ModuleId};
use rse_pipeline::{CoprocException, ExecuteInfo, RobId};
use std::any::Any;

/// Exception code the DDT raises for a SavePage event; `arg` carries the
/// base address of the page to checkpoint.
pub const SAVE_PAGE_EXCEPTION: u32 = 1;

/// DDT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdtConfig {
    /// Maximum thread count N (the DDM is N×N).
    pub max_threads: usize,
    /// Hot-page capacity of the Page Status Table.
    pub pst_capacity: usize,
    /// Model the 1-cycle logging lag of §4.2.1: if two
    /// dependency-creating accesses commit in the same cycle, the second
    /// dependency is lost (counted in `missed_logs`).
    pub model_log_lag: bool,
}

impl Default for DdtConfig {
    fn default() -> DdtConfig {
        DdtConfig {
            max_threads: 64,
            pst_capacity: 4096,
            model_log_lag: false,
        }
    }
}

/// A page checkpoint captured by the DDT's internal buffer, to be drained
/// by the OS exception handler.
#[derive(Debug, Clone)]
pub struct SavedPage {
    /// Page id (address / page size).
    pub page: u32,
    /// The pre-update page contents.
    pub data: Box<[u8; PAGE_SIZE as usize]>,
    /// The thread whose write triggered the save.
    pub writer: ThreadId,
    /// The previous write-owner (the thread whose data is preserved).
    pub prev_owner: ThreadId,
    /// Cycle of the triggering commit.
    pub saved_at: u64,
}

/// DDT counters (the Figure 9 curves derive from these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdtStats {
    /// Loads whose commit was tracked.
    pub loads_tracked: u64,
    /// Stores whose commit was tracked.
    pub stores_tracked: u64,
    /// Dependencies logged into the DDM.
    pub dependencies_logged: u64,
    /// SavePage events raised (the "Num. of Saved Pages" curve).
    pub pages_saved: u64,
    /// Dependencies lost to the 1-cycle logging lag (if modeled).
    pub missed_logs: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingAccess {
    page: u32,
    is_store: bool,
}

/// The Data Dependency Tracker module.
#[derive(Debug)]
pub struct Ddt {
    config: DdtConfig,
    pst: PageStatusTable,
    ddm: DependencyMatrix,
    current_thread: Option<ThreadId>,
    /// Duplicated copy of `current_thread` (a shadow register): every
    /// legitimate thread switch writes both, so the §3.4 self-test can
    /// detect a soft error upsetting the thread-id register — the DDT's
    /// most safety-critical state, since a wrong thread id silently
    /// mis-attributes every subsequent dependency.
    thread_shadow: Option<ThreadId>,
    /// Accesses executed but not yet committed (at most the LSQ's).
    pending_mem: Vec<(RobId, PendingAccess)>,
    /// `DDT_SET_THREAD` CHECKs not yet committed, with their thread ids.
    pending_chk: Vec<(RobId, ThreadId)>,
    saved_pages: Vec<SavedPage>,
    stats: DdtStats,
    last_log_cycle: Option<u64>,
    /// The in-flight retrieval store: the blocking CHECK it answers and
    /// its MAU ticket.
    retrieval_in_flight: Option<(RobId, u64)>,
}

impl Ddt {
    /// Creates a DDT module.
    pub fn new(config: DdtConfig) -> Ddt {
        Ddt {
            config,
            pst: PageStatusTable::new(config.pst_capacity),
            ddm: DependencyMatrix::new(config.max_threads),
            current_thread: None,
            thread_shadow: None,
            pending_mem: Vec::new(),
            pending_chk: Vec::new(),
            saved_pages: Vec::new(),
            stats: DdtStats::default(),
            last_log_cycle: None,
            retrieval_in_flight: None,
        }
    }

    /// Stores `data` to the buffer at the CHECK's `a0` through the MAU;
    /// the CHECK completes when the store lands.
    fn retrieve(&mut self, chk: &ChkDispatch, data: Vec<u8>, ctx: &mut ModuleCtx<'_>) {
        let ticket = ctx.mau.submit(MauRequest {
            module: ModuleId::DDT,
            addr: chk.operands[0],
            op: MauOp::Store { data },
        });
        self.retrieval_in_flight = Some((chk.rob, ticket));
    }

    /// Module counters.
    pub fn stats(&self) -> DdtStats {
        self.stats
    }

    /// The dependency matrix (recovery retrieval).
    pub fn ddm(&self) -> &DependencyMatrix {
        &self.ddm
    }

    /// The page status table (recovery retrieval).
    pub fn pst(&self) -> &PageStatusTable {
        &self.pst
    }

    /// The thread the DDT believes is running.
    pub fn current_thread(&self) -> Option<ThreadId> {
        self.current_thread
    }

    /// Sets the running thread directly (the OS-side equivalent of the
    /// `DDT_SET_THREAD` CHECK, used when switching outside instruction
    /// flow).
    pub fn set_current_thread(&mut self, thread: ThreadId) {
        assert!(
            thread < self.config.max_threads,
            "thread id exceeds DDM capacity"
        );
        self.current_thread = Some(thread);
        self.thread_shadow = Some(thread);
    }

    /// Drains the page checkpoints captured since the last call (the OS
    /// exception handler's retrieval).
    pub fn take_saved_pages(&mut self) -> Vec<SavedPage> {
        std::mem::take(&mut self.saved_pages)
    }

    /// Threads that must be terminated if `faulty` crashes: `faulty` and
    /// all transitive dependents.
    pub fn tainted_by(&self, faulty: ThreadId) -> Vec<ThreadId> {
        self.ddm.tainted_by(faulty)
    }

    /// Clears all per-thread state for a recycled thread id.
    pub fn forget_thread(&mut self, thread: ThreadId) {
        self.ddm.clear_thread(thread);
    }

    /// Drops PST entries owned by any of the given (terminated) threads,
    /// so recycled pages start from a clean ownership state.
    pub fn purge_victim_pages(&mut self, victims: &[ThreadId]) {
        self.pst.retain(|_, owners| {
            !owners.write_owner.is_some_and(|w| victims.contains(&w))
                && !owners.read_owner.is_some_and(|r| victims.contains(&r))
        });
    }

    /// Applies a tracked write by the current thread to `page` directly
    /// (bypassing the pipeline) — for recovery tests and host-side
    /// scenario construction. Returns whether a SavePage would fire.
    pub fn debug_track_write(&mut self, page: u32) -> bool {
        let thread = self.current_thread.expect("set_current_thread first");
        let actions = self.pst.with_entry(page, |o| transition(o, thread, true));
        actions.save_page
    }

    /// Applies a tracked read by the current thread to `page` directly.
    /// Returns the dependency logged, if any.
    pub fn debug_track_read(&mut self, page: u32) -> Option<(ThreadId, ThreadId)> {
        let thread = self.current_thread.expect("set_current_thread first");
        let actions = self.pst.with_entry(page, |o| transition(o, thread, false));
        if let Some((p, c)) = actions.log_dependency {
            self.ddm.log(p, c);
        }
        actions.log_dependency
    }
}

impl Module for Ddt {
    fn id(&self) -> ModuleId {
        ModuleId::DDT
    }

    fn name(&self) -> &'static str {
        "data-dependency-tracker"
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        match chk.spec.op {
            ops::SELFTEST => {
                let verdict = self.self_test();
                ctx.complete_check(chk.rob, verdict);
            }
            ops::DDT_SET_THREAD => {
                // Becomes effective at commit (asynchronous logging).
                self.pending_chk.push((chk.rob, chk.spec.param as ThreadId));
            }
            ops::DDT_QUERY_SIZE => {
                // Writes [pst entries, ddm bytes] to the buffer at a0.
                let pst_count = self.pst.len() as u32;
                let ddm_bytes = self.ddm.to_bytes().len() as u32;
                let mut data = Vec::with_capacity(8);
                data.extend_from_slice(&pst_count.to_le_bytes());
                data.extend_from_slice(&ddm_bytes.to_le_bytes());
                self.retrieve(chk, data, ctx);
            }
            ops::DDT_RETRIEVE => {
                // Streams the DDM into the buffer at a0.
                let data = self.ddm.to_bytes();
                self.retrieve(chk, data, ctx);
            }
            _ => {
                if chk.spec.blocking {
                    ctx.complete_check(chk.rob, Verdict::Fail);
                }
            }
        }
    }

    fn on_execute(&mut self, info: &ExecuteInfo, ctx: &mut ModuleCtx<'_>) {
        // The DDT learns the instruction type from Fetch_Out and the
        // effective address from Execute_Out (Figure 4). The access is
        // attributed to a thread at commit time, when the preceding
        // DDT_SET_THREAD (if any) has architecturally taken effect.
        let Some(addr) = info.eff_addr else { return };
        let Some(entry) = ctx.ioq.fetched(info.rob) else {
            return;
        };
        let is_store = match entry.inst.class() {
            InstClass::Load => false,
            InstClass::Store => true,
            _ => return,
        };
        self.pending_mem.push((
            info.rob,
            PendingAccess {
                page: page_id(addr),
                is_store,
            },
        ));
    }

    fn on_commit(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        if let Some(tid) = take_pending(&mut self.pending_chk, rob) {
            if tid < self.config.max_threads {
                self.current_thread = Some(tid);
                self.thread_shadow = Some(tid);
            }
        }
        let Some(acc) = take_pending(&mut self.pending_mem, rob) else {
            return;
        };
        let Some(thread) = self.current_thread else {
            return;
        };
        if acc.is_store {
            self.stats.stores_tracked += 1;
        } else {
            self.stats.loads_tracked += 1;
        }
        let prev = self.pst.peek(acc.page);
        let actions = self
            .pst
            .with_entry(acc.page, |owners| transition(owners, thread, acc.is_store));
        if let Some((producer, consumer)) = actions.log_dependency {
            let lag_loss = self.config.model_log_lag && self.last_log_cycle == Some(ctx.now);
            if lag_loss {
                // §4.2.1: the module lags the pipeline by one cycle; a
                // dependency-creating access in the same cycle is lost.
                self.stats.missed_logs += 1;
            } else {
                if self.ddm.log(producer, consumer) {
                    self.stats.dependencies_logged += 1;
                }
                self.last_log_cycle = Some(ctx.now);
            }
        }
        if actions.save_page {
            // Capture the pre-update image now — the pipeline applies the
            // store's memory write after the Commit_Out indication.
            let base = page_base(acc.page);
            let data = ctx.mem.memory.snapshot_page(base);
            let prev_owner = prev.and_then(|o| o.write_owner).unwrap_or(thread);
            self.saved_pages.push(SavedPage {
                page: acc.page,
                data,
                writer: thread,
                prev_owner,
                saved_at: ctx.now,
            });
            self.stats.pages_saved += 1;
            ctx.raise_exception(CoprocException {
                module: ModuleId::DDT.number(),
                code: SAVE_PAGE_EXCEPTION,
                arg: base,
            });
        }
    }

    fn on_squash(&mut self, rob: RobId, _ctx: &mut ModuleCtx<'_>) {
        take_pending(&mut self.pending_mem, rob);
        take_pending(&mut self.pending_chk, rob);
        if self.retrieval_in_flight.is_some_and(|(r, _)| r == rob) {
            self.retrieval_in_flight = None;
        }
    }

    fn tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        if let Some(comp) = ctx.mau.take_completion(ModuleId::DDT) {
            if let Some((rob, ticket)) = self.retrieval_in_flight {
                if ticket == comp.tag {
                    self.retrieval_in_flight = None;
                    ctx.complete_check(rob, Verdict::Pass);
                }
            }
        }
    }

    fn self_test(&mut self) -> Verdict {
        // Compare the thread-id register against its shadow copy and
        // check it is within DDM range: a flipped thread id would
        // silently mis-attribute every dependency, so it is the state
        // the probe must be able to see.
        let in_range = self
            .current_thread
            .is_none_or(|t| t < self.config.max_threads);
        if in_range && self.current_thread == self.thread_shadow {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    fn corrupt_state(&mut self, seed: u64) -> bool {
        // Upset the thread-id register (but not its shadow): pick a
        // different in-range id so the module keeps running — and keeps
        // mis-attributing — until a probe catches the mismatch.
        let n = self.config.max_threads;
        if n < 2 {
            return false;
        }
        let cur = self.current_thread.unwrap_or(0);
        let wrong = (cur + 1 + (seed as usize % (n - 1))) % n;
        self.current_thread = Some(wrong);
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_core::{Engine, HealthState, RseConfig};
    use rse_isa::asm::assemble;
    use rse_isa::layout::DATA_BASE;
    use rse_isa::{ChkSpec, Inst};
    use rse_mem::{MemConfig, MemorySystem};
    use rse_pipeline::{
        CoProcessor, CommitGate, DispatchInfo, Pipeline, PipelineConfig, StepEvent,
    };

    #[test]
    fn selftest_passes_until_thread_register_is_corrupted() {
        let mut ddt = Ddt::new(DdtConfig::default());
        assert_eq!(Module::self_test(&mut ddt), Verdict::Pass);
        ddt.set_current_thread(3);
        assert_eq!(Module::self_test(&mut ddt), Verdict::Pass);
        assert!(Module::corrupt_state(&mut ddt, 5));
        assert_ne!(ddt.current_thread(), Some(3), "register upset");
        assert_eq!(Module::self_test(&mut ddt), Verdict::Fail);
        // A legitimate thread switch rewrites both copies (repair path).
        ddt.set_current_thread(4);
        assert_eq!(Module::self_test(&mut ddt), Verdict::Pass);
    }

    fn run_with_ddt(src: &str) -> (Pipeline, Engine, Vec<rse_pipeline::CoprocException>) {
        run_with(Ddt::new(DdtConfig::default()), src)
    }

    fn run_with(ddt: Ddt, src: &str) -> (Pipeline, Engine, Vec<rse_pipeline::CoprocException>) {
        let image = assemble(src).expect("assembles");
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::with_framework()),
        );
        cpu.load_image(&image);
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(ddt));
        engine.enable(ModuleId::DDT);
        let mut exceptions = Vec::new();
        loop {
            match cpu.run(&mut engine, 5_000_000) {
                StepEvent::Halted => break,
                StepEvent::Exception(e) => {
                    // Stand-in for the OS handler: acknowledge and go on.
                    exceptions.push(e);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        (cpu, engine, exceptions)
    }

    /// Two "threads" simulated by switching the DDT thread id via CHECK
    /// instructions around accesses to a shared buffer.
    const SHARING_SRC: &str = r#"
        main:   la   r8, shared
                chk  ddt, nblk, 2, 1   # DDT_SET_THREAD(1)
                li   r9, 0xAA
                sw   r9, 0(r8)          # t1 writes the page
                chk  ddt, nblk, 2, 2   # DDT_SET_THREAD(2)
                lw   r10, 0(r8)         # t2 reads it  -> log(1 -> 2)
                sw   r10, 4(r8)         # t2 writes it -> SavePage
                halt
                .data
                .align 4
        shared: .space 64
    "#;

    #[test]
    fn dependency_logged_and_page_saved() {
        let (_cpu, mut engine, exceptions) = run_with_ddt(SHARING_SRC);
        let ddt: &mut Ddt = engine.module_mut(ModuleId::DDT).unwrap();
        assert!(ddt.ddm().depends(1, 2), "t2 consumed data produced by t1");
        assert!(!ddt.ddm().depends(2, 1));
        assert_eq!(ddt.stats().dependencies_logged, 1);
        assert_eq!(ddt.stats().pages_saved, 1);
        assert_eq!(exceptions.len(), 1);
        assert_eq!(exceptions[0].code, SAVE_PAGE_EXCEPTION);
        let saved = ddt.take_saved_pages();
        assert_eq!(saved.len(), 1);
        assert_eq!(saved[0].writer, 2);
        assert_eq!(saved[0].prev_owner, 1);
    }

    #[test]
    fn saved_page_holds_pre_update_image() {
        let (cpu, mut engine, _) = run_with_ddt(SHARING_SRC);
        let image_base = {
            let ddt: &Ddt = engine.module_ref(ModuleId::DDT).unwrap();
            let pst_pages: Vec<u32> = ddt.pst().iter().map(|(p, _)| p).collect();
            assert_eq!(pst_pages.len(), 1);
            page_base(pst_pages[0])
        };
        let shared_off = {
            // `shared` is the start of .data.
            rse_isa::layout::DATA_BASE - image_base
        };
        let ddt: &mut Ddt = engine.module_mut(ModuleId::DDT).unwrap();
        let saved = ddt.take_saved_pages();
        // In the snapshot, word 0 holds t1's 0xAA but word 1 is still 0
        // (captured before t2's store committed).
        let w0 = u32::from_le_bytes(
            saved[0].data[shared_off as usize..shared_off as usize + 4]
                .try_into()
                .unwrap(),
        );
        let w1 = u32::from_le_bytes(
            saved[0].data[shared_off as usize + 4..shared_off as usize + 8]
                .try_into()
                .unwrap(),
        );
        assert_eq!(w0, 0xAA);
        assert_eq!(w1, 0);
        // Memory itself has both stores.
        assert_eq!(
            cpu.mem().memory.read_u32(rse_isa::layout::DATA_BASE + 4),
            0xAA
        );
    }

    #[test]
    fn private_access_never_saves_or_logs() {
        let src = r#"
        main:   la   r8, buf
                chk  ddt, nblk, 2, 1
                li   r9, 5
                sw   r9, 0(r8)
                lw   r10, 0(r8)
                sw   r10, 4(r8)
                halt
                .data
        buf:    .space 32
        "#;
        let (_cpu, engine, exceptions) = run_with_ddt(src);
        let ddt: &Ddt = engine.module_ref(ModuleId::DDT).unwrap();
        assert_eq!(ddt.stats().dependencies_logged, 0);
        assert_eq!(ddt.stats().pages_saved, 0);
        assert!(exceptions.is_empty());
    }

    #[test]
    fn no_tracking_until_thread_set() {
        let src = r#"
        main:   la   r8, buf
                li   r9, 5
                sw   r9, 0(r8)
                lw   r10, 0(r8)
                halt
                .data
        buf:    .space 32
        "#;
        let (_cpu, engine, _) = run_with_ddt(src);
        let ddt: &Ddt = engine.module_ref(ModuleId::DDT).unwrap();
        assert_eq!(ddt.stats().loads_tracked + ddt.stats().stores_tracked, 0);
        assert!(ddt.pst().is_empty());
    }

    #[test]
    fn taint_matches_figure8_through_module() {
        let mut ddt = Ddt::new(DdtConfig::default());
        // Build Figure 8 directly on the module's structures.
        ddt.set_current_thread(0);
        // t2 -> t1, t1 -> t0, t0 -> t1 (via ddm access for unit scope).
        ddt.ddm.log(2, 1);
        ddt.ddm.log(1, 0);
        ddt.ddm.log(0, 1);
        assert_eq!(ddt.tainted_by(2), vec![0, 1, 2]);
        assert_eq!(ddt.tainted_by(4), vec![4]);
        ddt.forget_thread(1);
        assert_eq!(ddt.tainted_by(2), vec![2]);
    }

    #[test]
    fn stale_store_of_a_squashed_retrieval_does_not_answer_its_successor() {
        let mut mem = MemorySystem::new(MemConfig::with_framework());
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(Ddt::new(DdtConfig::default())));
        engine.enable(ModuleId::DDT);
        let retrieve = |buf| DispatchInfo {
            rob: RobId(0),
            pc: rse_isa::layout::TEXT_BASE,
            word: 0,
            inst: Inst::Chk(ChkSpec::new(ModuleId::DDT, true, ops::DDT_RETRIEVE, 0)),
            operands: [buf, 0],
            wrong_path: false,
            injected: false,
        };
        let (first, second) = (DATA_BASE, DATA_BASE + 0x1000);
        engine.on_dispatch(0, &retrieve(first), &mut mem);
        for now in 1..=2 {
            engine.tick(now, &mut mem);
        }
        assert_eq!(engine.mau().pending(), 1, "the first store is in flight");
        // The CHECK is squashed before its store lands, and its id goes
        // to a retrieval into another buffer.
        engine.on_squash(2, RobId(0), &mut mem);
        engine.on_dispatch(2, &retrieve(second), &mut mem);
        let mut gate = CommitGate::Stall;
        for now in 3..2_000 {
            engine.tick(now, &mut mem);
            gate = engine.commit_gate(now, RobId(0));
            if gate != CommitGate::Stall {
                break;
            }
        }
        // It completes only once its own store has landed: the serialized
        // DDM starts with N.
        assert_eq!(gate, CommitGate::Pass);
        assert_eq!(
            mem.memory.read_u32(second),
            DdtConfig::default().max_threads as u32
        );
    }

    #[test]
    fn retrieval_check_stores_ddm_to_memory() {
        let src = r#"
        main:   la   r8, shared
                chk  ddt, nblk, 2, 1
                li   r9, 1
                sw   r9, 0(r8)
                chk  ddt, nblk, 2, 2
                lw   r10, 0(r8)
                la   r4, outbuf          # a0 = retrieval buffer
                chk  ddt, blk, 4, 0      # DDT_RETRIEVE
                halt
                .data
                .align 4
        shared: .space 16
        outbuf: .space 1024
        "#;
        let (cpu, _engine, _) = run_with_ddt(src);
        let image = assemble(src).unwrap();
        let outbuf = image.symbol("outbuf").unwrap();
        // First word of the serialized DDM is N (max_threads).
        assert_eq!(
            cpu.mem().memory.read_u32(outbuf),
            DdtConfig::default().max_threads as u32
        );
    }

    #[test]
    fn back_to_back_blocking_retrievals_both_complete() {
        // The first retrieval drains dispatch, so the second cannot take
        // the module's one retrieval slot while the first is in flight,
        // and the loads after them read both buffers once written.
        let src = r#"
        main:   la   r4, buf1
                chk  ddt, blk, 4, 0      # DDT_RETRIEVE
                la   r4, buf2
                chk  ddt, blk, 4, 0      # DDT_RETRIEVE
                la   r8, buf1
                lw   r10, 0(r8)
                la   r8, buf2
                lw   r11, 0(r8)
                halt
                .data
                .align 4
        buf1:   .space 1024
        buf2:   .space 1024
        "#;
        let (cpu, engine, _) = run_with_ddt(src);
        let n = DdtConfig::default().max_threads as u32;
        assert_eq!((cpu.regs()[10], cpu.regs()[11]), (n, n));
        assert_eq!(engine.module_health(ModuleId::DDT), HealthState::Healthy);
        assert_eq!(engine.stats().chk_nop_committed, 0);
    }

    #[test]
    fn disable_reaches_the_ddt_after_its_older_stores() {
        // The DISABLE switches the DDT off when it commits, after both
        // older stores have committed through the module.
        let src = r#"
        main:   la   r8, buf
                li   r9, 5
                sw   r9, 0(r8)
                sw   r9, 4(r8)
                chk  ddt, nblk, 1, 0     # DISABLE
                halt
                .data
        buf:    .space 32
        "#;
        let mut ddt = Ddt::new(DdtConfig::default());
        ddt.set_current_thread(0);
        let (_cpu, engine, _) = run_with(ddt, src);
        let ddt: &Ddt = engine.module_ref(ModuleId::DDT).unwrap();
        assert_eq!(ddt.stats().stores_tracked, 2);
        assert!(!engine.is_enabled(ModuleId::DDT));
    }
}
