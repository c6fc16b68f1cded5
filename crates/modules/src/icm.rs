//! The Instruction Checker Module (ICM) — §4.3 of the paper.
//!
//! The ICM "preemptively checks for errors in an instruction just at the
//! time the instruction is dispatched, by comparing the binary of the
//! instruction in the pipeline with a redundant copy of the instruction
//! fetched from memory", covering multi-bit errors between the fetch from
//! memory and dispatch — including residence in the on-chip caches.
//!
//! * The program is statically parsed and all checked instructions are
//!   stored **contiguously** in a separate chunk of memory
//!   (the *CheckerMemory*), which gives batch refills spatial locality.
//! * A dedicated 256-entry cache (the `Icm_Cache`) with LRU-stack
//!   replacement and an 8-word refill batch reduces CheckerMemory
//!   traffic (the §5.2 configuration: "ICM_Cache size of 256 and a
//!   replacement size of 8 least-recently-used entries").
//! * Internally the module is a 3-stage pipeline: `ICM_IDLE` scans
//!   `Fetch_Out` for CHECK instructions and posts a memory request,
//!   `ICM_MEMREQ` waits for the redundant copy, `ICM_COMP` compares and
//!   writes the IOQ (Figure 6 timeline).

use rse_core::{ChkDispatch, MauOp, MauRequest, Module, ModuleCtx, Verdict};
use rse_isa::{Image, ModuleId};
use rse_mem::SparseMemory;
use rse_pipeline::RobId;
use std::any::Any;
use std::collections::HashMap;

/// ICM configuration (§5.2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmConfig {
    /// Entries in the `Icm_Cache` (checked-instruction words).
    pub cache_entries: usize,
    /// Words fetched from CheckerMemory per miss (the "replacement
    /// size"): this many LRU entries are replaced at once.
    pub refill_batch: usize,
    /// Base address of the CheckerMemory region.
    pub checker_base: u32,
    /// Cycles for the compare stage (`ICM_COMP`).
    pub compare_latency: u64,
}

impl Default for IcmConfig {
    fn default() -> IcmConfig {
        IcmConfig {
            cache_entries: 256,
            refill_batch: 8,
            checker_base: 0x3000_0000,
            compare_latency: 1,
        }
    }
}

/// The CheckerMemory layout produced by the static parse: which program
/// counters are checked, and where their redundant copies live.
#[derive(Debug, Clone, Default)]
pub struct CheckerLayout {
    /// `pc → index` into the contiguous CheckerMemory.
    index_of_pc: HashMap<u32, u32>,
    /// `index → pc` (for batch refills).
    pc_of_index: Vec<u32>,
    base: u32,
}

impl CheckerLayout {
    /// CheckerMemory address of the redundant copy for `pc`.
    pub fn addr_of(&self, pc: u32) -> Option<u32> {
        self.index_of_pc.get(&pc).map(|i| self.base + i * 4)
    }

    /// Number of checked instructions.
    pub fn len(&self) -> usize {
        self.pc_of_index.len()
    }

    /// Whether the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.pc_of_index.is_empty()
    }
}

/// A small LRU stack cache: `pc → redundant word`.
#[derive(Debug)]
struct LruStack {
    capacity: usize,
    /// Most-recently-used first.
    entries: Vec<(u32, u32)>,
}

impl LruStack {
    fn new(capacity: usize) -> LruStack {
        LruStack {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    fn lookup(&mut self, pc: u32) -> Option<u32> {
        let pos = self.entries.iter().position(|(p, _)| *p == pc)?;
        let e = self.entries.remove(pos);
        self.entries.insert(0, e);
        Some(e.1)
    }

    fn insert(&mut self, pc: u32, word: u32) {
        if let Some(pos) = self.entries.iter().position(|(p, _)| *p == pc) {
            self.entries.remove(pos);
        }
        while self.entries.len() >= self.capacity {
            self.entries.pop(); // evict LRU (back of the stack)
        }
        self.entries.insert(0, (pc, word));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[derive(Debug)]
struct PendingCheck {
    chk_rob: RobId,
    /// Checked instruction's identity (the instruction after the CHECK).
    inst_rob: RobId,
    pc: u32,
    pipeline_word: u32,
    stage: Stage,
}

#[derive(Debug, PartialEq, Eq)]
enum Stage {
    /// Waiting for the checked instruction to appear in `Fetch_Out`.
    Idle,
    /// Redundant copy requested from the MAU.
    MemReq,
    /// Comparison scheduled; result due at the stored cycle.
    Comp { done_at: u64, error: bool },
}

/// ICM performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcmStats {
    /// CHECK instructions processed to completion.
    pub checks_completed: u64,
    /// Mismatches (errors) detected.
    pub mismatches: u64,
    /// `Icm_Cache` hits.
    pub cache_hits: u64,
    /// `Icm_Cache` misses (each triggers a batch refill via the MAU).
    pub cache_misses: u64,
}

/// The Instruction Checker Module.
#[derive(Debug)]
pub struct Icm {
    config: IcmConfig,
    layout: CheckerLayout,
    cache: LruStack,
    pending: Vec<PendingCheck>,
    stats: IcmStats,
    /// Integrity seal over the CheckerMemory layout, written whenever the
    /// layout legitimately changes. The §3.4 self-test recomputes it, so
    /// a soft error flipping a layout bit makes the quarantine probe
    /// fail.
    seal: u64,
}

impl Icm {
    /// Creates an ICM with an empty CheckerMemory layout. Use
    /// [`Icm::install_checker_memory`] (or the control-flow convenience
    /// wrapper) after loading the program.
    pub fn new(config: IcmConfig) -> Icm {
        let mut icm = Icm {
            config,
            layout: CheckerLayout::default(),
            cache: LruStack::new(config.cache_entries),
            pending: Vec::new(),
            stats: IcmStats::default(),
            seal: 0,
        };
        icm.seal = icm.layout_seal();
        icm
    }

    /// The integrity checksum over the static-parse layout.
    fn layout_seal(&self) -> u64 {
        let mut bytes = Vec::with_capacity(4 + self.layout.pc_of_index.len() * 4);
        bytes.extend_from_slice(&self.layout.base.to_le_bytes());
        for pc in &self.layout.pc_of_index {
            bytes.extend_from_slice(&pc.to_le_bytes());
        }
        rse_support::rng::fnv1a64(&bytes)
    }

    /// Statically parses `image` and stores a redundant copy of every
    /// instruction selected by `checked` contiguously in CheckerMemory
    /// (written into `mem` at the configured base). This is the paper's
    /// load-time preparation step.
    pub fn install_checker_memory(
        &mut self,
        image: &Image,
        mem: &mut SparseMemory,
        mut checked: impl FnMut(&rse_isa::Inst) -> bool,
    ) {
        let mut layout = CheckerLayout {
            base: self.config.checker_base,
            ..Default::default()
        };
        for (i, &word) in image.text.iter().enumerate() {
            let pc = image.text_base + 4 * i as u32;
            let Ok(inst) = rse_isa::decode(word) else {
                continue;
            };
            if checked(&inst) {
                let idx = layout.pc_of_index.len() as u32;
                layout.index_of_pc.insert(pc, idx);
                layout.pc_of_index.push(pc);
                mem.write_u32(self.config.checker_base + idx * 4, word);
            }
        }
        self.layout = layout;
        self.seal = self.layout_seal();
    }

    /// Installs redundant copies for all control-flow instructions — the
    /// §5.2 evaluation configuration ("the benchmark is instrumented to
    /// check all control-flow instructions").
    pub fn install_for_control_flow(&mut self, image: &Image, mem: &mut SparseMemory) {
        self.install_checker_memory(image, mem, |inst| inst.is_control_flow());
    }

    /// The static-parse layout (inspection).
    pub fn layout(&self) -> &CheckerLayout {
        &self.layout
    }

    /// Module counters.
    pub fn stats(&self) -> IcmStats {
        self.stats
    }

    /// Current `Icm_Cache` occupancy.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Handles arrival of the redundant copy for a pending check.
    fn redundant_copy_arrived(&mut self, now: u64, idx: usize, word: u32) {
        let latency = self.config.compare_latency;
        let p = &mut self.pending[idx];
        let error = word != p.pipeline_word;
        p.stage = Stage::Comp {
            done_at: now + latency,
            error,
        };
    }
}

impl Module for Icm {
    fn id(&self) -> ModuleId {
        ModuleId::ICM
    }

    fn name(&self) -> &'static str {
        "instruction-checker"
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        if chk.spec.op == rse_isa::chk::ops::SELFTEST {
            let verdict = self.self_test();
            ctx.complete_check(chk.rob, verdict);
            return;
        }
        if chk.spec.op != rse_isa::chk::ops::ICM_CHECK_NEXT {
            return;
        }
        // The checked instruction is the one following the CHECK in the
        // dispatched stream: the next sequence number.
        self.pending.push(PendingCheck {
            chk_rob: chk.rob,
            inst_rob: RobId(chk.rob.0 + 1),
            pc: 0,
            pipeline_word: 0,
            stage: Stage::Idle,
        });
    }

    fn on_squash(&mut self, rob: RobId, _ctx: &mut ModuleCtx<'_>) {
        self.pending
            .retain(|p| p.chk_rob != rob && p.inst_rob != rob);
    }

    fn tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        // ICM_IDLE: scan Fetch_Out for checked instructions, oldest
        // first. The module is a 3-stage pipeline with a single MEMREQ
        // slot (one outstanding CheckerMemory request): a check that
        // misses the Icm_Cache while a refill is in flight waits in IDLE
        // and re-probes once the batch lands — that is what makes the
        // 8-word batch refill effective.
        let memreq_busy = || self.pending.iter().any(|p| p.stage == Stage::MemReq);
        let mut busy = memreq_busy();
        for i in 0..self.pending.len() {
            if self.pending[i].stage != Stage::Idle {
                continue;
            }
            let inst_rob = self.pending[i].inst_rob;
            let Some(entry) = ctx.queues.fetch_out.get(inst_rob) else {
                continue;
            };
            let (pc, word) = (entry.pc, entry.word);
            self.pending[i].pc = pc;
            self.pending[i].pipeline_word = word;
            if let Some(redundant) = self.cache.lookup(pc) {
                self.stats.cache_hits += 1;
                self.redundant_copy_arrived(now, i, redundant);
            } else if !busy {
                self.stats.cache_misses += 1;
                let addr = self.layout.addr_of(pc).unwrap_or(pc);
                // Batch refill: fetch `refill_batch` consecutive words.
                let bytes = (self.config.refill_batch as u32) * 4;
                ctx.mau.submit(MauRequest {
                    module: ModuleId::ICM,
                    addr,
                    op: MauOp::Load { bytes },
                    tag: self.pending[i].chk_rob.0,
                });
                self.pending[i].stage = Stage::MemReq;
                busy = true;
            } else {
                // MEMREQ occupied: stay in IDLE and re-probe next cycle.
                break;
            }
        }
        // ICM_MEMREQ: collect MAU completions.
        while let Some(comp) = ctx.mau.take_completion(ModuleId::ICM) {
            let Some(idx) = self.pending.iter().position(|p| p.chk_rob.0 == comp.tag) else {
                continue; // squashed while in flight
            };
            // Install the batch into the cache. Words map back to PCs via
            // the contiguous CheckerMemory layout; out-of-layout fallback
            // addresses map one-to-one to the checked PC.
            let my_pc = self.pending[idx].pc;
            let mut my_word = None;
            for (k, chunk) in comp.data.chunks_exact(4).enumerate() {
                let word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
                let word_addr = comp.addr + 4 * k as u32;
                let pc = if word_addr >= self.layout.base {
                    let index = (word_addr - self.layout.base) / 4;
                    match self.layout.pc_of_index.get(index as usize) {
                        Some(pc) => *pc,
                        None => continue,
                    }
                } else {
                    word_addr // fallback: redundant copy is program text
                };
                self.cache.insert(pc, word);
                if pc == my_pc {
                    my_word = Some(word);
                }
            }
            let word = my_word.unwrap_or_else(|| {
                // The batch did not cover our word (can only happen for
                // fallback addresses near region ends); treat as match to
                // stay fail-safe rather than flush forever.
                self.pending[idx].pipeline_word
            });
            self.redundant_copy_arrived(now, idx, word);
        }
        // ICM_COMP: deliver verdicts whose compare latency elapsed, from
        // the last pending slot to the first.
        for i in (0..self.pending.len()).rev() {
            let Stage::Comp { done_at, error } = self.pending[i].stage else {
                continue;
            };
            if done_at > now {
                continue;
            }
            self.stats.checks_completed += 1;
            if error {
                self.stats.mismatches += 1;
            }
            let rob = self.pending.remove(i).chk_rob;
            ctx.complete_check(rob, if error { Verdict::Fail } else { Verdict::Pass });
        }
    }

    fn self_test(&mut self) -> Verdict {
        // Recompute the layout seal and cross-check the two layout maps:
        // a corrupted CheckerMemory index is exactly the kind of internal
        // error the §3.4 probe must surface.
        let consistent = self
            .layout
            .pc_of_index
            .iter()
            .enumerate()
            .all(|(i, pc)| self.layout.index_of_pc.get(pc) == Some(&(i as u32)));
        if consistent && self.layout_seal() == self.seal {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    fn corrupt_state(&mut self, seed: u64) -> bool {
        // Flip one bit in a deterministically-picked layout entry (the
        // redundant-copy index RAM) without updating the seal.
        if !self.layout.pc_of_index.is_empty() {
            let idx = (seed as usize) % self.layout.pc_of_index.len();
            let bit = ((seed >> 8) % 32) as u32;
            self.layout.pc_of_index[idx] ^= 1 << bit;
            return true;
        }
        // Empty layout: corrupt the seal itself (a register upset).
        self.seal ^= 1 << (seed % 64);
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
    use rse_core::{Engine, RseConfig};
    use rse_isa::asm::assemble;
    use rse_mem::{MemConfig, MemorySystem};
    use rse_pipeline::{CheckPolicy, FetchFault, Pipeline, PipelineConfig, StepEvent};

    fn icm_pipeline(src: &str) -> (Pipeline, Engine) {
        let image = assemble(src).expect("assembles");
        let mut cpu = Pipeline::new(
            PipelineConfig {
                check_policy: CheckPolicy::ControlFlow,
                ..PipelineConfig::default()
            },
            MemorySystem::new(MemConfig::with_framework()),
        );
        cpu.load_image(&image);
        let mut icm = Icm::new(IcmConfig::default());
        icm.install_for_control_flow(&image, &mut cpu.mem_mut().memory);
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(icm));
        engine.enable(ModuleId::ICM);
        (cpu, engine)
    }

    const LOOP_SRC: &str = r#"
        main:   li r8, 0
                li r9, 20
        loop:   addi r8, r8, 1
                bne r8, r9, loop
                halt
    "#;

    #[test]
    fn clean_program_passes_all_checks() {
        let (mut cpu, mut engine) = icm_pipeline(LOOP_SRC);
        assert_eq!(cpu.run(&mut engine, 2_000_000), StepEvent::Halted);
        assert_eq!(cpu.regs()[8], 20);
        let icm: &Icm = engine.module_ref(ModuleId::ICM).unwrap();
        assert!(icm.stats().checks_completed >= 20);
        assert_eq!(icm.stats().mismatches, 0);
        assert!(icm.stats().cache_hits > 0, "loop should hit the Icm_Cache");
    }

    #[test]
    fn transient_fault_in_branch_detected_and_recovered() {
        let (mut cpu, mut engine) = icm_pipeline(LOOP_SRC);
        // Corrupt a fetched copy of the bne (a control-flow instruction,
        // hence checked). The redundant copy in CheckerMemory is clean, so
        // the ICM flags a mismatch, the pipeline flushes and refetches the
        // clean word, and the program still computes the right answer.
        cpu.set_fetch_fault(Some(FetchFault::xor(3, 0x0000_0040)));
        assert_eq!(cpu.run(&mut engine, 2_000_000), StepEvent::Halted);
        assert_eq!(cpu.regs()[8], 20, "architectural result must be preserved");
        let icm: &Icm = engine.module_ref(ModuleId::ICM).unwrap();
        assert!(icm.stats().mismatches >= 1);
        assert!(cpu.stats().check_flushes >= 1);
        assert!(engine.safe_mode().is_none());
    }

    #[test]
    fn checker_memory_is_contiguous() {
        let image = assemble(LOOP_SRC).unwrap();
        let mut mem = SparseMemory::new();
        let mut icm = Icm::new(IcmConfig::default());
        icm.install_for_control_flow(&image, &mut mem);
        // Exactly one control-flow instruction (bne) in the program.
        assert_eq!(icm.layout().len(), 1);
        let bne_pc = image.text_base + 3 * 4;
        let addr = icm.layout().addr_of(bne_pc).unwrap();
        assert_eq!(addr, IcmConfig::default().checker_base);
        assert_eq!(mem.read_u32(addr), image.text[3]);
        assert_eq!(icm.layout().addr_of(image.text_base), None);
    }

    /// The Figure 6 timeline: on an `Icm_Cache` hit the check result is
    /// available to the commit stage a small, fixed number of cycles
    /// after the CHECK dispatches (scan + cache + compare + broadcast) —
    /// the pipeline stalls at most that long per checked instruction.
    #[test]
    fn timeline_matches_figure6() {
        // Warm the cache with a first iteration, then measure the stall
        // cost of subsequent (hit-path) checks.
        let (mut cpu, mut engine) = icm_pipeline(
            r#"
            main:   li r8, 0
                    li r9, 30
            loop:   addi r8, r8, 1
                    bne r8, r9, loop
                    halt
            "#,
        );
        assert_eq!(cpu.run(&mut engine, 2_000_000), StepEvent::Halted);
        let icm: &Icm = engine.module_ref(ModuleId::ICM).unwrap();
        let s = icm.stats();
        assert!(s.cache_hits >= 25, "the loop branch must hit after warmup");
        // Per Figure 6 the hit path spans dispatch (t+2) to commit-visible
        // (t+5): ~3-4 cycles of potential stall per check. Amortized, the
        // commit stalls must stay within ~6 cycles per completed check.
        let per_check = cpu.stats().commit_stall_cycles as f64 / s.checks_completed as f64;
        assert!(
            per_check <= 6.0,
            "hit-path stall too large: {per_check:.2} cycles/check"
        );
        // And the check result always arrived before the watchdog window.
        assert!(engine.safe_mode().is_none());
    }

    #[test]
    fn selftest_passes_until_layout_is_corrupted() {
        let image = assemble(LOOP_SRC).unwrap();
        let mut mem = SparseMemory::new();
        let mut icm = Icm::new(IcmConfig::default());
        icm.install_for_control_flow(&image, &mut mem);
        assert_eq!(Module::self_test(&mut icm), Verdict::Pass);
        assert!(Module::corrupt_state(&mut icm, 42));
        assert_eq!(Module::self_test(&mut icm), Verdict::Fail);
        // Re-installing the layout reseals it (repair path).
        icm.install_for_control_flow(&image, &mut mem);
        assert_eq!(Module::self_test(&mut icm), Verdict::Pass);
    }

    #[test]
    fn lru_stack_semantics() {
        let mut c = LruStack::new(2);
        c.insert(0x100, 1);
        c.insert(0x200, 2);
        assert_eq!(c.lookup(0x100), Some(1)); // 0x200 now LRU
        c.insert(0x300, 3); // evicts 0x200
        assert_eq!(c.lookup(0x200), None);
        assert_eq!(c.lookup(0x100), Some(1));
        assert_eq!(c.lookup(0x300), Some(3));
    }

    #[test]
    fn cache_misses_cost_more_than_hits() {
        // A program with many distinct branches defeats a tiny Icm_Cache.
        let mut src = String::from("main: li r8, 0\n");
        for i in 0..40 {
            src.push_str(&format!("b l{i}\nl{i}: addi r8, r8, 1\n"));
        }
        src.push_str("halt\n");
        let image = assemble(&src).unwrap();

        let run_with = |cache_entries: usize| -> (u64, IcmStats) {
            let mut cpu = Pipeline::new(
                PipelineConfig {
                    check_policy: CheckPolicy::ControlFlow,
                    ..PipelineConfig::default()
                },
                MemorySystem::new(MemConfig::with_framework()),
            );
            cpu.load_image(&image);
            let mut icm = Icm::new(IcmConfig {
                cache_entries,
                ..IcmConfig::default()
            });
            icm.install_for_control_flow(&image, &mut cpu.mem_mut().memory);
            let mut engine = Engine::new(RseConfig::default());
            engine.install(Box::new(icm));
            engine.enable(ModuleId::ICM);
            assert_eq!(cpu.run(&mut engine, 5_000_000), StepEvent::Halted);
            let icm: &Icm = engine.module_ref(ModuleId::ICM).unwrap();
            (cpu.stats().cycles, icm.stats())
        };
        let (_big_cycles, big) = run_with(256);
        let (_small_cycles, small) = run_with(2);
        assert!(small.cache_misses >= big.cache_misses);
    }
}
