//! The pipeline machine: fetch → dispatch → issue → execute → commit.
//!
//! Modeling approach (SimpleScalar `sim-outorder` style, which is what the
//! paper augmented): correct-path instructions execute *functionally* in
//! program order at dispatch, against a speculative register file; the
//! timing model then tracks their flow through the reorder buffer,
//! functional units and memory hierarchy. Wrong-path instructions (fetched
//! past a mispredicted branch) occupy fetch, ROB and functional-unit
//! resources but never touch architectural state; they are squashed when
//! the branch resolves at writeback.
//!
//! Stores are buffered in the ROB/LSQ and written to memory at commit, so
//! memory always holds committed state; loads forward from older in-flight
//! stores. A second, architectural register file is maintained at commit so
//! a commit-stage flush (a CHECK error: the paper's "pipeline is flushed
//! and starts execution repeatedly at the same CHECK instruction") can
//! restore the speculative file exactly.

use crate::config::PipelineConfig;
use crate::coproc::{CoProcessor, CommitGate, DispatchInfo, ExecuteInfo, RobId};
use crate::exec::{branch_taken, exec_alu};
use crate::predictor::Predictor;
use crate::stats::PipelineStats;
use rse_isa::{decode, encode, layout, Image, Inst, InstClass, Reg};
use rse_mem::{AccessKind, MemorySystem};
use std::collections::VecDeque;

/// A saved execution context (per-thread state for the guest OS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuContext {
    /// Architectural register values.
    pub regs: [u32; 32],
    /// Program counter to resume at.
    pub pc: u32,
}

impl Default for CpuContext {
    fn default() -> CpuContext {
        CpuContext {
            regs: [0; 32],
            pc: layout::TEXT_BASE,
        }
    }
}

/// What a [`FetchFault`] does to the targeted instruction word as it
/// leaves the I-cache. `Xor` models in-transit multi-bit errors; `Nop`
/// and `Replay` model the instruction-skip and instruction-replay
/// classes of instruction-stream tampering (a glitched fetch unit that
/// swallows or double-issues a word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchTamper {
    /// XOR the fetched word with the mask.
    Xor(u32),
    /// Replace the fetched word with a NOP (the instruction is skipped).
    Nop,
    /// Push the fetched word twice (the instruction executes twice).
    Replay,
}

/// A one-shot transient fault injected into the fetch path: the `index`-th
/// fetched instruction word (0-based, counting only real fetches) is
/// tampered with as it leaves the I-cache. This models the in-transit
/// errors the Instruction Checker Module detects (§4.3) as well as the
/// skip/replay tampering classes used by the adversarial campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchFault {
    /// Which fetched word to corrupt.
    pub index: u64,
    /// How the word is corrupted.
    pub tamper: FetchTamper,
}

impl FetchFault {
    /// The classic fetch fault: XOR `xor_mask` into the `index`-th word.
    pub fn xor(index: u64, xor_mask: u32) -> FetchFault {
        FetchFault {
            index,
            tamper: FetchTamper::Xor(xor_mask),
        }
    }
}

/// A scheduled transient soft error, applied once when the pipeline's
/// cycle counter reaches `at_cycle`. These model the classic
/// fault-injection campaign targets: single/double bit flips in the
/// architectural register file and bit flips in physical memory (text or
/// data). Faults are armed with [`Pipeline::schedule_fault`] and drain in
/// scheduling order; each fires exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftFault {
    /// XOR `xor_mask` into architectural register `reg` at `at_cycle`.
    /// Flipping `r0` is architecturally masked by construction (the
    /// register reads as zero), so the engine still counts the injection
    /// but the value never changes.
    Reg {
        /// Cycle at which the flip lands.
        at_cycle: u64,
        /// Register index (0–31).
        reg: u8,
        /// Bits to flip.
        xor_mask: u32,
    },
    /// XOR `xor_mask` into the 32-bit memory word at `addr` at
    /// `at_cycle`. Because instruction fetch re-reads memory each time,
    /// a flip in the text segment is a *persistent* fault every
    /// subsequent fetch observes — exactly the case the ICM's redundant
    /// copy is designed to catch.
    Mem {
        /// Cycle at which the flip lands.
        at_cycle: u64,
        /// Byte address of the (unaligned-tolerant) word.
        addr: u32,
        /// Bits to flip.
        xor_mask: u32,
    },
    /// Overwrite the 32-bit memory word at `addr` with `value` at
    /// `at_cycle`. Unlike the XOR models above this is not a transient
    /// upset but an *arbitrary-write primitive* — the attacker capability
    /// the adversarial campaigns (rse-attack) use to smash return
    /// addresses, tamper with pointer tables, and plant payloads.
    Write {
        /// Cycle at which the write lands.
        at_cycle: u64,
        /// Byte address of the word.
        addr: u32,
        /// Value written.
        value: u32,
    },
}

impl SoftFault {
    fn at_cycle(&self) -> u64 {
        match *self {
            SoftFault::Reg { at_cycle, .. }
            | SoftFault::Mem { at_cycle, .. }
            | SoftFault::Write { at_cycle, .. } => at_cycle,
        }
    }
}

/// Why `Pipeline::run` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A system call committed. Read/modify registers, then call
    /// [`Pipeline::resume`].
    Syscall,
    /// A `halt` instruction committed; simulation is finished.
    Halted,
    /// A co-processor module raised an exception toward the OS (e.g.
    /// the DDT's SavePage).
    Exception(crate::coproc::CoprocException),
    /// The cycle budget given to [`Pipeline::run`] was exhausted.
    Timeout,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Dispatched,
    Issued,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct StoreData {
    addr: u32,
    width: u8,
    value: u32,
}

#[derive(Debug, Clone)]
struct RobEntry {
    pc: u32,
    word: u32,
    inst: Inst,
    wrong_path: bool,
    injected: bool,
    state: EntryState,
    complete_at: u64,
    /// The `seq`s of the in-flight producers of the two sources (see
    /// [`Pipeline::producers`]).
    deps: [Option<u64>; 2],
    operands: [u32; 2],
    result: u32,
    eff_addr: Option<u32>,
    loaded: Option<u32>,
    store: Option<StoreData>,
    mispredicted: bool,
    actual_next: u32,
    taken: bool,
}

#[derive(Debug, Clone)]
struct FetchedInst {
    pc: u32,
    word: u32,
    inst: Inst,
    pred_next: u32,
    injected: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    WaitSyscall { resume_pc: u32 },
    Halted,
}

/// The simulated superscalar out-of-order processor.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    mem: MemorySystem,
    pred: Predictor,
    regs: [u32; 32],
    arch_regs: [u32; 32],
    fetch_pc: u32,
    fetch_queue: VecDeque<FetchedInst>,
    rob: VecDeque<RobEntry>,
    /// Entries committed so far. Every ROB entry has a `seq`, its
    /// position in push order counting only entries not squashed, so
    /// `rob[i]` has `seq == popped + i` and a `seq` below `popped` has
    /// committed. The `seq` is also the entry's [`RobId`].
    popped: u64,
    /// SimpleScalar's create vector: the `seq` of the youngest in-flight
    /// writer of each register. Set at dispatch, cleared when that
    /// writer commits, rebuilt from the ROB after a squash.
    producers: [Option<u64>; 32],
    /// Memory instructions in the ROB (the LSQ occupancy).
    lsq_len: usize,
    /// `issue_stage`'s selection, `(rob index, complete_at)`; kept so the
    /// steady state allocates nothing.
    issue_buf: Vec<(usize, u64)>,
    now: u64,
    wrong_path_mode: bool,
    serialize: bool,
    pending_ifetch: Option<(u32, u64)>,
    chk_injected_for: Option<u32>,
    freeze_until: u64,
    state: State,
    stats: PipelineStats,
    fetch_fault: Option<FetchFault>,
    fetch_count: u64,
    soft_faults: Vec<SoftFault>,
    mul_busy_until: u64,
    exec_range: Option<(u32, u32)>,
    nx_violation: Option<u32>,
}

impl Pipeline {
    /// Creates a pipeline over the given memory system. Load a program
    /// with [`Pipeline::load_image`] before running.
    pub fn new(config: PipelineConfig, mem: MemorySystem) -> Pipeline {
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = layout::STACK_BASE - 16;
        Pipeline {
            config,
            mem,
            pred: Predictor::default(),
            regs,
            arch_regs: regs,
            fetch_pc: layout::TEXT_BASE,
            fetch_queue: VecDeque::new(),
            rob: VecDeque::new(),
            popped: 0,
            producers: [None; 32],
            lsq_len: 0,
            issue_buf: Vec::new(),
            now: 0,
            wrong_path_mode: false,
            serialize: false,
            pending_ifetch: None,
            chk_injected_for: None,
            freeze_until: 0,
            state: State::Running,
            stats: PipelineStats::default(),
            fetch_fault: None,
            fetch_count: 0,
            soft_faults: Vec::new(),
            mul_busy_until: 0,
            exec_range: None,
            nx_violation: None,
        }
    }

    /// Loads an executable image: text and data are written to memory,
    /// caches are invalidated, the PC is set to the entry point and the
    /// stack pointer to the top of the (nominal) stack.
    pub fn load_image(&mut self, image: &Image) {
        for (i, &word) in image.text.iter().enumerate() {
            self.mem
                .memory
                .write_u32(image.text_base + 4 * i as u32, word);
        }
        self.mem.memory.write_bytes(image.data_base, &image.data);
        self.mem.invalidate_caches();
        self.fetch_pc = image.entry;
        self.regs = [0; 32];
        self.regs[Reg::SP.index()] = layout::STACK_BASE - 16;
        self.arch_regs = self.regs;
        self.state = State::Running;
        self.nx_violation = None;
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated performance counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// The memory system (shared with the RSE's MAU).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// The architectural register file (valid while paused at a syscall).
    // Intentionally exposes the *architectural* file, not the speculative
    // `regs` working file — external observers must never see
    // uncommitted state.
    #[allow(clippy::misnamed_getters)]
    pub fn regs(&self) -> &[u32; 32] {
        &self.arch_regs
    }

    /// Mutable architectural registers — used by the guest OS to return
    /// syscall results. Keeps the speculative file coherent.
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        if !reg.is_zero() {
            self.arch_regs[reg.index()] = value;
            self.regs[reg.index()] = value;
        }
    }

    /// Arms a one-shot transient fetch fault.
    pub fn set_fetch_fault(&mut self, fault: Option<FetchFault>) {
        self.fetch_fault = fault;
    }

    /// Restricts *committed* execution to `[lo, hi)`. This models the
    /// DDT's non-executable-page enforcement (§4.2): the first program
    /// instruction that reaches commit from outside the range is blocked
    /// — the machine records the offending PC, squashes everything in
    /// flight and halts, before the instruction can retire any
    /// architectural effect. Wrong-path fetches from data pages are
    /// deliberately tolerated (real front ends speculate into garbage all
    /// the time); only *architectural* execution trips the trap. `None`
    /// disables enforcement.
    pub fn set_exec_range(&mut self, range: Option<(u32, u32)>) {
        self.exec_range = range;
    }

    /// The PC that tripped non-executable enforcement, if any. Latched
    /// once per program run; [`Pipeline::load_image`] clears it.
    pub fn nx_violation(&self) -> Option<u32> {
        self.nx_violation
    }

    /// Schedules a one-shot [`SoftFault`]. Faults whose `at_cycle` is in
    /// the past fire on the next step; multiple faults may be armed at
    /// once (the double-bit-flip model schedules two).
    pub fn schedule_fault(&mut self, fault: SoftFault) {
        self.soft_faults.push(fault);
    }

    /// Applies every armed soft fault whose time has come. Runs at the
    /// top of each cycle, before any stage reads state.
    fn apply_soft_faults(&mut self) {
        if self.soft_faults.is_empty() {
            return;
        }
        let now = self.now;
        let mut i = 0;
        while i < self.soft_faults.len() {
            if self.soft_faults[i].at_cycle() > now {
                i += 1;
                continue;
            }
            match self.soft_faults.remove(i) {
                SoftFault::Reg { reg, xor_mask, .. } => {
                    let r = (reg & 31) as usize;
                    if r != 0 {
                        // Hit both the speculative and the architectural
                        // file: a physical register-file upset is visible
                        // to readers and survives any later flush.
                        self.regs[r] ^= xor_mask;
                        self.arch_regs[r] ^= xor_mask;
                    }
                    self.stats.soft_faults_applied += 1;
                }
                SoftFault::Mem { addr, xor_mask, .. } => {
                    self.mem.memory.flip_word(addr, xor_mask);
                    self.stats.soft_faults_applied += 1;
                }
                SoftFault::Write { addr, value, .. } => {
                    self.mem.memory.write_u32(addr, value);
                    self.stats.soft_faults_applied += 1;
                }
            }
        }
    }

    /// Freezes fetch/dispatch/issue/commit for `cycles` cycles (used by
    /// the OS to model exception-handler work such as the SavePage
    /// page-checkpoint copy; in-flight operations still drain).
    pub fn freeze_for(&mut self, cycles: u64) {
        self.freeze_until = self.freeze_until.max(self.now + cycles);
    }

    /// Captures the execution context (only meaningful while paused at a
    /// syscall, when speculative and architectural state coincide).
    pub fn context(&self) -> CpuContext {
        let pc = match self.state {
            State::WaitSyscall { resume_pc } => resume_pc,
            _ => self.fetch_pc,
        };
        CpuContext {
            regs: self.arch_regs,
            pc,
        }
    }

    /// Installs an execution context (guest OS context switch).
    pub fn set_context(&mut self, ctx: &CpuContext) {
        self.arch_regs = ctx.regs;
        self.regs = ctx.regs;
        match &mut self.state {
            State::WaitSyscall { resume_pc } => *resume_pc = ctx.pc,
            _ => self.fetch_pc = ctx.pc,
        }
    }

    /// Resumes after a syscall, optionally redirecting to `pc` (default:
    /// the instruction after the syscall).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline is not paused at a syscall.
    pub fn resume(&mut self, pc: Option<u32>) {
        let State::WaitSyscall { resume_pc } = self.state else {
            panic!("resume called while not paused at a syscall");
        };
        self.fetch_pc = pc.unwrap_or(resume_pc);
        self.state = State::Running;
    }

    /// Whether the pipeline has committed a `halt`.
    pub fn is_halted(&self) -> bool {
        self.state == State::Halted
    }

    /// Runs until a syscall, halt, co-processor exception, or until
    /// `max_cycles` more cycles have elapsed.
    pub fn run<C: CoProcessor + ?Sized>(&mut self, cp: &mut C, max_cycles: u64) -> StepEvent {
        let deadline = self.now + max_cycles;
        while self.now < deadline {
            if let Some(ev) = self.step(cp) {
                return ev;
            }
        }
        StepEvent::Timeout
    }

    /// Advances the machine by one cycle. Returns an event if the
    /// simulation must pause (syscall/halt/exception).
    pub fn step<C: CoProcessor + ?Sized>(&mut self, cp: &mut C) -> Option<StepEvent> {
        if self.state == State::Halted {
            return Some(StepEvent::Halted);
        }
        if matches!(self.state, State::WaitSyscall { .. }) {
            // A syscall event was preempted by a co-processor exception in
            // the same cycle; re-deliver it now.
            return Some(StepEvent::Syscall);
        }
        self.apply_soft_faults();
        let frozen = self.now < self.freeze_until;
        let mut event = None;
        if !frozen && self.state == State::Running {
            event = self.commit_stage(cp);
        }
        self.writeback_stage(cp);
        if !frozen && self.state == State::Running {
            self.issue_stage();
            self.dispatch_stage(cp);
            self.fetch_stage();
        }
        cp.tick(self.now, &mut self.mem);
        self.now += 1;
        self.stats.cycles += 1;
        // Exceptions take priority over any same-cycle syscall/halt event:
        // the OS must see the SavePage before acting on the other event
        // (which is re-delivered on the next step).
        if let Some(exc) = cp.take_exception() {
            return Some(StepEvent::Exception(exc));
        }
        event
    }

    /// The [`RobId`] one past the youngest ROB entry: the id the next
    /// dispatch takes, and, right after a `pop_back`, the id of the entry
    /// just removed.
    fn tail_id(&self) -> RobId {
        RobId(self.popped + self.rob.len() as u64)
    }

    // --- commit ---------------------------------------------------------

    fn commit_stage<C: CoProcessor + ?Sized>(&mut self, cp: &mut C) -> Option<StepEvent> {
        for _ in 0..self.config.commit_width {
            let head = self.rob.front()?;
            if head.state != EntryState::Done {
                return None;
            }
            debug_assert!(!head.wrong_path, "wrong-path instruction reached commit");
            if let Some((lo, hi)) = self.exec_range {
                // Non-executable enforcement fires at commit, not fetch:
                // speculative wrong-path fetches from data pages must not
                // kill the program, but no architectural effect may ever
                // retire from outside the executable range.
                if !head.injected && (head.pc < lo || head.pc >= hi) {
                    self.nx_violation = Some(head.pc);
                    self.flush_all(cp);
                    self.state = State::Halted;
                    return Some(StepEvent::Halted);
                }
            }
            match cp.commit_gate(self.now, RobId(self.popped)) {
                CommitGate::Stall => {
                    self.stats.commit_stall_cycles += 1;
                    return None;
                }
                CommitGate::Flush => {
                    let restart_pc = head.pc;
                    self.stats.check_flushes += 1;
                    self.flush_all(cp);
                    self.fetch_pc = restart_pc;
                    return None;
                }
                CommitGate::Pass => {}
                CommitGate::PassNop => {
                    // The §3.4 multiplexer forced `10` for a quarantined
                    // module: the instruction commits, but its check was
                    // never performed.
                    self.stats.nop_commits += 1;
                }
            }
            let entry = self.rob.pop_front().expect("head exists");
            if let Some(ev) = self.retire(cp, entry) {
                return Some(ev);
            }
        }
        None
    }

    fn retire<C: CoProcessor + ?Sized>(
        &mut self,
        cp: &mut C,
        entry: RobEntry,
    ) -> Option<StepEvent> {
        let rob = RobId(self.popped);
        self.stats.committed += 1;
        if entry.injected {
            self.stats.committed_injected_chk += 1;
        }
        if let Some(dest) = entry.inst.dest() {
            self.arch_regs[dest.index()] = entry.result;
            if self.producers[dest.index()] == Some(self.popped) {
                self.producers[dest.index()] = None;
            }
        }
        self.popped += 1;
        if entry.inst.class().is_mem() {
            self.lsq_len -= 1;
        }
        // The Commit_Out indication precedes the store's memory update so
        // a co-processor (the DDT) can capture the pre-store page image.
        cp.on_commit(self.now, rob, &mut self.mem);
        match entry.inst.class() {
            InstClass::Load => self.stats.loads_committed += 1,
            InstClass::Store => {
                self.stats.stores_committed += 1;
                if let Some(store) = entry.store {
                    // Timing: the store accesses the D-cache at commit.
                    self.mem.access(self.now, store.addr, AccessKind::Store);
                    match store.width {
                        1 => self.mem.memory.write_u8(store.addr, store.value as u8),
                        2 => self.mem.memory.write_u16(store.addr, store.value as u16),
                        _ => self.mem.memory.write_u32(store.addr, store.value),
                    }
                }
            }
            InstClass::Branch | InstClass::Jump => self.stats.control_flow_committed += 1,
            InstClass::Chk => {
                if let Inst::Chk(spec) = entry.inst {
                    if spec.blocking
                        && self.config.chk_serialize_mask & (1 << spec.module.number()) != 0
                    {
                        // The serializing CHECK has retired; dispatch may
                        // proceed.
                        self.serialize = false;
                    }
                }
            }
            _ => {}
        }
        match entry.inst.class() {
            InstClass::Syscall => {
                // Serialization guaranteed nothing younger dispatched;
                // discard whatever fetch ran ahead with.
                self.flush_all(cp);
                self.state = State::WaitSyscall {
                    resume_pc: entry.pc.wrapping_add(4),
                };
                self.stats.syscalls += 1;
                Some(StepEvent::Syscall)
            }
            InstClass::Halt => {
                self.flush_all(cp);
                self.state = State::Halted;
                Some(StepEvent::Halted)
            }
            _ => None,
        }
    }

    /// Squashes every in-flight instruction and resets speculative state
    /// to architectural state.
    fn flush_all<C: CoProcessor + ?Sized>(&mut self, cp: &mut C) {
        while self.rob.pop_back().is_some() {
            self.stats.squashed += 1;
            cp.on_squash(self.now, self.tail_id(), &mut self.mem);
        }
        self.producers = [None; 32];
        self.lsq_len = 0;
        self.fetch_queue.clear();
        self.pending_ifetch = None;
        self.chk_injected_for = None;
        self.regs = self.arch_regs;
        self.wrong_path_mode = false;
        self.serialize = false;
    }

    // --- writeback ------------------------------------------------------

    fn writeback_stage<C: CoProcessor + ?Sized>(&mut self, cp: &mut C) {
        let mut recover: Option<usize> = None;
        for idx in 0..self.rob.len() {
            let e = &mut self.rob[idx];
            if e.state == EntryState::Issued && e.complete_at <= self.now {
                e.state = EntryState::Done;
                if !e.wrong_path {
                    let info = ExecuteInfo {
                        rob: RobId(self.popped + idx as u64),
                        result: e.result,
                        eff_addr: e.eff_addr,
                        loaded: e.loaded,
                    };
                    cp.on_execute(self.now, &info, &mut self.mem);
                    if e.mispredicted {
                        recover = Some(idx);
                        break;
                    }
                }
            }
        }
        if let Some(idx) = recover {
            let target = self.rob[idx].actual_next;
            while self.rob.len() > idx + 1 {
                let e = self.rob.pop_back().expect("len checked");
                self.stats.squashed += 1;
                if e.inst.class().is_mem() {
                    self.lsq_len -= 1;
                }
                cp.on_squash(self.now, self.tail_id(), &mut self.mem);
            }
            // The squash took the youngest entries, so every survivor's
            // producers survived too; only the table's view of the
            // youngest writers must be rebuilt.
            self.producers = [None; 32];
            for (i, e) in self.rob.iter().enumerate() {
                if let Some(dest) = e.inst.dest() {
                    self.producers[dest.index()] = Some(self.popped + i as u64);
                }
            }
            self.fetch_queue.clear();
            self.pending_ifetch = None;
            self.chk_injected_for = None;
            self.fetch_pc = target;
            self.wrong_path_mode = false;
        }
    }

    // --- issue ----------------------------------------------------------

    fn deps_ready(&self, deps: &[Option<u64>; 2]) -> bool {
        deps.iter().flatten().all(|&seq| {
            seq < self.popped || self.rob[(seq - self.popped) as usize].state == EntryState::Done
        })
    }

    fn issue_stage(&mut self) {
        let mut alu_used = 0usize;
        let mut mem_used = 0usize;
        let mut issued = 0usize;
        let mut chosen = std::mem::take(&mut self.issue_buf);
        chosen.clear();
        let mut mul_busy = self.mul_busy_until;
        for idx in 0..self.rob.len() {
            if issued >= self.config.issue_width {
                break;
            }
            let e = &self.rob[idx];
            if e.state != EntryState::Dispatched || !self.deps_ready(&e.deps) {
                continue;
            }
            let class = e.inst.class();
            let complete_at = match class {
                InstClass::MulDiv => {
                    if mul_busy > self.now {
                        continue; // non-pipelined unit busy
                    }
                    let latency = if matches!(e.inst, Inst::Mul { .. }) {
                        self.config.mul_latency
                    } else {
                        self.config.div_latency
                    };
                    mul_busy = self.now + latency;
                    mul_busy
                }
                InstClass::Load | InstClass::Store => {
                    if mem_used >= self.config.mem_ports {
                        continue;
                    }
                    mem_used += 1;
                    // AGEN takes one cycle. A store's data is written at
                    // commit; a correct-path load's D-cache access below
                    // sets its completion.
                    self.now + 1
                }
                _ => {
                    if alu_used >= self.config.int_alus {
                        continue;
                    }
                    alu_used += 1;
                    self.now + 1
                }
            };
            issued += 1;
            chosen.push((idx, complete_at));
        }
        self.mul_busy_until = mul_busy;
        for &(idx, mut complete_at) in &chosen {
            // Correct-path loads access the D-cache at issue.
            let (is_load, wrong_path, addr) = {
                let e = &self.rob[idx];
                (e.inst.class() == InstClass::Load, e.wrong_path, e.eff_addr)
            };
            if is_load && !wrong_path {
                let addr = addr.expect("load has an address");
                complete_at = self.mem.access(self.now + 1, addr, AccessKind::Load);
            }
            let e = &mut self.rob[idx];
            e.state = EntryState::Issued;
            e.complete_at = complete_at.max(self.now + 1);
        }
        self.issue_buf = chosen;
    }

    // --- dispatch -------------------------------------------------------

    /// Reads `width` bytes at `addr` with store-to-load forwarding from
    /// older in-flight (correct-path) stores. Addresses wrap at the top
    /// of the address space, as the memory's own accessors do.
    fn read_forwarded(&self, addr: u32, width: u8) -> u32 {
        let memory = &self.mem.memory;
        let mut bytes = match width {
            1 => u32::from(memory.read_u8(addr)),
            2 => u32::from(memory.read_u16(addr)),
            _ => memory.read_u32(addr),
        }
        .to_le_bytes();
        for e in &self.rob {
            if e.wrong_path {
                continue;
            }
            if let Some(s) = &e.store {
                let sbytes = s.value.to_le_bytes();
                for i in 0..width as u32 {
                    let k = addr.wrapping_add(i).wrapping_sub(s.addr);
                    if k < s.width as u32 {
                        bytes[i as usize] = sbytes[k as usize];
                    }
                }
            }
        }
        u32::from_le_bytes(bytes)
    }

    fn dispatch_stage<C: CoProcessor + ?Sized>(&mut self, cp: &mut C) {
        for _ in 0..self.config.dispatch_width {
            if self.serialize || self.rob.len() >= self.config.rob_size {
                break;
            }
            let Some(front) = self.fetch_queue.front() else {
                break;
            };
            let is_mem = front.inst.class().is_mem();
            if is_mem && self.lsq_len >= self.config.lsq_size {
                break;
            }
            let f = self.fetch_queue.pop_front().expect("front exists");
            let rob = self.tail_id();
            let wrong_path = self.wrong_path_mode;
            let mut entry = RobEntry {
                pc: f.pc,
                word: f.word,
                inst: f.inst,
                wrong_path,
                injected: f.injected,
                state: EntryState::Dispatched,
                complete_at: 0,
                deps: [None, None],
                operands: [0, 0],
                result: 0,
                eff_addr: None,
                loaded: None,
                store: None,
                mispredicted: false,
                actual_next: f.pc.wrapping_add(4),
                taken: false,
            };
            // Timing dependencies on in-flight producers; then this entry
            // is the youngest writer of its destination.
            for (dep, src) in entry.deps.iter_mut().zip(entry.inst.sources()) {
                *dep = src.and_then(|reg| self.producers[reg.index()]);
            }
            if let Some(dest) = entry.inst.dest() {
                self.producers[dest.index()] = Some(rob.0);
            }
            if is_mem {
                self.lsq_len += 1;
            }
            if !wrong_path {
                self.exec_functional(&mut entry, &f);
            }
            let info = DispatchInfo {
                rob,
                pc: entry.pc,
                word: entry.word,
                inst: entry.inst,
                operands: entry.operands,
                wrong_path,
                injected: entry.injected,
            };
            let mispredicted = entry.mispredicted;
            let class = entry.inst.class();
            self.rob.push_back(entry);
            self.stats.dispatched += 1;
            cp.on_dispatch(self.now, &info, &mut self.mem);
            if !wrong_path {
                if mispredicted {
                    self.stats.mispredicts += 1;
                    self.wrong_path_mode = true;
                }
                if matches!(class, InstClass::Syscall | InstClass::Halt) {
                    self.serialize = true;
                    break;
                }
                if let Inst::Chk(spec) = info.inst {
                    if spec.blocking
                        && self.config.chk_serialize_mask & (1 << spec.module.number()) != 0
                    {
                        self.serialize = true;
                        break;
                    }
                }
            }
        }
    }

    /// Architectural execution of a correct-path instruction at dispatch.
    fn exec_functional(&mut self, entry: &mut RobEntry, f: &FetchedInst) {
        let inst = entry.inst;
        let read = |r: Option<Reg>, regs: &[u32; 32]| r.map_or(0, |r| regs[r.index()]);
        let [s0, s1] = inst.sources();
        let rs_val = read(s0, &self.regs);
        let rt_val = read(s1, &self.regs);
        entry.operands = [rs_val, rt_val];
        match inst.class() {
            InstClass::IntAlu | InstClass::MulDiv => {
                entry.result = exec_alu(&inst, rs_val, rt_val).unwrap_or(0);
            }
            InstClass::Load => {
                let addr = rs_val.wrapping_add(load_store_offset(&inst));
                entry.eff_addr = Some(addr);
                let raw = match inst {
                    Inst::Lw { .. } => self.read_forwarded(addr, 4),
                    Inst::Lh { .. } => self.read_forwarded(addr, 2) as u16 as i16 as i32 as u32,
                    Inst::Lhu { .. } => self.read_forwarded(addr, 2) & 0xFFFF,
                    Inst::Lb { .. } => self.read_forwarded(addr, 1) as u8 as i8 as i32 as u32,
                    Inst::Lbu { .. } => self.read_forwarded(addr, 1) & 0xFF,
                    _ => 0,
                };
                entry.result = raw;
                entry.loaded = Some(raw);
            }
            InstClass::Store => {
                // For stores, sources() = [base, rt]; rs_val is the base.
                let addr = rs_val.wrapping_add(load_store_offset(&inst));
                entry.eff_addr = Some(addr);
                let width = match inst {
                    Inst::Sb { .. } => 1,
                    Inst::Sh { .. } => 2,
                    _ => 4,
                };
                entry.store = Some(StoreData {
                    addr,
                    width,
                    value: rt_val,
                });
            }
            InstClass::Branch => {
                let taken = branch_taken(&inst, rs_val, rt_val).unwrap_or(false);
                entry.taken = taken;
                entry.actual_next = if taken {
                    inst.direct_target(entry.pc)
                        .unwrap_or(entry.pc.wrapping_add(4))
                } else {
                    entry.pc.wrapping_add(4)
                };
                self.pred.update(entry.pc, &inst, taken, entry.actual_next);
            }
            InstClass::Jump => {
                entry.taken = true;
                entry.actual_next = match inst {
                    Inst::J { .. } | Inst::Jal { .. } => {
                        inst.direct_target(entry.pc).expect("direct jump")
                    }
                    Inst::Jr { .. } | Inst::Jalr { .. } => rs_val,
                    _ => unreachable!("jump class"),
                };
                if matches!(inst, Inst::Jal { .. } | Inst::Jalr { .. }) {
                    entry.result = entry.pc.wrapping_add(4);
                }
                self.pred.update(entry.pc, &inst, true, entry.actual_next);
            }
            InstClass::Chk => {
                // Wide CHECK operands travel in a0/a1 by convention.
                entry.operands = [self.regs[Reg::A0.index()], self.regs[Reg::A1.index()]];
            }
            InstClass::Syscall | InstClass::Halt | InstClass::Nop => {}
        }
        if let Some(dest) = inst.dest() {
            self.regs[dest.index()] = entry.result;
        }
        if entry.inst.is_control_flow() {
            entry.mispredicted = f.pred_next != entry.actual_next;
        }
    }

    // --- fetch ----------------------------------------------------------

    fn fetch_stage(&mut self) {
        const LINE_BYTES: u32 = 32;
        let mut fetched = 0usize;
        let mut line_this_cycle: Option<u32> = None;
        while fetched < self.config.fetch_width && self.fetch_queue.len() < self.config.fetch_buffer
        {
            let pc = self.fetch_pc;
            let line = pc / LINE_BYTES;
            // Outstanding I-cache miss?
            if let Some((miss_line, ready_at)) = self.pending_ifetch {
                if self.now < ready_at {
                    return;
                }
                self.pending_ifetch = None;
                line_this_cycle = Some(miss_line);
                if miss_line != line {
                    // Redirected while missing; re-access below.
                    line_this_cycle = None;
                }
            }
            if line_this_cycle == Some(line) {
                // Same line within the cycle: the I-cache is still read
                // per instruction (SimpleScalar counts one il1 access per
                // fetched instruction), but it always hits.
                self.mem.access(self.now, pc, AccessKind::InstFetch);
            } else {
                if line_this_cycle.is_some() {
                    // One I-cache line per cycle.
                    return;
                }
                let done = self.mem.access(self.now, pc, AccessKind::InstFetch);
                if done > self.now + 1 {
                    self.pending_ifetch = Some((line, done));
                    return;
                }
                line_this_cycle = Some(line);
            }
            let mut word = self.mem.memory.read_u32(pc);
            // The fault is consumed only when the word is actually pushed
            // into the fetch queue (a CHECK-injection pass over the same
            // word must not eat it).
            let corrupting = self
                .fetch_fault
                .is_some_and(|f| f.index == self.fetch_count);
            let mut replay = false;
            if corrupting {
                match self.fetch_fault.expect("checked").tamper {
                    FetchTamper::Xor(mask) => word ^= mask,
                    FetchTamper::Nop => word = encode(&Inst::Nop),
                    FetchTamper::Replay => replay = true,
                }
            }
            let inst = decode(word).unwrap_or(Inst::Nop);
            // Runtime CHECK embedding (§5.1): inject a CHECK in front of
            // instructions selected by the policy.
            if self.config.check_policy.wants_check(&inst) && self.chk_injected_for != Some(pc) {
                let spec = self.config.check_policy.injected_chk();
                self.fetch_queue.push_back(FetchedInst {
                    pc,
                    word: encode(&Inst::Chk(spec)),
                    inst: Inst::Chk(spec),
                    pred_next: pc,
                    injected: true,
                });
                self.chk_injected_for = Some(pc);
                self.stats.chk_injected += 1;
                self.stats.fetched += 1;
                fetched += 1;
                continue;
            }
            if self.chk_injected_for == Some(pc) {
                self.chk_injected_for = None;
            }
            if corrupting {
                self.fetch_fault = None;
            }
            self.fetch_count += 1;
            let pred_next = self.pred.predict_next(pc, &inst);
            self.fetch_queue.push_back(FetchedInst {
                pc,
                word,
                inst,
                pred_next,
                injected: false,
            });
            self.stats.fetched += 1;
            fetched += 1;
            if replay {
                // The replay tamper double-issues the word: a second copy
                // of the same fetched instruction enters the queue right
                // behind the first, so the instruction commits twice.
                // (Only program instructions count toward `fetch_count`
                // and the duplicate is not one — the fetch index stream
                // stays aligned with the untampered run.)
                self.fetch_queue.push_back(FetchedInst {
                    pc,
                    word,
                    inst,
                    pred_next,
                    injected: false,
                });
                self.stats.fetched += 1;
            }
            self.fetch_pc = pred_next;
            if pred_next != pc.wrapping_add(4) {
                // Predicted-taken control transfer: fetch bubble.
                return;
            }
        }
    }
}

fn load_store_offset(inst: &Inst) -> u32 {
    use Inst::*;
    match *inst {
        Lw { off, .. }
        | Lh { off, .. }
        | Lhu { off, .. }
        | Lb { off, .. }
        | Lbu { off, .. }
        | Sw { off, .. }
        | Sh { off, .. }
        | Sb { off, .. } => off as i32 as u32,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coproc::NullCoProcessor;
    use rse_isa::asm::assemble;
    use rse_mem::MemConfig;

    fn run_program(src: &str) -> Pipeline {
        let image = assemble(src).expect("assembles");
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        let ev = cpu.run(&mut NullCoProcessor, 1_000_000);
        assert_eq!(ev, StepEvent::Halted, "program did not halt");
        cpu
    }

    #[test]
    fn straight_line_arithmetic() {
        let cpu = run_program(
            r#"
            main:   li   r8, 10
                    li   r9, 32
                    add  r10, r8, r9
                    halt
            "#,
        );
        assert_eq!(cpu.regs()[10], 42);
        assert_eq!(cpu.stats().committed, 4);
    }

    #[test]
    fn loop_executes_correct_count() {
        let cpu = run_program(
            r#"
            main:   li   r8, 0
                    li   r9, 100
            loop:   addi r8, r8, 1
                    bne  r8, r9, loop
                    halt
            "#,
        );
        assert_eq!(cpu.regs()[8], 100);
        // 2 setup + 100 * 2 loop body + 1 halt
        assert_eq!(cpu.stats().committed, 2 + 200 + 1);
        assert!(cpu.stats().control_flow_committed >= 100);
    }

    #[test]
    fn memory_roundtrip_through_pipeline() {
        let cpu = run_program(
            r#"
            main:   la   r8, buf
                    li   r9, 0x1234
                    sw   r9, 0(r8)
                    lw   r10, 0(r8)
                    sh   r9, 8(r8)
                    lb   r11, 8(r8)
                    halt
                    .data
            buf:    .space 16
            "#,
        );
        assert_eq!(cpu.regs()[10], 0x1234);
        assert_eq!(cpu.regs()[11], 0x34);
    }

    #[test]
    fn store_to_load_forwarding_is_exact() {
        // The lw immediately follows the sw; the store is still in the
        // LSQ (not yet committed) when the load executes functionally.
        let cpu = run_program(
            r#"
            main:   la   r8, buf
                    li   r9, 0xAB
                    sb   r9, 1(r8)
                    lw   r10, 0(r8)
                    halt
                    .data
            buf:    .word 0x11111111
            "#,
        );
        assert_eq!(cpu.regs()[10], 0x1111_AB11);
    }

    #[test]
    fn forwarding_from_a_store_that_wraps_the_address_space() {
        // The word store covers 0xFFFFFFFE..=0x00000001; both loads read
        // it from the LSQ before it commits.
        let src = r#"
            main:   li   r8, -2
                    li   r9, 0x12345678
                    sw   r9, 0(r8)
                    lw   r10, 0(r8)
                    lb   r11, 1(r8)
                    halt
        "#;
        let cpu = run_program(src);
        let mut golden = crate::Golden::new(&assemble(src).expect("assembles"));
        assert_eq!(golden.run(1_000), crate::GoldenEvent::Halted);
        assert_eq!(golden.regs[10], 0x1234_5678);
        assert_eq!(golden.regs[11], 0x56);
        assert_eq!(cpu.regs(), &golden.regs);
    }

    #[test]
    fn function_call_and_return() {
        let cpu = run_program(
            r#"
            main:   li   r4, 5
                    jal  double
                    move r10, r2
                    halt
            double: add  r2, r4, r4
                    jr   r31
            "#,
        );
        assert_eq!(cpu.regs()[10], 10);
    }

    #[test]
    fn mispredicted_branches_recover() {
        // Alternating taken/not-taken pattern defeats the bimodal
        // predictor; results must still be architecturally exact.
        let cpu = run_program(
            r#"
            main:   li   r8, 0      # i
                    li   r9, 50     # n
                    li   r10, 0     # acc
            loop:   andi r11, r8, 1
                    beq  r11, r0, even
                    addi r10, r10, 2
                    b    next
            even:   addi r10, r10, 1
            next:   addi r8, r8, 1
                    bne  r8, r9, loop
                    halt
            "#,
        );
        // 25 even iterations (+1) and 25 odd (+2).
        assert_eq!(cpu.regs()[10], 25 + 50);
        assert!(cpu.stats().mispredicts > 0);
        assert!(cpu.stats().squashed > 0);
    }

    #[test]
    fn mul_div_latency_respected() {
        let cpu = run_program(
            r#"
            main:   li   r8, 7
                    li   r9, 6
                    mul  r10, r8, r9
                    li   r11, 100
                    div  r12, r11, r9
                    rem  r13, r11, r9
                    halt
            "#,
        );
        assert_eq!(cpu.regs()[10], 42);
        assert_eq!(cpu.regs()[12], 16);
        assert_eq!(cpu.regs()[13], 4);
    }

    #[test]
    fn syscall_pauses_and_resumes() {
        let image = assemble(
            r#"
            main:   li   r2, 99
                    syscall
                    move r10, r2
                    halt
            "#,
        )
        .unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        let ev = cpu.run(&mut NullCoProcessor, 100_000);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(cpu.regs()[2], 99);
        cpu.set_reg(Reg::V0, 1234); // OS returns a value
        cpu.resume(None);
        let ev = cpu.run(&mut NullCoProcessor, 100_000);
        assert_eq!(ev, StepEvent::Halted);
        assert_eq!(cpu.regs()[10], 1234);
    }

    #[test]
    fn context_switch_roundtrip() {
        let image = assemble("main: syscall\nhalt").unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        assert_eq!(cpu.run(&mut NullCoProcessor, 10_000), StepEvent::Syscall);
        let saved = cpu.context();
        let mut other = saved;
        other.regs[8] = 777;
        cpu.set_context(&other);
        assert_eq!(cpu.regs()[8], 777);
        cpu.set_context(&saved);
        assert_eq!(cpu.regs()[8], saved.regs[8]);
    }

    #[test]
    fn fetch_fault_corrupts_one_word() {
        let image = assemble(
            r#"
            main:   li   r8, 1
                    li   r9, 2
                    add  r10, r8, r9
                    halt
            "#,
        )
        .unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        // Corrupt the add (3rd fetched word) into an undecodable word:
        // it executes as a NOP, so r10 stays 0.
        cpu.set_fetch_fault(Some(FetchFault::xor(2, 0x7C00_0000)));
        assert_eq!(cpu.run(&mut NullCoProcessor, 100_000), StepEvent::Halted);
        assert_eq!(cpu.regs()[10], 0);
        assert_eq!(cpu.regs()[8], 1);
    }

    #[test]
    fn scheduled_reg_fault_flips_architectural_state() {
        // A countdown loop long enough that cycle 200 lands mid-loop; the
        // accumulator (r10) is flipped and the corruption persists to the
        // final state (an SDC in campaign terms).
        let image = assemble(
            r#"
            main:   li   r8, 200
                    li   r10, 0
            loop:   addi r10, r10, 1
                    addi r8, r8, -1
                    bne  r8, r0, loop
                    halt
            "#,
        )
        .unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        cpu.schedule_fault(SoftFault::Reg {
            at_cycle: 200,
            reg: 10,
            xor_mask: 1 << 20,
        });
        assert_eq!(cpu.run(&mut NullCoProcessor, 1_000_000), StepEvent::Halted);
        assert_eq!(cpu.stats().soft_faults_applied, 1);
        assert_eq!(cpu.regs()[10], 200 | (1 << 20));
    }

    #[test]
    fn scheduled_r0_fault_is_masked() {
        let image = assemble("main: li r8, 7\nhalt").unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        cpu.schedule_fault(SoftFault::Reg {
            at_cycle: 0,
            reg: 0,
            xor_mask: 0xFFFF_FFFF,
        });
        assert_eq!(cpu.run(&mut NullCoProcessor, 100_000), StepEvent::Halted);
        assert_eq!(cpu.stats().soft_faults_applied, 1);
        assert_eq!(cpu.regs()[0], 0);
        assert_eq!(cpu.regs()[8], 7);
    }

    #[test]
    fn scheduled_mem_fault_corrupts_data_word() {
        // The load at the end of the loop re-reads the word after the
        // cycle-300 flip has landed in memory.
        let image = assemble(
            r#"
            main:   la   r9, buf
                    li   r8, 400
            loop:   addi r8, r8, -1
                    bne  r8, r0, loop
                    lw   r10, 0(r9)
                    halt
                    .data
            buf:    .word 0x0F0F0F0F
            "#,
        )
        .unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        let buf = image.symbol("buf").unwrap();
        cpu.schedule_fault(SoftFault::Mem {
            at_cycle: 300,
            addr: buf,
            xor_mask: 0x8000_0000,
        });
        assert_eq!(cpu.run(&mut NullCoProcessor, 1_000_000), StepEvent::Halted);
        assert_eq!(cpu.regs()[10], 0x8F0F_0F0F);
    }

    #[test]
    fn injected_checks_counted_but_not_program_instructions() {
        let image = assemble(
            r#"
            main:   li   r8, 0
                    li   r9, 10
            loop:   addi r8, r8, 1
                    bne  r8, r9, loop
                    halt
            "#,
        )
        .unwrap();
        let mut base = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        base.load_image(&image);
        base.run(&mut NullCoProcessor, 1_000_000);
        let mut checked = Pipeline::new(
            PipelineConfig {
                check_policy: crate::CheckPolicy::ControlFlow,
                ..PipelineConfig::default()
            },
            MemorySystem::new(MemConfig::baseline()),
        );
        checked.load_image(&image);
        checked.run(&mut NullCoProcessor, 1_000_000);
        assert_eq!(
            base.stats().committed_program(),
            checked.stats().committed_program()
        );
        assert!(checked.stats().committed_injected_chk >= 10);
        assert_eq!(base.regs()[8], checked.regs()[8]);
    }

    #[test]
    fn rob_never_exceeds_capacity() {
        // A long dependency-free run tries to fill the ROB.
        let mut src = String::from("main: li r8, 0\n");
        for i in 0..200 {
            src.push_str(&format!("addi r{}, r0, {}\n", 9 + (i % 20), i));
        }
        src.push_str("halt\n");
        let image = assemble(&src).unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        let mut cp = NullCoProcessor;
        loop {
            assert!(cpu.rob.len() <= cpu.config.rob_size);
            if cpu.step(&mut cp).is_some() {
                break;
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let src = r#"
            main:   li   r8, 0
                    li   r9, 40
            loop:   andi r10, r8, 3
                    add  r11, r11, r10
                    addi r8, r8, 1
                    bne  r8, r9, loop
                    halt
        "#;
        let a = run_program(src);
        let b = run_program(src);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.regs(), b.regs());
    }

    #[test]
    fn freeze_delays_progress() {
        let image = assemble("main: li r8, 1\nhalt").unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        cpu.load_image(&image);
        cpu.freeze_for(500);
        assert_eq!(cpu.run(&mut NullCoProcessor, 100_000), StepEvent::Halted);
        assert!(cpu.stats().cycles > 500);
    }
}
