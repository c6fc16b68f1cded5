//! The Memory Layout Randomization (MLR) module — §4.1 of the paper.
//!
//! Hardware implementation of Transparent Runtime Randomization: at
//! process load time the module randomizes the bases of the
//! position-independent regions (stack, heap, shared libraries) and
//! relocates the position-dependent GOT, rewriting the PLT to match.
//!
//! The randomization task is split between the program loader (software,
//! in `rse-sys`) and this module, exactly as in Figure 3:
//!
//! 1. the loader assembles the *special header* in memory and passes its
//!    location via `MLR_EXEC_HDR`;
//! 2. `MLR_PI_RAND` makes the module read and parse the header via the
//!    MAU, add the clock-cycle-counter randomness to each region base,
//!    and write the randomized bases back to memory right after the
//!    header, where the loader picks them up;
//! 3. `MLR_GOT_OLD`/`MLR_GOT_NEW`/`MLR_COPY_GOT` copy the GOT through the
//!    module's internal GOT buffer to its new random location;
//! 4. `MLR_PLT_INFO`/`MLR_WRITE_PLT` pull the PLT into the PLT buffer,
//!    rewrite every entry's GOT pointer (4 entries per cycle — the four
//!    parallel adders of Figure 3(B)), and write it back.
//!
//! All these CHECKs are blocking: the loader's CHECK instruction does not
//! commit until the hardware operation finishes, which is how Table 5
//! measures the hardware randomization time.

use rse_core::{ChkDispatch, MauOp, MauRequest, Module, ModuleCtx, Verdict};
use rse_isa::chk::ops;
use rse_isa::image::{ExecHeader, HEADER_WORDS};
use rse_isa::layout::PAGE_SIZE;
use rse_isa::ModuleId;
use rse_pipeline::RobId;
use rse_support::rng::splitmix64;
use std::any::Any;

/// Mask applied to the raw random value before page alignment: each
/// region's base moves within a 16 MB range (§4.1).
const RANGE_MASK: u32 = 0x00FF_FFFF;

/// Cycles of register-transfer work to parse the header and compute the
/// randomized bases: the adder tree of Figure 3(B) (§4.1).
const PARSE_CYCLES: u64 = 4;

/// MLR configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlrConfig {
    /// PLT entries rewritten per cycle (the paper uses 4 parallel adders).
    pub plt_rewrite_parallelism: u32,
    /// Optional fixed seed overriding the clock-cycle-counter entropy,
    /// for reproducible experiments.
    pub seed: Option<u64>,
}

impl Default for MlrConfig {
    fn default() -> MlrConfig {
        MlrConfig {
            plt_rewrite_parallelism: 4,
            seed: None,
        }
    }
}

/// The randomized region bases produced by `MLR_PI_RAND`, written to the
/// three words following the special header in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomizedBases {
    /// Randomized shared-library base.
    pub shared_lib: u32,
    /// Randomized stack base (top; offsets apply downward).
    pub stack: u32,
    /// Randomized heap base.
    pub heap: u32,
}

impl RandomizedBases {
    /// Byte offset of the result block relative to the header location.
    pub const RESULT_OFFSET: u32 = (HEADER_WORDS as u32) * 4;
}

/// MLR counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MlrStats {
    /// `MLR_PI_RAND` operations completed.
    pub pi_randomizations: u64,
    /// GOT copies completed.
    pub got_copies: u64,
    /// PLT rewrites completed.
    pub plt_rewrites: u64,
    /// PLT entries rewritten in total.
    pub plt_entries_rewritten: u64,
    /// Runtime re-randomizations performed (§4.1 "Runtime
    /// re-randomization").
    pub rerandomizations: u64,
}

/// The blocking MLR operation in flight. Every operation loads its
/// source region, may compute on it, and stores the result; a memory
/// stage moves on only on the completion that carries its MAU ticket.
#[derive(Debug, Clone, Copy)]
struct Op {
    rob: RobId,
    kind: OpKind,
    stage: Stage,
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    /// `MLR_PI_RAND`: header → randomized bases → stored after the header.
    PiRand,
    /// `MLR_COPY_GOT`: old GOT → GOT buffer → new GOT, with no compute.
    CopyGot,
    /// `MLR_WRITE_PLT`: PLT → rewritten PLT buffer → PLT.
    WritePlt,
}

#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Waiting for the source load with this ticket.
    Load(u64),
    /// Register-transfer work, done at the first tick at or after
    /// `until`, never in the tick that set it.
    Compute { until: u64 },
    /// Waiting for the result store with this ticket.
    Store(u64),
}

/// The Memory Layout Randomization module.
#[derive(Debug)]
pub struct Mlr {
    config: MlrConfig,
    // Figure 3(B) registers, latched by the parameter CHECKs.
    hdr_location: u32,
    hdr_size: u32,
    got_old: u32,
    got_size: u32,
    got_new: u32,
    plt_location: u32,
    plt_size: u32,
    /// Internal GOT buffer (4 KB block in the paper).
    got_buffer: Vec<u8>,
    /// Internal PLT buffer (4 KB block in the paper).
    plt_buffer: Vec<u8>,
    current: Option<Op>,
    header: Option<ExecHeader>,
    /// The most recent randomization result.
    pub last_bases: Option<RandomizedBases>,
    stats: MlrStats,
    rng: u64,
    rng_seeded: bool,
    /// Integrity seal over the Figure 3(B) latched registers, rewritten
    /// at every legitimate latch. The §3.4 self-test recomputes it, so a
    /// soft error flipping a latched address makes the quarantine probe
    /// fail.
    seal: u64,
}

impl Mlr {
    /// Creates an MLR module.
    pub fn new(config: MlrConfig) -> Mlr {
        let mut mlr = Mlr {
            config,
            hdr_location: 0,
            hdr_size: 0,
            got_old: 0,
            got_size: 0,
            got_new: 0,
            plt_location: 0,
            plt_size: 0,
            got_buffer: Vec::new(),
            plt_buffer: Vec::new(),
            current: None,
            header: None,
            last_bases: None,
            stats: MlrStats::default(),
            rng: 0,
            rng_seeded: false,
            seal: 0,
        };
        mlr.reseal();
        mlr
    }

    /// Module counters.
    pub fn stats(&self) -> MlrStats {
        self.stats
    }

    /// Recomputes the integrity seal over the latched registers.
    fn register_seal(&self) -> u64 {
        let regs = [
            self.hdr_location,
            self.hdr_size,
            self.got_old,
            self.got_size,
            self.got_new,
            self.plt_location,
            self.plt_size,
        ];
        let mut bytes = [0u8; 28];
        for (i, r) in regs.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&r.to_le_bytes());
        }
        rse_support::rng::fnv1a64(&bytes)
    }

    fn reseal(&mut self) {
        self.seal = self.register_seal();
    }

    fn next_offset(&mut self, now: u64) -> u32 {
        if !self.rng_seeded {
            // "computes the randomized address values by adding the value
            // from the clock cycle counter" — the cycle counter seeds the
            // entropy (overridable for reproducible experiments).
            self.rng = self.config.seed.unwrap_or(now | 1);
            self.rng_seeded = true;
        }
        let raw = splitmix64(&mut self.rng) as u32;
        // Page-aligned, non-zero offset within the configured range.
        let off = (raw & RANGE_MASK) & !(PAGE_SIZE - 1);
        if off == 0 {
            PAGE_SIZE
        } else {
            off
        }
    }

    /// Picks a fresh randomized base for a live segment — the hardware
    /// half of the paper's §4.1 *runtime re-randomization* proposal. The
    /// kernel stops the process, calls this to obtain the new base, moves
    /// the segment, and rewrites the compiler-registered pointers (see
    /// `rse_sys::rerand`). The new base is page-aligned and guaranteed to
    /// differ from the old one.
    pub fn pick_rerandomized_base(&mut self, old_base: u32, len: u32, now: u64) -> u32 {
        let _ = len;
        self.stats.rerandomizations += 1;
        loop {
            let candidate = old_base
                .wrapping_sub((RANGE_MASK / 2) & !(PAGE_SIZE - 1))
                .wrapping_add(self.next_offset(now));
            if candidate != old_base && candidate.is_multiple_of(PAGE_SIZE) {
                return candidate;
            }
        }
    }

    /// Starts the operation `kind` for the CHECK `rob` by loading its
    /// source region.
    fn start(&mut self, rob: RobId, kind: OpKind, ctx: &mut ModuleCtx<'_>) {
        let (addr, bytes) = match kind {
            OpKind::PiRand => (self.hdr_location, (HEADER_WORDS as u32) * 4),
            OpKind::CopyGot => (self.got_old, self.got_size),
            OpKind::WritePlt => (self.plt_location, self.plt_size),
        };
        let ticket = ctx.mau.submit(MauRequest {
            module: ModuleId::MLR,
            addr,
            op: MauOp::Load { bytes },
        });
        self.current = Some(Op {
            rob,
            kind,
            stage: Stage::Load(ticket),
        });
    }

    fn rewrite_plt_buffer(&mut self) -> u64 {
        // Each PLT entry is two words: a code word and a GOT pointer.
        // Pointers into the old GOT are redirected to the new GOT.
        let mut rewritten = 0u64;
        let entries = self.plt_buffer.len() / 8;
        for e in 0..entries {
            let off = e * 8 + 4;
            let ptr = u32::from_le_bytes(self.plt_buffer[off..off + 4].try_into().expect("4B"));
            if ptr >= self.got_old && ptr < self.got_old.wrapping_add(self.got_size) {
                let new_ptr = ptr - self.got_old + self.got_new;
                self.plt_buffer[off..off + 4].copy_from_slice(&new_ptr.to_le_bytes());
                rewritten += 1;
            }
        }
        self.stats.plt_entries_rewritten += rewritten;
        entries as u64
    }
}

/// Submits the store of an operation's result; its stage waits on the
/// returned ticket.
fn store(ctx: &mut ModuleCtx<'_>, addr: u32, data: Vec<u8>) -> Stage {
    Stage::Store(ctx.mau.submit(MauRequest {
        module: ModuleId::MLR,
        addr,
        op: MauOp::Store { data },
    }))
}

impl Module for Mlr {
    fn id(&self) -> ModuleId {
        ModuleId::MLR
    }

    fn name(&self) -> &'static str {
        "memory-layout-randomization"
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        let [a0, a1] = chk.operands;
        match chk.spec.op {
            ops::SELFTEST => {
                let verdict = self.self_test();
                ctx.complete_check(chk.rob, verdict);
            }
            ops::MLR_EXEC_HDR => {
                self.hdr_location = a0;
                self.hdr_size = a1;
                self.reseal();
                ctx.complete_check(chk.rob, Verdict::Pass);
            }
            ops::MLR_GOT_OLD => {
                self.got_old = a0;
                self.got_size = a1;
                self.reseal();
                ctx.complete_check(chk.rob, Verdict::Pass);
            }
            ops::MLR_GOT_NEW => {
                self.got_new = a0;
                self.reseal();
                ctx.complete_check(chk.rob, Verdict::Pass);
            }
            ops::MLR_PLT_INFO => {
                self.plt_location = a0;
                self.plt_size = a1;
                self.reseal();
                ctx.complete_check(chk.rob, Verdict::Pass);
            }
            ops::MLR_PI_RAND => self.start(chk.rob, OpKind::PiRand, ctx),
            ops::MLR_COPY_GOT => self.start(chk.rob, OpKind::CopyGot, ctx),
            ops::MLR_WRITE_PLT => self.start(chk.rob, OpKind::WritePlt, ctx),
            _ => {
                // Unknown operation: fail the check so software notices.
                ctx.complete_check(chk.rob, Verdict::Fail);
            }
        }
    }

    fn on_squash(&mut self, rob: RobId, _ctx: &mut ModuleCtx<'_>) {
        if self.current.is_some_and(|op| op.rob == rob) {
            self.current = None;
        }
    }

    fn tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        // One completion per cycle. A completion without the current
        // stage's ticket belongs to an operation that was squashed or
        // committed early, and is dropped.
        let completion = ctx.mau.take_completion(ModuleId::MLR);
        let Some(Op { rob, kind, stage }) = self.current else {
            return;
        };
        let stage = match stage {
            Stage::Load(ticket) => {
                let Some(comp) = completion.filter(|c| c.tag == ticket) else {
                    return;
                };
                match kind {
                    OpKind::PiRand => {
                        let words: Vec<u32> = comp
                            .data
                            .chunks_exact(4)
                            .map(|c| u32::from_le_bytes(c.try_into().expect("4B")))
                            .collect();
                        let Ok(h) = ExecHeader::from_words(&words) else {
                            // Malformed header: report an error.
                            self.current = None;
                            ctx.complete_check(rob, Verdict::Fail);
                            return;
                        };
                        self.header = Some(h);
                        Stage::Compute {
                            until: now + PARSE_CYCLES,
                        }
                    }
                    OpKind::CopyGot => {
                        // "copies the GOT entries to the internal GOT
                        // buffer, and then back to the new location".
                        self.got_buffer = comp.data;
                        store(ctx, self.got_new, self.got_buffer.clone())
                    }
                    OpKind::WritePlt => {
                        self.plt_buffer = comp.data;
                        let entries = self.rewrite_plt_buffer();
                        let parallelism = self.config.plt_rewrite_parallelism as u64;
                        Stage::Compute {
                            until: now + entries.div_ceil(parallelism),
                        }
                    }
                }
            }
            Stage::Compute { until } => {
                if now < until {
                    return;
                }
                match kind {
                    OpKind::PiRand => {
                        let h = self.header.expect("header parsed");
                        let bases = RandomizedBases {
                            shared_lib: h.shared_lib_base.wrapping_add(self.next_offset(now)),
                            stack: h.stack_base.wrapping_sub(self.next_offset(now)),
                            heap: h.heap_base.wrapping_add(self.next_offset(now)),
                        };
                        self.last_bases = Some(bases);
                        let mut data = Vec::with_capacity(12);
                        data.extend_from_slice(&bases.shared_lib.to_le_bytes());
                        data.extend_from_slice(&bases.stack.to_le_bytes());
                        data.extend_from_slice(&bases.heap.to_le_bytes());
                        let addr = self.hdr_location + RandomizedBases::RESULT_OFFSET;
                        store(ctx, addr, data)
                    }
                    OpKind::WritePlt => store(ctx, self.plt_location, self.plt_buffer.clone()),
                    OpKind::CopyGot => unreachable!("a GOT copy has no compute stage"),
                }
            }
            Stage::Store(ticket) => {
                if completion.is_none_or(|c| c.tag != ticket) {
                    return;
                }
                match kind {
                    OpKind::PiRand => self.stats.pi_randomizations += 1,
                    OpKind::CopyGot => self.stats.got_copies += 1,
                    OpKind::WritePlt => self.stats.plt_rewrites += 1,
                }
                self.current = None;
                ctx.complete_check(rob, Verdict::Pass);
                return;
            }
        };
        self.current = Some(Op { rob, kind, stage });
    }

    fn self_test(&mut self) -> Verdict {
        if self.register_seal() == self.seal {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    fn corrupt_state(&mut self, seed: u64) -> bool {
        // Flip one bit in a deterministically-picked latched register
        // without resealing; also upset a GOT-buffer byte if one is held.
        let bit = 1u32 << ((seed >> 4) % 32);
        match seed % 7 {
            0 => self.hdr_location ^= bit,
            1 => self.hdr_size ^= bit,
            2 => self.got_old ^= bit,
            3 => self.got_size ^= bit,
            4 => self.got_new ^= bit,
            5 => self.plt_location ^= bit,
            _ => self.plt_size ^= bit,
        }
        if !self.got_buffer.is_empty() {
            let idx = (seed as usize >> 9) % self.got_buffer.len();
            self.got_buffer[idx] ^= 1 << ((seed >> 16) % 8);
        }
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
    use rse_isa::{layout, ChkSpec, Inst};
    use rse_mem::{MemConfig, MemorySystem};
    use rse_pipeline::{
        CoProcessor, CommitGate, DispatchInfo, Pipeline, PipelineConfig, StepEvent,
    };

    fn engine_with_mlr(seed: Option<u64>) -> Engine {
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(Mlr::new(MlrConfig {
            seed,
            ..MlrConfig::default()
        })));
        engine.enable(ModuleId::MLR);
        engine
    }

    /// Guest program performing the Figure 3(A) PI-randomization
    /// handshake: header already placed in `.data` by the "loader".
    const PI_SRC: &str = r#"
        main:   la  r4, header       # a0 = header location
                li  r5, 64           # a1 = header size
                chk mlr, blk, 2, 0   # MLR_EXEC_HDR
                chk mlr, blk, 3, 0   # MLR_PI_RAND
                la  r8, header+64    # results follow the header
                lw  r9, 0(r8)        # randomized shlib base
                lw  r10, 4(r8)       # randomized stack base
                lw  r11, 8(r8)       # randomized heap base
                halt
                .data
                .align 4
        header: .word 0x52534530     # magic "RSE0"
                .word 0x00400000, 4096      # code start/len
                .word 0x10000000, 512, 0    # data start/len, bss
                .word 0x0F000000            # shared lib base
                .word 0x7FFFF000            # stack base
                .word 0x18000000            # heap base
                .word 0, 0, 0, 0            # got/plt
                .word 0x00400000            # entry
                .word 0, 0                  # pad to 16 words
        results:.space 12
    "#;

    fn run_pi(seed: Option<u64>) -> (Pipeline, Engine) {
        let image = assemble(PI_SRC).expect("assembles");
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::with_framework()),
        );
        cpu.load_image(&image);
        let mut engine = engine_with_mlr(seed);
        assert_eq!(cpu.run(&mut engine, 5_000_000), StepEvent::Halted);
        (cpu, engine)
    }

    #[test]
    fn pi_randomization_moves_all_regions() {
        let (cpu, engine) = run_pi(Some(42));
        let shlib = cpu.regs()[9];
        let stack = cpu.regs()[10];
        let heap = cpu.regs()[11];
        assert_ne!(shlib, layout::SHLIB_BASE);
        assert_ne!(stack, layout::STACK_BASE);
        assert_ne!(heap, layout::HEAP_BASE);
        // Offsets are page-aligned and displace in the right direction.
        assert_eq!(
            shlib % layout::PAGE_SIZE,
            layout::SHLIB_BASE % layout::PAGE_SIZE
        );
        assert!(shlib > layout::SHLIB_BASE);
        assert!(stack < layout::STACK_BASE);
        assert!(heap > layout::HEAP_BASE);
        let mlr: &Mlr = engine.module_ref(ModuleId::MLR).unwrap();
        assert_eq!(mlr.stats().pi_randomizations, 1);
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let (a, _) = run_pi(Some(1));
        let (b, _) = run_pi(Some(2));
        assert_ne!(
            (a.regs()[9], a.regs()[10], a.regs()[11]),
            (b.regs()[9], b.regs()[10], b.regs()[11]),
            "two loads must not share a layout"
        );
    }

    #[test]
    fn same_seed_is_reproducible() {
        let (a, _) = run_pi(Some(7));
        let (b, _) = run_pi(Some(7));
        assert_eq!(a.regs()[9], b.regs()[9]);
        assert_eq!(a.regs()[10], b.regs()[10]);
    }

    #[test]
    fn got_copy_and_plt_rewrite() {
        // 4 GOT entries at got_old; a 2-entry PLT pointing into the GOT.
        let src = r#"
        main:   la  r4, got_old
                li  r5, 16
                chk mlr, blk, 4, 0    # MLR_GOT_OLD
                la  r4, got_new
                chk mlr, blk, 5, 0    # MLR_GOT_NEW
                chk mlr, blk, 6, 0    # MLR_COPY_GOT
                la  r4, plt
                li  r5, 16
                chk mlr, blk, 7, 0    # MLR_PLT_INFO
                chk mlr, blk, 8, 0    # MLR_WRITE_PLT
                la  r8, got_new
                lw  r9, 0(r8)         # first copied GOT word
                la  r8, plt
                lw  r10, 4(r8)        # first rewritten PLT pointer
                halt
                .data
                .align 4
        got_old: .word 0x11112222, 0x33334444, 0x55556666, 0x77778888
        got_new: .space 16
        plt:     .word 0x08000000, got_old
                 .word 0x08000000, got_old+8
        "#;
        let image = assemble(src).unwrap();
        let got_old = image.symbol("got_old").unwrap();
        let got_new = image.symbol("got_new").unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::with_framework()),
        );
        cpu.load_image(&image);
        let mut engine = engine_with_mlr(Some(3));
        assert_eq!(cpu.run(&mut engine, 5_000_000), StepEvent::Halted);
        // GOT copied verbatim.
        assert_eq!(cpu.regs()[9], 0x1111_2222);
        // PLT pointer redirected from got_old to got_new.
        assert_eq!(cpu.regs()[10], got_new);
        let mem = cpu.mem();
        let plt = image.symbol("plt").unwrap();
        assert_eq!(mem.memory.read_u32(plt + 12), got_new + 8);
        // Code words untouched.
        assert_eq!(mem.memory.read_u32(plt), 0x0800_0000);
        let mlr: &Mlr = engine.module_ref(ModuleId::MLR).unwrap();
        assert_eq!(mlr.stats().got_copies, 1);
        assert_eq!(mlr.stats().plt_rewrites, 1);
        assert_eq!(mlr.stats().plt_entries_rewritten, 2);
        assert_eq!(
            mem.memory.read_u32(got_old + 12),
            0x7777_8888,
            "old GOT intact"
        );
    }

    #[test]
    fn stale_load_of_a_squashed_operation_does_not_answer_its_successor() {
        let mut mem = MemorySystem::new(MemConfig::with_framework());
        let hdr = layout::DATA_BASE;
        let (got_old, got_new) = (hdr + 0x100, hdr + 0x200);
        for i in 0..HEADER_WORDS as u32 {
            mem.memory.write_u32(hdr + 4 * i, 0xaaaa_aaaa);
        }
        for i in 0..4 {
            mem.memory.write_u32(got_old + 4 * i, 0x1111_1111);
        }
        let mut engine = engine_with_mlr(Some(5));
        let chk = |rob, op, operands| DispatchInfo {
            rob: RobId(rob),
            pc: layout::TEXT_BASE + 4 * rob as u32,
            word: 0,
            inst: Inst::Chk(ChkSpec::new(ModuleId::MLR, true, op, 0)),
            operands,
            wrong_path: false,
            injected: false,
        };
        // Latch the header and both GOT locations, and commit them.
        let mut now = 0;
        for (rob, op, operands) in [
            (0, ops::MLR_EXEC_HDR, [hdr, 64]),
            (1, ops::MLR_GOT_OLD, [got_old, 16]),
            (2, ops::MLR_GOT_NEW, [got_new, 0]),
        ] {
            engine.on_dispatch(now, &chk(rob, op, operands), &mut mem);
            while engine.commit_gate(now, RobId(rob)) != CommitGate::Pass {
                now += 1;
                engine.tick(now, &mut mem);
            }
            engine.on_commit(now, RobId(rob), &mut mem);
        }
        // A PI_RAND is squashed with its header load in flight, and its
        // id goes to a COPY_GOT.
        engine.on_dispatch(now, &chk(3, ops::MLR_PI_RAND, [0, 0]), &mut mem);
        while engine.mau().pending() == 0 {
            now += 1;
            engine.tick(now, &mut mem);
        }
        engine.on_squash(now, RobId(3), &mut mem);
        engine.on_dispatch(now, &chk(3, ops::MLR_COPY_GOT, [0, 0]), &mut mem);
        let mut gate = CommitGate::Stall;
        while gate == CommitGate::Stall && now < 2_000 {
            now += 1;
            engine.tick(now, &mut mem);
            gate = engine.commit_gate(now, RobId(3));
        }
        // The COPY_GOT completes only once its own store has landed,
        // and no stale transfer overwrites the copy afterwards.
        assert_eq!(gate, CommitGate::Pass);
        assert_eq!(mem.memory.read_u32(got_new), 0x1111_1111);
        engine.on_commit(now, RobId(3), &mut mem);
        for _ in 0..500 {
            now += 1;
            engine.tick(now, &mut mem);
        }
        assert_eq!(engine.mau().pending(), 0);
        for i in 0..4 {
            assert_eq!(mem.memory.read_u32(got_new + 4 * i), 0x1111_1111);
        }
    }

    #[test]
    fn bad_header_fails_check_and_recovers_via_quarantine() {
        // Header magic is wrong: MLR_PI_RAND reports an error; the CHECK
        // flush-loops until the watchdog's burst detector quarantines the
        // MLR, whose CHECKs then commit as NOPs so the program finishes.
        let src = r#"
        main:   la  r4, header
                li  r5, 64
                chk mlr, blk, 2, 0
                chk mlr, blk, 3, 0
                li  r8, 1
                halt
                .data
                .align 4
        header: .word 0xBADC0DE
                .space 76
        "#;
        let image = assemble(src).unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::with_framework()),
        );
        cpu.load_image(&image);
        let mut cfg = RseConfig::default();
        cfg.watchdog.burst_threshold = 3;
        let mut engine = Engine::new(cfg);
        engine.install(Box::new(Mlr::new(MlrConfig::default())));
        engine.enable(ModuleId::MLR);
        assert_eq!(cpu.run(&mut engine, 5_000_000), StepEvent::Halted);
        assert_eq!(cpu.regs()[8], 1, "program completes under quarantine");
        assert!(engine.module_health(ModuleId::MLR).is_down());
        assert_eq!(engine.safe_mode(), None);
        assert!(engine.stats().chk_nop_committed >= 1);
    }

    #[test]
    fn selftest_passes_until_state_is_corrupted() {
        let mut mlr = Mlr::new(MlrConfig::default());
        assert_eq!(Module::self_test(&mut mlr), Verdict::Pass);
        assert!(Module::corrupt_state(&mut mlr, 0x1234_5678_9ABC_DEF0));
        assert_eq!(Module::self_test(&mut mlr), Verdict::Fail);
    }
}
