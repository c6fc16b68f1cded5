//! The Dynamic Sequence Monitor (DSM) — basic-block signature checking
//! along committed control flow.
//!
//! The ICM (§4.3) compares the binary of each *checked* instruction
//! against a redundant copy — it verifies that the words which execute
//! are the right words, but not that *every* word of a block executed.
//! An in-flight skip (a fetched word replaced by a NOP, InjectV's skip
//! class) commits a perfectly well-formed NOP and sails past the ICM:
//! the one honest blind spot of the single-shot attack taxonomy.
//!
//! The DSM closes it with the signature-monitoring idea of the
//! R5Detect line of work, recast onto the framework's input queues:
//!
//! * At load time the program text is statically parsed into basic
//!   blocks (leaders = entry point, direct branch/jump targets, and the
//!   word after every control transfer). Each block ending in a
//!   control-flow terminator at `pc` gets a signature
//!   `(word_count, xor_of_words)` over the block's instruction words.
//! * At run time the module taps `Commit_Out`: for every committed
//!   instruction it reads the `Fetch_Out` entry (the word *as the
//!   pipeline executed it*, post any in-flight tampering) and folds it
//!   into a running accumulator that re-arms at every block leader.
//! * When a terminator commits, the accumulated `(count, xor)` must
//!   equal the static signature. A skipped word changes the XOR, a
//!   replayed word changes the count, a mid-block hijack enters without
//!   re-arming — all diverge, and the DSM raises a CHK anomaly
//!   (`mismatches` in [`DsmStats`]).
//!
//! Detection is at commit time — architecturally too late for the
//! inline flush-refetch repair the ICM enjoys — so containment is by
//! checkpoint rollback: the campaign engine rolls the guest back and
//! re-executes when the DSM flags a run whose final state diverged.

use rse_core::{ChkDispatch, Module, ModuleCtx, Verdict};
use rse_isa::{Image, Inst, ModuleId};
use rse_pipeline::RobId;
use std::any::Any;
use std::collections::{HashMap, HashSet};

/// The static signature of one basic block, keyed by its terminator pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSig {
    /// Instruction words in the block (leader through terminator).
    pub words: u32,
    /// XOR of the block's instruction words.
    pub xor: u32,
}

/// DSM performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Blocks whose committed signature was checked against the static
    /// signature.
    pub blocks_checked: u64,
    /// Signature mismatches (the CHK anomaly count).
    pub mismatches: u64,
    /// Terminators that committed while the accumulator was disarmed
    /// (control entered the block off any static leader — counted, not
    /// checked, to stay fail-safe on partial blocks).
    pub blocks_unchecked: u64,
}

/// The Dynamic Sequence Monitor.
#[derive(Debug)]
pub struct Dsm {
    /// `terminator pc → signature`, from the static parse.
    sigs: HashMap<u32, BlockSig>,
    /// Terminator pcs in ascending order (deterministic corruption and
    /// seal computation).
    sig_pcs: Vec<u32>,
    /// Block-leader pcs: where the runtime accumulator re-arms.
    leaders: HashSet<u32>,
    armed: bool,
    acc_words: u32,
    acc_xor: u32,
    /// Last committed pc: a same-pc commit while armed is a replayed
    /// duplicate, which must fold into the accumulator rather than
    /// re-arm it (legitimate flow only revisits a pc after its block
    /// closed at a terminator).
    last_pc: Option<u32>,
    stats: DsmStats,
    /// Integrity seal over the signature table, recomputed by the §3.4
    /// self-test so the quarantine probe surfaces a corrupted table.
    seal: u64,
}

impl Default for Dsm {
    fn default() -> Dsm {
        Dsm::new()
    }
}

impl Dsm {
    /// Creates a DSM with an empty signature table. Use
    /// [`Dsm::install_signatures`] after loading the program.
    pub fn new() -> Dsm {
        let mut dsm = Dsm {
            sigs: HashMap::new(),
            sig_pcs: Vec::new(),
            leaders: HashSet::new(),
            armed: false,
            acc_words: 0,
            acc_xor: 0,
            last_pc: None,
            stats: DsmStats::default(),
            seal: 0,
        };
        dsm.seal = dsm.table_seal();
        dsm
    }

    /// The integrity checksum over the signature table.
    fn table_seal(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.sig_pcs.len() * 12);
        for pc in &self.sig_pcs {
            let sig = self.sigs.get(pc).copied().unwrap_or(BlockSig {
                words: u32::MAX,
                xor: u32::MAX,
            });
            bytes.extend_from_slice(&pc.to_le_bytes());
            bytes.extend_from_slice(&sig.words.to_le_bytes());
            bytes.extend_from_slice(&sig.xor.to_le_bytes());
        }
        let mut leaders: Vec<u32> = self.leaders.iter().copied().collect();
        leaders.sort_unstable();
        for l in leaders {
            bytes.extend_from_slice(&l.to_le_bytes());
        }
        rse_support::rng::fnv1a64(&bytes)
    }

    /// Statically parses `image` into basic blocks and installs their
    /// signatures. Leaders are the entry point, every direct
    /// branch/jump target, and the word following each control
    /// transfer; a block's signature covers leader through terminator.
    pub fn install_signatures(&mut self, image: &Image) {
        let mut leaders = HashSet::new();
        leaders.insert(image.text_base);
        leaders.insert(image.entry);
        for (i, &word) in image.text.iter().enumerate() {
            let pc = image.text_base + 4 * i as u32;
            let Ok(inst) = rse_isa::decode(word) else {
                continue;
            };
            if inst.is_control_flow() {
                if let Some(target) = inst.direct_target(pc) {
                    leaders.insert(target);
                }
                leaders.insert(pc.wrapping_add(4));
            }
        }
        let mut sigs = HashMap::new();
        let mut sig_pcs = Vec::new();
        let (mut words, mut xor) = (0u32, 0u32);
        for (i, &word) in image.text.iter().enumerate() {
            let pc = image.text_base + 4 * i as u32;
            if leaders.contains(&pc) {
                words = 0;
                xor = 0;
            }
            words += 1;
            xor ^= word;
            let Ok(inst) = rse_isa::decode(word) else {
                continue;
            };
            if inst.is_control_flow() || matches!(inst, Inst::Halt) {
                sigs.insert(pc, BlockSig { words, xor });
                sig_pcs.push(pc);
            }
        }
        self.sigs = sigs;
        self.sig_pcs = sig_pcs;
        self.leaders = leaders;
        self.armed = false;
        self.acc_words = 0;
        self.acc_xor = 0;
        self.last_pc = None;
        self.seal = self.table_seal();
    }

    /// Number of signed basic blocks.
    pub fn table_len(&self) -> usize {
        self.sig_pcs.len()
    }

    /// The static signature recorded for the terminator at `pc`.
    pub fn sig_of(&self, pc: u32) -> Option<BlockSig> {
        self.sigs.get(&pc).copied()
    }

    /// Module counters.
    pub fn stats(&self) -> DsmStats {
        self.stats
    }
}

impl Module for Dsm {
    fn id(&self) -> ModuleId {
        ModuleId::DSM
    }

    fn name(&self) -> &'static str {
        "dynamic-sequence-monitor"
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        if chk.spec.op == rse_isa::chk::ops::SELFTEST {
            let verdict = self.self_test();
            ctx.complete_check(chk.rob, verdict);
        }
    }

    fn on_commit(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        if self.sigs.is_empty() {
            return;
        }
        let Some(entry) = ctx.ioq.fetched(rob) else {
            return;
        };
        let (pc, word) = (entry.pc, entry.word);
        let duplicate = self.armed && self.last_pc == Some(pc);
        if self.leaders.contains(&pc) && !duplicate {
            self.armed = true;
            self.acc_words = 0;
            self.acc_xor = 0;
        }
        self.last_pc = Some(pc);
        if self.armed {
            self.acc_words += 1;
            self.acc_xor ^= word;
        }
        if let Some(sig) = self.sigs.get(&pc) {
            if self.armed {
                self.stats.blocks_checked += 1;
                if sig.words != self.acc_words || sig.xor != self.acc_xor {
                    self.stats.mismatches += 1;
                }
            } else {
                self.stats.blocks_unchecked += 1;
            }
            // Re-arm at the next committed leader (the fall-through word
            // and every direct target are leaders by construction).
            self.armed = false;
        }
    }

    fn self_test(&mut self) -> Verdict {
        let consistent = self.sig_pcs.len() == self.sigs.len()
            && self.sig_pcs.iter().all(|pc| self.sigs.contains_key(pc));
        if consistent && self.table_seal() == self.seal {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    fn corrupt_state(&mut self, seed: u64) -> bool {
        // Flip one bit of a deterministically-picked signature (the
        // signature RAM) without updating the seal.
        if !self.sig_pcs.is_empty() {
            let pc = self.sig_pcs[(seed as usize) % self.sig_pcs.len()];
            if let Some(sig) = self.sigs.get_mut(&pc) {
                let bit = ((seed >> 8) % 32) as u32;
                if (seed >> 16) & 1 == 0 {
                    sig.xor ^= 1 << bit;
                } else {
                    sig.words ^= 1 << bit;
                }
                return true;
            }
        }
        // Empty table: corrupt the seal itself (a register upset).
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
    use rse_pipeline::{FetchFault, FetchTamper, Pipeline, PipelineConfig, StepEvent};

    const LOOP_SRC: &str = r#"
        main:   li r8, 0
                li r9, 20
        loop:   addi r8, r8, 1
                bne r8, r9, loop
                halt
    "#;

    fn dsm_pipeline(src: &str) -> (Pipeline, Engine) {
        let image = assemble(src).expect("assembles");
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::with_framework()),
        );
        cpu.load_image(&image);
        let mut dsm = Dsm::new();
        dsm.install_signatures(&image);
        let mut engine = Engine::new(RseConfig::default());
        engine.install(Box::new(dsm));
        engine.enable(ModuleId::DSM);
        (cpu, engine)
    }

    #[test]
    fn static_signatures_cover_every_terminator() {
        let image = assemble(LOOP_SRC).unwrap();
        let mut dsm = Dsm::new();
        dsm.install_signatures(&image);
        // Two terminators: the bne and the halt.
        assert_eq!(dsm.table_len(), 2);
        let bne_pc = image.text_base + 3 * 4;
        // The loop block is `addi; bne`: two words, XOR of the two.
        let sig = dsm.sig_of(bne_pc).unwrap();
        assert_eq!(sig.words, 2);
        assert_eq!(sig.xor, image.text[2] ^ image.text[3]);
    }

    #[test]
    fn clean_program_checks_every_block_without_anomaly() {
        let (mut cpu, mut engine) = dsm_pipeline(LOOP_SRC);
        assert_eq!(cpu.run(&mut engine, 2_000_000), StepEvent::Halted);
        assert_eq!(cpu.regs()[8], 20);
        let dsm: &Dsm = engine.module_ref(ModuleId::DSM).unwrap();
        assert!(dsm.stats().blocks_checked >= 20, "{:?}", dsm.stats());
        assert_eq!(dsm.stats().mismatches, 0);
    }

    #[test]
    fn in_flight_skip_breaks_the_block_signature() {
        let (mut cpu, mut engine) = dsm_pipeline(LOOP_SRC);
        // NOP the first fetch of the loop-body addi: the ICM's word
        // check would pass (a NOP is a well-formed word) but the block
        // XOR at the bne no longer matches.
        cpu.set_fetch_fault(Some(FetchFault {
            index: 2,
            tamper: FetchTamper::Nop,
        }));
        assert_eq!(cpu.run(&mut engine, 2_000_000), StepEvent::Halted);
        let dsm: &Dsm = engine.module_ref(ModuleId::DSM).unwrap();
        assert!(dsm.stats().mismatches >= 1, "{:?}", dsm.stats());
    }

    #[test]
    fn in_flight_replay_breaks_the_block_word_count() {
        let (mut cpu, mut engine) = dsm_pipeline(LOOP_SRC);
        cpu.set_fetch_fault(Some(FetchFault {
            index: 2,
            tamper: FetchTamper::Replay,
        }));
        let _ = cpu.run(&mut engine, 2_000_000);
        let dsm: &Dsm = engine.module_ref(ModuleId::DSM).unwrap();
        assert!(dsm.stats().mismatches >= 1, "{:?}", dsm.stats());
    }

    #[test]
    fn selftest_passes_until_table_is_corrupted() {
        let image = assemble(LOOP_SRC).unwrap();
        let mut dsm = Dsm::new();
        dsm.install_signatures(&image);
        assert_eq!(Module::self_test(&mut dsm), Verdict::Pass);
        assert!(Module::corrupt_state(&mut dsm, 42));
        assert_eq!(Module::self_test(&mut dsm), Verdict::Fail);
        // Re-installing the table reseals it (repair path).
        dsm.install_signatures(&image);
        assert_eq!(Module::self_test(&mut dsm), Verdict::Pass);
    }
}
