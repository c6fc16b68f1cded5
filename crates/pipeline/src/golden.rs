//! A golden-model interpreter: executes the guest ISA one instruction at
//! a time, in order, with no timing model. Used as the reference in
//! differential tests against the out-of-order pipeline — any
//! architectural divergence (registers, memory, halt point) is a
//! speculation/forwarding/recovery bug in the pipeline — and wherever a
//! fault-free run needs only architectural results, such as
//! [`syscall_quanta`].

use crate::exec::{branch_taken, exec_alu};
use rse_isa::{decode, layout, Image, Inst, InstClass, Reg};
use rse_mem::SparseMemory;

/// Why the interpreter stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenEvent {
    /// A `halt` executed.
    Halted,
    /// A `syscall` executed (registers hold the arguments); resume by
    /// calling [`Golden::resume`].
    Syscall,
    /// The instruction budget ran out.
    OutOfFuel,
}

/// The golden in-order interpreter.
#[derive(Debug, Clone)]
pub struct Golden {
    /// Architectural registers.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Functional memory.
    pub mem: SparseMemory,
    /// Instructions executed.
    pub executed: u64,
    halted: bool,
    text_base: u32,
    /// Decode cache over the text segment: `(raw word, decoded)` per
    /// word slot. Validated against the actual memory word on every
    /// fetch, so it can never serve stale decodes — it only skips the
    /// `decode` call, which dominates the interpreter loop otherwise.
    /// Memory mutated behind the interpreter's back (checkpoint
    /// restores, injected text faults) is therefore still fetched
    /// correctly.
    icache: Vec<(u32, Inst)>,
}

impl Golden {
    /// Creates an interpreter with `image` loaded, mirroring
    /// `Pipeline::load_image`'s initial state.
    pub fn new(image: &Image) -> Golden {
        let mut mem = SparseMemory::new();
        for (i, &word) in image.text.iter().enumerate() {
            mem.write_u32(image.text_base + 4 * i as u32, word);
        }
        mem.write_bytes(image.data_base, &image.data);
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = layout::STACK_BASE - 16;
        Golden {
            regs,
            pc: image.entry,
            mem,
            executed: 0,
            halted: false,
            text_base: image.text_base,
            icache: image
                .text
                .iter()
                .map(|&w| (w, decode(w).unwrap_or(Inst::Nop)))
                .collect(),
        }
    }

    /// Whether a `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Resumes after a syscall, optionally redirecting.
    pub fn resume(&mut self, pc: Option<u32>) {
        if let Some(pc) = pc {
            self.pc = pc;
        }
    }

    /// Writes a register (e.g. a syscall result), honoring the zero wire.
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        if !reg.is_zero() {
            self.regs[reg.index()] = value;
        }
    }

    fn read(&self, reg: Option<Reg>) -> u32 {
        reg.map_or(0, |r| self.regs[r.index()])
    }

    /// Executes until halt, syscall, or `fuel` more instructions.
    ///
    /// Equivalent to [`Golden::run_until`]`(self.executed + fuel)`: the
    /// budget is anchored to the cumulative instruction counter, so a
    /// run paused at a syscall and resumed with the *remaining* fuel
    /// stops at exactly the same instruction as an uninterrupted run.
    /// Callers that pause and resume should prefer `run_until` with an
    /// absolute deadline — it makes the bookkeeping impossible to get
    /// wrong.
    pub fn run(&mut self, fuel: u64) -> GoldenEvent {
        self.run_until(self.executed.saturating_add(fuel))
    }

    /// Executes until halt, syscall, or until the cumulative executed
    /// instruction count reaches `deadline` (an *absolute* point on the
    /// [`Golden::executed`] clock, mirroring how `Pipeline::run`'s
    /// deadline is absolute on the cycle clock). Pausing at a syscall
    /// consumes no budget beyond the syscall instruction itself:
    /// resuming and calling `run_until` with the same deadline lands on
    /// exactly the same final instruction as a never-paused run.
    pub fn run_until(&mut self, deadline: u64) -> GoldenEvent {
        if self.halted {
            return GoldenEvent::Halted;
        }
        while self.executed < deadline {
            let word = self.mem.read_u32(self.pc);
            // Fetch through the decode cache when the PC lands on a text
            // slot; the word comparison keeps it exact under any memory
            // mutation (and any slot aliasing from unaligned PCs).
            let slot = (self.pc.wrapping_sub(self.text_base) / 4) as usize;
            let inst = match self.icache.get_mut(slot) {
                Some(entry) if self.pc.wrapping_sub(self.text_base).is_multiple_of(4) => {
                    if entry.0 != word {
                        *entry = (word, decode(word).unwrap_or(Inst::Nop));
                    }
                    entry.1
                }
                _ => decode(word).unwrap_or(Inst::Nop),
            };
            self.executed += 1;
            let mut next = self.pc.wrapping_add(4);
            let [s0, s1] = inst.sources();
            let (rs, rt) = (self.read(s0), self.read(s1));
            match inst.class() {
                InstClass::IntAlu | InstClass::MulDiv => {
                    if let (Some(v), Some(d)) = (exec_alu(&inst, rs, rt), inst.dest()) {
                        self.regs[d.index()] = v;
                    }
                }
                InstClass::Load => {
                    let addr = rs.wrapping_add(mem_offset(&inst));
                    let v = match inst {
                        Inst::Lw { .. } => self.mem.read_u32(addr),
                        Inst::Lh { .. } => self.mem.read_u16(addr) as i16 as i32 as u32,
                        Inst::Lhu { .. } => self.mem.read_u16(addr) as u32,
                        Inst::Lb { .. } => self.mem.read_u8(addr) as i8 as i32 as u32,
                        Inst::Lbu { .. } => self.mem.read_u8(addr) as u32,
                        _ => 0,
                    };
                    if let Some(d) = inst.dest() {
                        self.regs[d.index()] = v;
                    }
                }
                InstClass::Store => {
                    let addr = rs.wrapping_add(mem_offset(&inst));
                    match inst {
                        Inst::Sb { .. } => self.mem.write_u8(addr, rt as u8),
                        Inst::Sh { .. } => self.mem.write_u16(addr, rt as u16),
                        _ => self.mem.write_u32(addr, rt),
                    }
                }
                InstClass::Branch => {
                    if branch_taken(&inst, rs, rt).unwrap_or(false) {
                        next = inst.direct_target(self.pc).unwrap_or(next);
                    }
                }
                InstClass::Jump => match inst {
                    Inst::J { .. } => next = inst.direct_target(self.pc).expect("direct"),
                    Inst::Jal { .. } => {
                        self.regs[Reg::RA.index()] = self.pc.wrapping_add(4);
                        next = inst.direct_target(self.pc).expect("direct");
                    }
                    Inst::Jr { .. } => next = rs,
                    Inst::Jalr { rd, .. } => {
                        if !rd.is_zero() {
                            self.regs[rd.index()] = self.pc.wrapping_add(4);
                        }
                        next = rs;
                    }
                    _ => {}
                },
                InstClass::Syscall => {
                    self.pc = next;
                    return GoldenEvent::Syscall;
                }
                InstClass::Halt => {
                    self.halted = true;
                    return GoldenEvent::Halted;
                }
                InstClass::Nop | InstClass::Chk => {}
            }
            self.pc = next;
        }
        GoldenEvent::OutOfFuel
    }
}

/// Measures the guest-progress cost of each syscall-delimited span of
/// `image`: runs it on the interpreter, resumes every syscall with no
/// register writes, and returns, for each syscall in order, the
/// instructions executed since the previous one (the syscall included),
/// until the guest halts or `max_events` syscalls have fired.
///
/// For a guest that issues one marker syscall per unit of work (the
/// fleet chaos campaigns' request-loop witness), entry *i* is the
/// measured progress quantum of work item *i*. Deterministic: same
/// image, same quanta.
pub fn syscall_quanta(image: &Image, max_events: usize) -> Vec<u64> {
    let mut g = Golden::new(image);
    let mut quanta = Vec::new();
    let mut last = 0;
    while quanta.len() < max_events && g.run_until(u64::MAX) == GoldenEvent::Syscall {
        quanta.push(g.executed - last);
        last = g.executed;
        g.resume(None);
    }
    quanta
}

fn mem_offset(inst: &Inst) -> u32 {
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
    use rse_isa::asm::assemble;

    #[test]
    fn golden_runs_a_loop() {
        let image =
            assemble("main: li r8, 0\nli r9, 10\nloop: addi r8, r8, 1\nbne r8, r9, loop\nhalt")
                .unwrap();
        let mut g = Golden::new(&image);
        assert_eq!(g.run(1_000_000), GoldenEvent::Halted);
        assert_eq!(g.regs[8], 10);
        assert_eq!(g.executed, 2 + 20 + 1);
    }

    #[test]
    fn golden_pauses_at_syscalls() {
        let image = assemble("main: li r2, 7\nsyscall\nmove r10, r2\nhalt").unwrap();
        let mut g = Golden::new(&image);
        assert_eq!(g.run(100), GoldenEvent::Syscall);
        assert_eq!(g.regs[2], 7);
        g.set_reg(Reg::V0, 55);
        g.resume(None);
        assert_eq!(g.run(100), GoldenEvent::Halted);
        assert_eq!(g.regs[10], 55);
    }

    /// A paused-and-resumed run must consume exactly the same fuel as an
    /// uninterrupted one: `run_until` anchors the budget to the absolute
    /// `executed` clock, so syscall pauses grant no extra instructions.
    #[test]
    fn fuel_accounting_is_exact_across_syscall_pauses() {
        // Three syscalls interleaved with ALU work, then a loop.
        let src = "main: li r8, 1\nsyscall\naddi r8, r8, 1\nsyscall\naddi r8, r8, 1\nsyscall\n\
                   li r9, 6\nloop: addi r8, r8, 1\nbne r8, r9, loop\nhalt";
        let image = assemble(src).unwrap();
        // Uninterrupted equivalent: count every instruction to the halt.
        let mut free = Golden::new(&image);
        while free.run(u64::MAX) == GoldenEvent::Syscall {
            free.resume(None);
        }
        let total = free.executed;
        assert!(free.is_halted());
        // For every absolute deadline, the paused-and-resumed run must
        // stop at exactly the same instruction count as the free run.
        for deadline in 0..=total {
            let mut g = Golden::new(&image);
            loop {
                match g.run_until(deadline) {
                    GoldenEvent::Syscall => g.resume(None),
                    GoldenEvent::Halted => break,
                    GoldenEvent::OutOfFuel => break,
                }
            }
            let expected = deadline.min(total);
            assert_eq!(
                g.executed, expected,
                "deadline {deadline}: paused run consumed {} instructions, want {expected}",
                g.executed
            );
            assert_eq!(g.is_halted(), deadline >= total);
        }
        // Relative fuel stays exact too when the caller deducts what a
        // paused segment consumed (run delegates to run_until).
        let mut g = Golden::new(&image);
        let mut fuel = total;
        loop {
            let before = g.executed;
            match g.run(fuel) {
                GoldenEvent::Syscall => {
                    fuel -= g.executed - before;
                    g.resume(None);
                }
                _ => break,
            }
        }
        assert_eq!(g.executed, total);
        assert!(g.is_halted());
    }

    #[test]
    fn syscall_quanta_measures_each_span() {
        // Three fixed-length compute spans, each closed by a syscall,
        // then a tail the probe never charges to a quantum.
        let src = "main: li r8, 0\nli r9, 3\n\
             outer: li r10, 0\nli r12, 40\n\
             inner: addi r10, r10, 1\nbne r10, r12, inner\n\
             li r2, 18\nsyscall\naddi r8, r8, 1\nbne r8, r9, outer\nhalt";
        let image = assemble(src).unwrap();
        let q = syscall_quanta(&image, 64);
        assert_eq!(q.len(), 3);
        assert!(q[0] > 0);
        // Spans 1 and 2 are identical instruction sequences; span 0 adds
        // the one-time prologue.
        assert_eq!(q[1], q[2]);
        assert!(q[0] >= q[1]);
        // Replays are deterministic, and max_events truncates.
        let again = syscall_quanta(&image, 2);
        assert_eq!(again, q[..2]);
    }

    #[test]
    fn golden_out_of_fuel() {
        let image = assemble("main: b main").unwrap();
        let mut g = Golden::new(&image);
        assert_eq!(g.run(50), GoldenEvent::OutOfFuel);
        assert_eq!(g.executed, 50);
    }
}
