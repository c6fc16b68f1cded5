//! Branch prediction: bimodal counters, a branch target buffer, and a
//! return-address stack.

use rse_isa::{Inst, InstClass};

/// Entries in the bimodal 2-bit-counter table.
const BIMODAL_ENTRIES: usize = 2048;
/// Entries in the direct-mapped branch target buffer.
const BTB_ENTRIES: usize = 512;
/// Return-address-stack depth.
const RAS_DEPTH: usize = 8;

// Both tables are indexed by masking PC bits.
const _: () = assert!(BIMODAL_ENTRIES.is_power_of_two());
const _: () = assert!(BTB_ENTRIES.is_power_of_two());

/// The fetch-stage branch predictor.
///
/// * Conditional branches: 2-bit saturating bimodal counters indexed by
///   PC; the target comes from the instruction itself (direct).
/// * `j`/`jal`: always taken, direct target.
/// * `jr ra`: popped from the return-address stack (pushed by `jal`).
/// * other `jr`/`jalr`: target from the BTB (mispredicts until trained).
#[derive(Debug, Clone)]
pub struct Predictor {
    counters: Vec<u8>,
    btb: Vec<(u32, u32)>, // (branch pc, target); pc==u32::MAX means empty
    ras: Vec<u32>,
    /// Lookups made.
    pub lookups: u64,
    /// Updates applied.
    pub updates: u64,
}

impl Predictor {
    fn counter_index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & (BIMODAL_ENTRIES - 1)
    }

    fn btb_index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & (BTB_ENTRIES - 1)
    }

    /// Predicts the next fetch PC after `inst` at `pc`. Also performs the
    /// fetch-time RAS push for calls.
    pub fn predict_next(&mut self, pc: u32, inst: &Inst) -> u32 {
        self.lookups += 1;
        let fall_through = pc.wrapping_add(4);
        match inst.class() {
            InstClass::Branch => {
                let taken = self.counters[self.counter_index(pc)] >= 2;
                if taken {
                    inst.direct_target(pc).unwrap_or(fall_through)
                } else {
                    fall_through
                }
            }
            InstClass::Jump => match *inst {
                Inst::J { .. } => inst.direct_target(pc).unwrap_or(fall_through),
                Inst::Jal { .. } => {
                    self.push_ras(fall_through);
                    inst.direct_target(pc).unwrap_or(fall_through)
                }
                Inst::Jalr { .. } => {
                    self.push_ras(fall_through);
                    self.btb_lookup(pc).unwrap_or(fall_through)
                }
                Inst::Jr { rs } if rs == rse_isa::Reg::RA => self
                    .ras
                    .pop()
                    .or_else(|| self.btb_lookup(pc))
                    .unwrap_or(fall_through),
                Inst::Jr { .. } => self.btb_lookup(pc).unwrap_or(fall_through),
                _ => fall_through,
            },
            _ => fall_through,
        }
    }

    fn push_ras(&mut self, return_addr: u32) {
        if self.ras.len() == RAS_DEPTH {
            self.ras.remove(0);
        }
        self.ras.push(return_addr);
    }

    fn btb_lookup(&self, pc: u32) -> Option<u32> {
        let (tag, target) = self.btb[self.btb_index(pc)];
        (tag == pc).then_some(target)
    }

    /// Trains the predictor with the resolved outcome of the control-flow
    /// instruction at `pc`: whether it was `taken` and its actual
    /// `target`.
    pub fn update(&mut self, pc: u32, inst: &Inst, taken: bool, target: u32) {
        self.updates += 1;
        if inst.class() == InstClass::Branch {
            let idx = self.counter_index(pc);
            let c = &mut self.counters[idx];
            if taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        if taken && matches!(inst, Inst::Jr { .. } | Inst::Jalr { .. }) {
            let idx = self.btb_index(pc);
            self.btb[idx] = (pc, target);
        }
    }
}

impl Default for Predictor {
    /// A predictor with all counters weakly-not-taken.
    fn default() -> Predictor {
        Predictor {
            counters: vec![1; BIMODAL_ENTRIES],
            btb: vec![(u32::MAX, 0); BTB_ENTRIES],
            ras: Vec::with_capacity(RAS_DEPTH),
            lookups: 0,
            updates: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_isa::Reg;

    #[test]
    fn bimodal_learns_taken_loop() {
        let mut p = Predictor::default();
        let pc = 0x40_0010;
        let b = Inst::Bne {
            rs: Reg::T0,
            rt: Reg::ZERO,
            off: -4,
        };
        let target = b.direct_target(pc).unwrap();
        // Initially weakly-not-taken → predicts fall-through.
        assert_eq!(p.predict_next(pc, &b), pc + 4);
        p.update(pc, &b, true, target);
        // One taken outcome flips the 2-bit counter to weakly-taken.
        assert_eq!(p.predict_next(pc, &b), target);
        // Two not-taken outcomes flip it back.
        p.update(pc, &b, false, pc + 4);
        p.update(pc, &b, false, pc + 4);
        assert_eq!(p.predict_next(pc, &b), pc + 4);
    }

    #[test]
    fn direct_jumps_always_predicted() {
        let mut p = Predictor::default();
        let j = Inst::J {
            target: 0x1000 >> 2,
        };
        assert_eq!(
            p.predict_next(0x40_0000, &j),
            j.direct_target(0x40_0000).unwrap()
        );
    }

    #[test]
    fn ras_predicts_returns() {
        let mut p = Predictor::default();
        let call_pc = 0x40_0100;
        let jal = Inst::Jal {
            target: 0x2000 >> 2,
        };
        p.predict_next(call_pc, &jal); // pushes return address
        let ret = Inst::Jr { rs: Reg::RA };
        assert_eq!(p.predict_next(0x40_2000, &ret), call_pc + 4);
    }

    #[test]
    fn btb_learns_indirect_targets() {
        let mut p = Predictor::default();
        let pc = 0x40_0200;
        let jr = Inst::Jr { rs: Reg::T0 };
        // Untrained: falls through (a mispredict the pipeline will fix).
        assert_eq!(p.predict_next(pc, &jr), pc + 4);
        p.update(pc, &jr, true, 0x40_8000);
        assert_eq!(p.predict_next(pc, &jr), 0x40_8000);
    }

    #[test]
    fn ras_depth_bounded() {
        let mut p = Predictor::default();
        for i in 0..RAS_DEPTH as u32 + 3 {
            p.predict_next(
                0x100 + 8 * i,
                &Inst::Jal {
                    target: 0x4000 >> 2,
                },
            );
        }
        assert_eq!(p.ras.len(), RAS_DEPTH);
    }
}
