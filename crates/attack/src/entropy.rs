//! The randomization-entropy study: attack success rate as a function
//! of the MLR re-randomization period.
//!
//! §4.1 of the paper argues that for long-running processes a single
//! load-time randomization decays: every leaked pointer stays valid for
//! the rest of the process lifetime, so the defense is only as strong
//! as its oldest secret. The proposed fix is periodic re-randomization
//! (`rse_sys::rerand`). This study measures that claim end to end with
//! a leak-then-strike attacker:
//!
//! 1. the victim runs a long window of work rounds, each ending at a
//!    syscall safe point where the kernel may re-randomize its secret
//!    segment,
//! 2. at a seed-drawn *leak round* the attacker captures the segment's
//!    current base (a perfect info-leak primitive),
//! 3. at a seed-drawn later *strike round* the attacker writes through
//!    the leaked address, corrupting the segment datum if — and only if
//!    — the segment has not moved since the leak.
//!
//! A static layout (`period = 0`, never re-randomized) loses every
//! time: the leak never goes stale. As the re-randomization period
//! shrinks, the window between leak and strike is ever more likely to
//! contain a move, the stale write lands in the scrubbed old page, and
//! the success rate falls — monotonically, which is exactly what the
//! CI gate on the committed `BENCH_attack.json` asserts.
//!
//! The study runs over a small victim *corpus*,
//! one long-running guest per attack-surface kind — plain pointer
//! chasing (`stack`), GOT-style double indirection (`got`), a
//! branch-dense round (`branch`), and a store/load staging round
//! (`nx`) — so the §4.1 claim is measured per surface, not just on one
//! victim. Every victim runs the same period sweep, and the
//! strict-decrease gate holds **per victim**.

use rse_inject::run_sharded;
use rse_isa::asm::assemble;
use rse_modules::mlr::{Mlr, MlrConfig};
use rse_pipeline::StepEvent;
use rse_support::rng::{fnv1a64, splitmix64};
use rse_sys::rerand::{maybe_rerandomize, RerandPlan};
use rse_sys::{Machine, MachineSpec, OsConfig, OsExit};

/// Work rounds in the victim's window (each ends at a YIELD safe
/// point). Leak and strike rounds are drawn inside this window.
pub const ROUNDS: u32 = 40;

/// The golden datum the victim prints when unmolested: 100 + one bump
/// per round.
pub const GOLDEN_DATUM: i32 = 100 + ROUNDS as i32;

/// Managed-segment length in bytes (two pages).
const SEG_LEN: u32 = 8192;

/// Fuel per drive step — generous; the guest window is tens of
/// thousands of cycles even with every round re-randomized.
const TRIAL_FUEL: u64 = 10_000_000;

/// Trials per sweep point in the committed study.
pub const DEFAULT_TRIALS: u32 = 48;

/// The default period sweep, in cycles, largest first. Tuned
/// empirically to the victim's ~20-cycle round time so the first
/// re-randomization lands progressively earlier in the window across
/// the sweep — the measured success rate then falls strictly at every
/// step; `0` (the static baseline, never re-randomized) is prepended
/// by [`entropy_study_corpus`] itself.
pub const DEFAULT_PERIODS: [u64; 4] = [512, 384, 256, 192];

/// The long-running victim. Every round reloads its secret-segment
/// pointer from a table-registered slot (the §4.1 compiler contract),
/// bumps the segment datum, and yields — the safe point where the
/// kernel may re-randomize. After the window it prints the datum:
/// [`GOLDEN_DATUM`] if no strike landed.
const ENTROPY_SRC: &str = r#"
    main:   li   s0, 40
    round:  la   t0, ptr
            lw   t1, 0(t0)      # reload the (possibly moved) pointer
            lw   t2, 0(t1)      # read the secret datum
            addi t2, t2, 1
            sw   t2, 0(t1)      # bump it
            li   r2, 18         # YIELD: the safe point
            syscall
            addi s0, s0, -1
            bne  s0, r0, round
            la   t0, ptr
            lw   t1, 0(t0)
            lw   r4, 0(t1)
            li   r2, 2          # print the datum
            syscall
            halt

            .data
            .align 4
    ptr:    .word seg           # a registered pointer variable
    ptrtab: .word 1, ptr        # the special data section
            .space 4000
            .align 4096
    seg:    .word 100           # the secret segment under study
            .space 8188
"#;

/// GOT-kind victim: the secret pointer is reached through a second
/// level of indirection (a GOT-style slot holding the address of the
/// registered pointer variable), the MLR's §4.1 pointer-table contract
/// exercised one hop deeper. Same window, same golden datum.
const ENTROPY_GOT_SRC: &str = r#"
    main:   li   s0, 40
    round:  la   t0, ptr2
            lw   t3, 0(t0)      # GOT-style slot: address of ptr
            lw   t1, 0(t3)      # the (possibly moved) pointer
            lw   t2, 0(t1)
            addi t2, t2, 1
            sw   t2, 0(t1)      # bump the secret datum
            li   r2, 18         # YIELD: the safe point
            syscall
            addi s0, s0, -1
            bne  s0, r0, round
            la   t0, ptr2
            lw   t3, 0(t0)
            lw   t1, 0(t3)
            lw   r4, 0(t1)
            li   r2, 2          # print the datum
            syscall
            halt

            .data
            .align 4
    ptr:    .word seg           # the registered pointer variable
    ptr2:   .word ptr           # GOT-style second-level slot
    ptrtab: .word 1, ptr        # the special data section
            .space 4000
            .align 4096
    seg:    .word 100
            .space 8188
"#;

/// Branch-kind victim: every round takes a parity-dependent branch arm
/// before touching the secret, so the window is branch-dense like the
/// `branch_*` campaign victims. Same golden datum.
const ENTROPY_BRANCH_SRC: &str = r#"
    main:   li   s0, 40
            li   s1, 0
    round:  addi s1, s1, 1
            andi t4, s1, 1
            beq  t4, r0, evn
            la   t0, ptr        # odd rounds
            b    cont
    evn:    la   t0, ptr        # even rounds
    cont:   lw   t1, 0(t0)
            lw   t2, 0(t1)
            addi t2, t2, 1
            sw   t2, 0(t1)      # bump the secret datum
            li   r2, 18         # YIELD: the safe point
            syscall
            addi s0, s0, -1
            bne  s0, r0, round
            la   t0, ptr
            lw   t1, 0(t0)
            lw   r4, 0(t1)
            li   r2, 2          # print the datum
            syscall
            halt

            .data
            .align 4
    ptr:    .word seg
    ptrtab: .word 1, ptr
            .space 4000
            .align 4096
    seg:    .word 100
            .space 8188
"#;

/// NX-kind victim: every round stages a scratch word into the secret
/// segment and reads it back (the writable-staging pattern of the
/// `nx_*` campaign victims) before bumping the datum. Same golden
/// datum.
const ENTROPY_NX_SRC: &str = r#"
    main:   li   s0, 40
    round:  la   t0, ptr
            lw   t1, 0(t0)      # reload the (possibly moved) pointer
            lw   t2, 0(t1)
            addi t2, t2, 1
            sw   t2, 0(t1)      # bump the secret datum
            sw   t2, 4(t1)      # stage a scratch copy ...
            lw   t5, 4(t1)      # ... and read it back
            li   r2, 18         # YIELD: the safe point
            syscall
            addi s0, s0, -1
            bne  s0, r0, round
            la   t0, ptr
            lw   t1, 0(t0)
            lw   r4, 0(t1)
            li   r2, 2          # print the datum
            syscall
            halt

            .data
            .align 4
    ptr:    .word seg
    ptrtab: .word 1, ptr
            .space 4000
            .align 4096
    seg:    .word 100
            .space 8188
"#;

/// One victim of the entropy corpus: a surface kind and its guest
/// source.
#[derive(Debug, Clone, Copy)]
struct EntropyVictim {
    /// Surface kind (JSON `victim` field; stable).
    kind: &'static str,
    source: &'static str,
}

const ENTROPY_VICTIMS: [EntropyVictim; 4] = [
    EntropyVictim {
        kind: "stack",
        source: ENTROPY_SRC,
    },
    EntropyVictim {
        kind: "got",
        source: ENTROPY_GOT_SRC,
    },
    EntropyVictim {
        kind: "branch",
        source: ENTROPY_BRANCH_SRC,
    },
    EntropyVictim {
        kind: "nx",
        source: ENTROPY_NX_SRC,
    },
];

/// One point of the sweep: `successes` of `trials` leak-then-strike
/// attacks corrupted the victim under re-randomization `period`
/// (`period = 0` is the static-layout baseline, never re-randomized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntropyPoint {
    /// Re-randomization period in cycles; `0` = static layout.
    pub period: u64,
    /// Attack trials at this point.
    pub trials: u32,
    /// Trials where the attacker corrupted the final output.
    pub successes: u32,
}

impl EntropyPoint {
    /// Success rate per mille (integer arithmetic only).
    pub fn permille(&self) -> u64 {
        if self.trials == 0 {
            return 0;
        }
        u64::from(self.successes) * 1000 / u64::from(self.trials)
    }
}

/// Derives the per-trial seed from the study base seed, the sweep
/// period, and the trial index. Pure and stable.
fn trial_seed(base_seed: u64, period: u64, trial: u32) -> u64 {
    let mut s = base_seed ^ fnv1a64(b"attack-entropy");
    splitmix64(&mut s);
    s ^= period.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s);
    s ^= u64::from(trial);
    splitmix64(&mut s)
}

/// The per-trial seed (`trial_seed`) with the victim kind folded in,
/// so every victim of the corpus study draws an independent attack
/// schedule from the same base seed. Pure and stable.
pub fn corpus_trial_seed(base_seed: u64, kind: &str, period: u64, trial: u32) -> u64 {
    trial_seed(base_seed ^ fnv1a64(kind.as_bytes()), period, trial)
}

/// Runs one leak-then-strike trial against the victim assembled from
/// `src`. `period = None` is the static baseline (the segment never
/// moves). Returns `true` when the attacker won: the victim completed
/// but printed a corrupted datum.
fn attacker_wins(src: &str, seed: u64, period: Option<u64>) -> bool {
    let image = assemble(src).expect("entropy guest assembles");
    let seg = image.symbol("seg").expect("seg symbol");
    let ptrtab = image.symbol("ptrtab").expect("ptrtab symbol");
    // The attacker's schedule: leak in the first half of the window,
    // strike a seed-drawn gap later (always inside the window).
    let mut s = seed;
    let leak_round = 1 + (splitmix64(&mut s) % u64::from(ROUNDS / 2)) as u32;
    let gap = 1 + (splitmix64(&mut s) % u64::from(ROUNDS / 2 - 1)) as u32;
    let strike_round = leak_round + gap;
    let spec = MachineSpec {
        os: Some(OsConfig::default()),
        ..MachineSpec::default()
    };
    let mut m = Machine::build(&image, spec);
    let Machine { cpu, engine, os } = &mut m;
    let os = os.as_mut().expect("built with the guest OS");
    let mut mlr = Mlr::new(MlrConfig {
        seed: Some(seed | 1),
        ..MlrConfig::default()
    });
    let mut plan = RerandPlan {
        interval: period.unwrap_or(u64::MAX),
        ptr_table: ptrtab,
        base: seg,
        len: SEG_LEN,
    };
    let mut next_due = period.unwrap_or(u64::MAX);
    let mut leaked: Option<u32> = None;
    let mut round = 0u32;
    let exit = loop {
        match cpu.run(engine, TRIAL_FUEL) {
            StepEvent::Syscall => {
                round += 1;
                if period.is_some() {
                    maybe_rerandomize(cpu, &mut mlr, &mut plan, &mut next_due);
                }
                if round == leak_round {
                    leaked = Some(plan.base);
                }
                if round == strike_round {
                    let base = leaked.expect("leak precedes strike");
                    // The strike: write through the (possibly stale)
                    // leaked address. A moved segment makes this land in
                    // the scrubbed old page — harmless.
                    cpu.mem_mut().memory.write_u32(base, 0x0020_0000);
                }
                if let Some(e) = os.dispatch_pending_syscall(cpu, engine) {
                    break e;
                }
            }
            StepEvent::Halted => break OsExit::Exited { code: 0 },
            other => panic!("entropy guest trapped: {other:?}"),
        }
    };
    assert_eq!(
        exit,
        OsExit::Exited { code: 0 },
        "entropy victim must complete (seed {seed:#x}, period {period:?})"
    );
    os.output != [GOLDEN_DATUM]
}

/// One victim's sweep in the corpus study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VictimStudy {
    /// Surface kind (JSON `victim` field).
    pub kind: &'static str,
    /// The sweep points, static baseline first.
    pub points: Vec<EntropyPoint>,
}

/// Runs the §4.1 study over the whole entropy corpus: for each victim
/// kind, the static baseline followed by `periods` (largest first),
/// `trials` attacks per point. All (victim, period, trial) jobs are
/// sharded flat across `threads` workers; the result is byte-identical
/// at every thread count.
pub fn entropy_study_corpus(
    base_seed: u64,
    trials: u32,
    periods: &[u64],
    threads: usize,
) -> Vec<VictimStudy> {
    let mut sweep: Vec<u64> = vec![0];
    sweep.extend_from_slice(periods);
    let jobs: Vec<(usize, u64, u32)> = (0..ENTROPY_VICTIMS.len())
        .flat_map(|vi| {
            sweep
                .iter()
                .flat_map(move |&p| (0..trials).map(move |t| (vi, p, t)))
        })
        .collect();
    let wins = run_sharded(&jobs, threads, |_, &(vi, period, trial)| {
        let v = &ENTROPY_VICTIMS[vi];
        let seed = corpus_trial_seed(base_seed, v.kind, period, trial);
        attacker_wins(v.source, seed, (period != 0).then_some(period))
    });
    let mut studies = Vec::new();
    let mut cursor = 0usize;
    for v in &ENTROPY_VICTIMS {
        let mut points = Vec::new();
        for &period in &sweep {
            let slice = &wins[cursor..cursor + trials as usize];
            cursor += trials as usize;
            points.push(EntropyPoint {
                period,
                trials,
                successes: slice.iter().filter(|&&w| w).count() as u32,
            });
        }
        studies.push(VictimStudy {
            kind: v.kind,
            points,
        });
    }
    studies
}

/// Whether success counts strictly decrease across the sweep — the CI
/// gate: every shortening of the re-randomization period must buy a
/// measurable drop in attack success.
pub fn strictly_decreasing(points: &[EntropyPoint]) -> bool {
    points.windows(2).all(|w| w[1].successes < w[0].successes)
}

/// Serializes the corpus study as JSON lines, one line per victim kind
/// (integers only — bit-stable, committed as `BENCH_attack.json`; the
/// CI gate checks strict decrease on every line independently).
pub fn corpus_study_json(base_seed: u64, studies: &[VictimStudy]) -> String {
    let mut out = String::new();
    for s in studies {
        let mut body = String::new();
        for (i, p) in s.points.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"period\":{},\"trials\":{},\"successes\":{},\"permille\":{}}}",
                p.period,
                p.trials,
                p.successes,
                p.permille()
            ));
        }
        out.push_str(&format!(
            "{{\"name\":\"attack_entropy\",\"victim\":\"{}\",\"seed\":{},\"rounds\":{},\"points\":[{}]}}\n",
            s.kind, base_seed, ROUNDS, body
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_stable_and_spread() {
        let a = corpus_trial_seed(1, "stack", 512, 0);
        assert_eq!(a, corpus_trial_seed(1, "stack", 512, 0));
        assert_ne!(a, corpus_trial_seed(2, "stack", 512, 0));
        assert_ne!(a, corpus_trial_seed(1, "stack", 2048, 0));
        assert_ne!(a, corpus_trial_seed(1, "stack", 512, 1));
    }

    #[test]
    fn fast_rerandomization_defeats_most_strikes() {
        // The fastest committed period on the `stack` victim: the
        // committed study loses 1 of 48 strikes there.
        let fast = DEFAULT_PERIODS[DEFAULT_PERIODS.len() - 1];
        let wins = (0..8)
            .filter(|&t| {
                let seed = corpus_trial_seed(0xD5B, "stack", fast, t);
                attacker_wins(ENTROPY_SRC, seed, Some(fast))
            })
            .count();
        assert!(wins <= 2, "fast re-randomization barely helped: {wins}/8");
    }

    #[test]
    fn every_corpus_victim_assembles_and_loses_statically() {
        // The static baseline is the corpus invariant: with no
        // re-randomization the leaked base never goes stale, so every
        // victim kind must lose every trial.
        for v in &ENTROPY_VICTIMS {
            for trial in 0..2 {
                let seed = corpus_trial_seed(0xD5B, v.kind, 0, trial);
                assert!(
                    attacker_wins(v.source, seed, None),
                    "static trial {trial} on '{}' should succeed for the attacker",
                    v.kind
                );
            }
        }
    }

    #[test]
    fn corpus_seeds_separate_victims() {
        // Same (period, trial) on different kinds must draw different
        // schedules, or the corpus is four copies of one experiment.
        let kinds: Vec<u64> = ENTROPY_VICTIMS
            .iter()
            .map(|v| corpus_trial_seed(0xD5B, v.kind, 512, 0))
            .collect();
        for i in 0..kinds.len() {
            for j in i + 1..kinds.len() {
                assert_ne!(kinds[i], kinds[j], "victims {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn corpus_study_shards_identically_and_serializes_per_victim() {
        let a = entropy_study_corpus(7, 2, &DEFAULT_PERIODS, 1);
        let b = entropy_study_corpus(7, 2, &DEFAULT_PERIODS, 8);
        assert_eq!(a, b, "sharded corpus study diverged from sequential");
        assert_eq!(a.len(), 4);
        for s in &a {
            assert_eq!(s.points.len(), DEFAULT_PERIODS.len() + 1);
            assert_eq!(s.points[0].period, 0);
            assert_eq!(s.points[0].successes, 2, "static baseline must always lose");
        }
        let json = corpus_study_json(7, &a);
        assert_eq!(json.lines().count(), 4, "one JSON line per victim kind");
        for (line, s) in json.lines().zip(&a) {
            assert!(
                line.contains(&format!("\"victim\":\"{}\"", s.kind)),
                "line missing victim tag: {line}"
            );
        }
    }

    #[test]
    fn corpus_json_is_integer_only_and_ordered() {
        let points = vec![
            EntropyPoint {
                period: 0,
                trials: 4,
                successes: 4,
            },
            EntropyPoint {
                period: 512,
                trials: 4,
                successes: 1,
            },
        ];
        assert!(strictly_decreasing(&points));
        let flat = [points[0], points[0]];
        assert!(!strictly_decreasing(&flat));
        let study = VictimStudy {
            kind: "stack",
            points,
        };
        let json = corpus_study_json(9, &[study]);
        assert_eq!(
            json,
            "{\"name\":\"attack_entropy\",\"victim\":\"stack\",\"seed\":9,\"rounds\":40,\
             \"points\":[{\"period\":0,\"trials\":4,\"successes\":4,\"permille\":1000},\
             {\"period\":512,\"trials\":4,\"successes\":1,\"permille\":250}]}\n"
        );
    }
}
