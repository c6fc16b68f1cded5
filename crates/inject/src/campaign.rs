//! The campaign runner: golden reference execution, armed trials,
//! outcome classification, and the checkpoint-recovery path.
//!
//! Per run the engine:
//!
//! 1. executes (or reuses) the **golden reference** for the workload and
//!    derives the [`RunProfile`] the sampler scales to,
//! 2. runs one [`Trial`] through [`run_trial`]: a freshly built machine
//!    ([`Machine`]), the sampled faults armed, and a run under a cycle
//!    budget,
//! 3. classifies the end state against the golden result — `Masked`,
//!    `SDC`, `DetectedByModule`, `WatchdogTimeout`, `CrashTrap`, `Hang`,
//! 4. when a detection fired but the architectural result diverged,
//!    exercises the **recovery path** through [`rerun`]: roll back to
//!    the pre-run image by re-executing on a freshly built machine,
//!    which holds exactly the pre-run pages, the entry context and
//!    clean caches; a re-run that reaches the golden digest is recorded
//!    as `recovered:checkpoint-rollback`, anything else as a safe-mode
//!    halt with the recorded cause.
//!
//! The adversarial campaign engine (`rse-attack`) drives every attacked
//! run through the same [`run_trial`] and every rollback through the same
//! [`rerun`]; it maps the same [`Trial`] facts to its own outcome names,
//! and shares [`run_cells`] for sharding.
//!
//! The DDT workload delegates recovery to the guest OS (§4.2.2): the
//! crash of the auditing worker triggers the dependency-directed
//! rollback, and the record is judged by the main thread's final report.

use crate::fault::{FaultModel, FaultPlan, RunProfile};
use crate::outcome::{retry_mechanism, Outcome, RecoveryStatus, RunRecord};
use crate::snapshot::Fnv;
use crate::workload::{by_name, corpus, Harness, Workload};
use rse_core::{Engine, RseConfig, WatchdogConfig};
use rse_isa::asm::assemble;
use rse_isa::layout::page_base;
use rse_isa::{Image, ModuleId};
use rse_mem::SparseMemory;
use rse_modules::ahbm::AhbmConfig;
use rse_modules::ddt::DdtConfig;
use rse_modules::dsm::Dsm;
use rse_modules::icm::{Icm, IcmConfig};
use rse_modules::mlr::MlrConfig;
use rse_pipeline::{CheckPolicy, Pipeline};
use rse_support::rng::{fnv1a64, splitmix64};
use rse_sys::checkpoint::{Checkpoint, CheckpointConfig, CheckpointStore};
use rse_sys::{Machine, MachineSpec, ModuleSpec, OsConfig, OsExit};
use std::collections::BTreeMap;

/// Cycle budget for golden reference runs.
const REF_BUDGET: u64 = 50_000_000;

/// What the DDT workload's main thread prints after a successful
/// DDT-driven rollback (see the workload source).
const DDT_RECOVERED_OUTPUT: &[i32] = &[1];

/// Golden-run state a campaign cell classifies against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefState {
    /// Sampler profile measured on the fault-free run.
    pub profile: RunProfile,
    /// Golden result digest (registers + result buffer; bare/ICM
    /// harnesses only).
    pub digest: u64,
    /// Golden guest output (DDT/OS harness only).
    pub output: Vec<i32>,
}

/// Derives the per-run seed from the campaign base seed, the workload
/// name, the fault model, and the run index. Pure and stable: the JSONL
/// `seed` field plus [`FaultPlan::sample`] replays the exact fault.
pub fn derive_seed(base_seed: u64, workload: &str, model: FaultModel, run: u32) -> u64 {
    run_seed(base_seed, workload, model.index(), run)
}

/// The per-run seed derivation both campaign engines share: the base
/// seed mixed with the target's name, the model's index in its catalog,
/// and the run index.
pub fn run_seed(base_seed: u64, name: &str, model_index: u64, run: u32) -> u64 {
    let mut s = base_seed ^ fnv1a64(name.as_bytes());
    splitmix64(&mut s);
    s ^= model_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s);
    s ^= u64::from(run);
    splitmix64(&mut s)
}

/// The machine a workload's [`Harness`] flavor names, with the given
/// watchdog cycle budget. An MLR-guarded flavor randomizes with
/// `mlr_seed`, or with a seed pinned to the workload name when `None`
/// (the golden reference's), so golden references stay reproducible.
fn harness_spec(w: &Workload, cycle_budget: u64, mlr_seed: Option<u64>) -> MachineSpec {
    // Every module-bearing flavor also carries the MLR and the AHBM.
    // With three installed slots, one quarantined-or-disabled module
    // stays below the half-installed escalation threshold: the campaign
    // then observes genuine per-module containment instead of an
    // immediate global trip.
    let with_bystanders = |primary| {
        vec![
            primary,
            ModuleSpec::Mlr(MlrConfig::default()),
            ModuleSpec::Ahbm(AhbmConfig::default()),
        ]
    };
    let guest_os = Some(OsConfig::default());
    let (check_policy, modules, os) = match w.harness {
        Harness::Bare => (CheckPolicy::None, Vec::new(), None),
        Harness::Dsm => (CheckPolicy::None, with_bystanders(ModuleSpec::Dsm), None),
        Harness::Icm => (
            CheckPolicy::ControlFlow,
            with_bystanders(ModuleSpec::Icm(IcmConfig::default())),
            None,
        ),
        Harness::DdtOs | Harness::NxOs => (
            CheckPolicy::None,
            with_bystanders(ModuleSpec::Ddt(DdtConfig::default())),
            guest_os,
        ),
        Harness::MlrOs => {
            // The golden reference pins the layout seed to the workload
            // name; adversarial runs re-seed per run. `| 1` keeps the
            // seed nonzero so `Some(0)` never aliases "no entropy".
            let seed = mlr_seed.unwrap_or_else(|| fnv1a64(w.name.as_bytes())) | 1;
            let mlr = MlrConfig {
                seed: Some(seed),
                ..MlrConfig::default()
            };
            let modules = vec![
                ModuleSpec::Mlr(mlr),
                ModuleSpec::Ahbm(AhbmConfig::default()),
                ModuleSpec::Icm(IcmConfig::default()),
            ];
            (CheckPolicy::None, modules, guest_os)
        }
        // The undefended twin of `MlrOs`: with no MLR installed the
        // blocking `chk mlr` ops pass straight through and the result
        // words stay zero.
        Harness::OsBare => (CheckPolicy::None, Vec::new(), guest_os),
    };
    MachineSpec {
        framework: true,
        check_policy,
        rse: RseConfig {
            watchdog: WatchdogConfig {
                cycle_budget,
                ..WatchdogConfig::default()
            },
            ..RseConfig::default()
        },
        modules,
        os,
    }
}

/// Builds the machine for `w` with the given watchdog cycle budget and
/// the golden reference's MLR layout seed. Public so the fleet
/// simulator (`rse-fleet`) can stamp out one full pipeline+RSE instance
/// per node from the same corpus machinery.
pub fn build_harness(w: &Workload, image: &Image, cycle_budget: u64) -> Machine {
    build_harness_seeded(w, image, cycle_budget, None)
}

/// Builds the machine for `w`, threading a per-run MLR layout seed into
/// [`Harness::MlrOs`] flavors (the adversarial campaigns randomize the
/// victim's layout fresh every run; `None` falls back to the pinned
/// per-workload seed the golden reference uses). The seed is ignored by
/// every other harness flavor.
fn build_harness_seeded(
    w: &Workload,
    image: &Image,
    cycle_budget: u64,
    mlr_seed: Option<u64>,
) -> Machine {
    let mut m = Machine::build(image, harness_spec(w, cycle_budget, mlr_seed));
    if w.harness == Harness::NxOs {
        // §4.2: the DDT marks non-code pages non-executable; the
        // pipeline enforces the range at commit.
        m.cpu
            .set_exec_range(Some((image.text_base, image.text_end())));
    }
    m
}

/// Which checker module, if any, flagged a mismatch this run: the ICM's
/// per-word comparison first, then the DSM's basic-block signature
/// check.
fn detecting_module(engine: &Engine) -> Option<ModuleId> {
    if engine
        .module_ref::<Icm>(ModuleId::ICM)
        .is_some_and(|icm| icm.stats().mismatches > 0)
    {
        return Some(ModuleId::ICM);
    }
    if engine
        .module_ref::<Dsm>(ModuleId::DSM)
        .is_some_and(|dsm| dsm.stats().mismatches > 0)
    {
        return Some(ModuleId::DSM);
    }
    None
}

/// Digest of the workload-declared result set: the named registers plus
/// the result buffer bytes. Public so the fleet simulator can judge a
/// failed-over workload's completion against the same golden digest.
pub fn result_digest(w: &Workload, cpu: &Pipeline, image: &Image) -> u64 {
    result_digest_parts(w, cpu.regs(), &cpu.mem().memory, image)
}

/// [`result_digest`] over raw architectural state: works against the
/// pipeline or the `Golden` interpreter (which exposes the same register
/// file and [`SparseMemory`] as the pipeline).
pub fn result_digest_parts(
    w: &Workload,
    regs: &[u32; 32],
    mem: &SparseMemory,
    image: &Image,
) -> u64 {
    let mut h = Fnv::new();
    for &r in w.result_regs {
        h.write_u32(regs[r]);
    }
    if let Some((sym, len)) = w.result_buf {
        let addr = image.symbol(sym).expect("result_buf symbol exists");
        for i in 0..len {
            h.write_bytes(&[mem.read_u8(addr + i)]);
        }
    }
    h.finish()
}

fn sampler_profile(w: &Workload, image: &Image, cpu: &Pipeline, engine: &Engine) -> RunProfile {
    let data_range = w.data_fault_buf.map(|(sym, len)| {
        let addr = image.symbol(sym).expect("data_fault_buf symbol exists");
        (addr, addr + len)
    });
    let target_module = w.harness.target_module();
    let mau_completions = target_module.map_or(0, |m| engine.mau().finished_for(m));
    RunProfile {
        cycles: cpu.stats().cycles,
        fetched: cpu.stats().fetched,
        chk_routed: engine.stats().chk_routed,
        text_range: (image.text_base, image.text_end()),
        data_range,
        target_module,
        mau_completions,
    }
}

/// Executes the golden reference run for a workload.
///
/// # Panics
///
/// Panics if the fault-free workload does not complete cleanly — that is
/// a corpus bug, not a campaign outcome.
pub fn reference(w: &Workload) -> RefState {
    let image = assemble(w.source).expect("corpus workload assembles");
    let mut b = build_harness(w, &image, u64::MAX);
    let exit = b.run(REF_BUDGET);
    assert_eq!(
        exit,
        OsExit::Exited { code: 0 },
        "golden run of {} must exit cleanly",
        w.name
    );
    let (digest, output) = match &b.os {
        None => {
            assert!(
                b.engine.safe_mode().is_none(),
                "golden run of {} tripped the watchdog",
                w.name
            );
            (result_digest(w, &b.cpu, &image), Vec::new())
        }
        Some(os) => {
            assert_eq!(
                os.stats().recoveries,
                0,
                "golden run of {} must not need recovery",
                w.name
            );
            (0, os.output.clone())
        }
    };
    RefState {
        profile: sampler_profile(w, &image, &b.cpu, &b.engine),
        digest,
        output,
    }
}

/// System-software pre-run checkpoint: every mapped page snapshotted
/// into a [`CheckpointStore`], in sorted-page order.
pub struct PreRunCheckpoints {
    /// The checkpoint store holding every pre-run page image.
    pub store: CheckpointStore,
    /// The snapshotted page ids, sorted.
    pub pages: Vec<u32>,
}

/// Snapshots every mapped page of `mem` into a fresh checkpoint store.
pub fn capture_checkpoints(mem: &SparseMemory) -> PreRunCheckpoints {
    let pages = mem.mapped_page_ids_sorted();
    let mut store = CheckpointStore::new(CheckpointConfig::default());
    for &page in &pages {
        store.store(Checkpoint {
            page,
            data: mem.snapshot_page(page_base(page)),
            saved_at: 0,
            writer: 0,
        });
    }
    PreRunCheckpoints { store, pages }
}

/// The cycle budget a faulted run gets: 4x the golden run plus slack,
/// so hangs are detectable without ever truncating a legitimate run.
pub fn fault_budget(r: &RefState) -> u64 {
    r.profile.cycles.saturating_mul(4) + 200_000
}

/// How a trial's guest ended.
#[derive(Debug)]
pub struct TrialEnd {
    /// The machine's exit ([`Machine::run`]).
    pub exit: OsExit,
    /// What the guest printed under the guest OS (empty on a bare
    /// machine).
    pub output: Vec<i32>,
}

impl TrialEnd {
    /// Runs `m`'s guest for at most `budget` cycles.
    fn run(m: &mut Machine, budget: u64) -> TrialEnd {
        let exit = m.run(budget);
        let output = m.os.as_ref().map_or_else(Vec::new, |os| os.output.clone());
        TrialEnd { exit, output }
    }

    /// Whether the cycle budget ran out.
    pub fn hung(&self) -> bool {
        self.exit == OsExit::Timeout
    }

    /// Whether the guest hung, trapped, or was killed.
    pub fn died(&self) -> bool {
        matches!(self.exit, OsExit::Timeout | OsExit::ProcessKilled { .. })
    }
}

/// What one armed run observed, plus the machine it ran on. Both
/// campaign engines map these facts to their own outcome names. A
/// rollback needs nothing from it: [`rerun`] re-executes on a freshly
/// built machine, which is the pre-run image.
pub struct Trial {
    /// How the guest ended.
    pub end: TrialEnd,
    /// Whether the guest produced the golden result: the golden digest
    /// on a bare machine, a clean exit with the golden output under the
    /// guest OS.
    pub golden: bool,
    /// Cycles the run consumed.
    pub cycles: u64,
    /// The module that detected the fault: an ICM or DSM mismatch on a
    /// bare machine; the DDT when the guest OS recovered a crash or the
    /// pipeline latched an NX violation.
    pub detected: Option<ModuleId>,
    /// The harness's target module, when the health machine took it
    /// down and it stayed down.
    pub down: Option<ModuleId>,
    /// Whether the watchdog decoupled the framework.
    pub safe_mode: bool,
    /// Module quarantines during the run.
    pub quarantines: u64,
    /// The machine after the run (the adaptive chain reads the MLR's
    /// published layout words from its memory).
    pub harness: Machine,
}

/// Whether a guest's end on `m` reproduces the golden reference `r`.
fn is_golden(w: &Workload, image: &Image, r: &RefState, m: &Machine, end: &TrialEnd) -> bool {
    end.exit == (OsExit::Exited { code: 0 })
        && match m.os {
            None => result_digest(w, &m.cpu, image) == r.digest,
            Some(_) => end.output == r.output,
        }
}

/// Runs one armed trial: builds the machine for `w` (threading
/// `mlr_seed` into MLR-guarded flavors), arms `plan`, and runs the guest
/// under the fault budget of `r`, latching the watchdog's one-shot hang
/// detector when the budget runs out. Every faulted or attacked run of
/// both campaign engines goes through here.
pub fn run_trial(
    w: &Workload,
    image: &Image,
    r: &RefState,
    mlr_seed: Option<u64>,
    plan: &FaultPlan,
) -> Trial {
    let budget = fault_budget(r);
    let mut harness = build_harness_seeded(w, image, budget, mlr_seed);
    plan.arm(&mut harness.cpu, &mut harness.engine);
    let end = TrialEnd::run(&mut harness, budget);
    if end.hung() {
        harness.engine.poll_hang(harness.cpu.now());
    }
    let Machine { cpu, engine, os } = &harness;
    let detected = match os {
        None => detecting_module(engine),
        // `OsExit` alone cannot tell an NX trap apart from a clean exit,
        // so read the pipeline's latch directly.
        Some(os) => {
            (cpu.nx_violation().is_some() || os.stats().recoveries > 0).then_some(ModuleId::DDT)
        }
    };
    Trial {
        golden: is_golden(w, image, r, &harness, &end),
        cycles: cpu.now(),
        detected,
        down: w
            .harness
            .target_module()
            .filter(|&m| engine.module_health(m).is_down()),
        safe_mode: engine.safe_mode().is_some(),
        quarantines: engine.stats().quarantines,
        end,
        harness,
    }
}

/// A recovery-window adversary for [`rerun`]: `plan` is re-armed into
/// each of the first `persist` rollback attempts, and at most
/// `max_rerun` attempts run (the `--max-rerun` budget; see
/// [`rse_sys::recovery::validate_max_rerun`]).
#[derive(Debug, Clone, Copy)]
pub struct Strike<'a> {
    /// The attack re-delivered into the re-executions.
    pub plan: &'a FaultPlan,
    /// How many attempts the strike still lands in.
    pub persist: u32,
    /// The rollback retry budget.
    pub max_rerun: u32,
}

/// Rolls a trial back to its pre-run image and re-executes it, judged
/// against the golden reference `r`. The rollback is the re-execution:
/// a freshly built machine of the same flavor from the same image (same
/// MLR layout seed, so the re-run reproduces the trial's randomization
/// decisions) holds exactly the pre-run pages, the entry context and
/// clean caches.
///
/// Without a `strike`, one re-execution runs: reaching the golden result
/// records `recovered:checkpoint-rollback`, anything else a safe halt
/// with the cause. With one, up to `max_rerun` attempts run and attempt
/// `k` reaching the golden result records `recovered:retry<k>`. When
/// every attempt diverges, crashes, or times out, the rollback escalates
/// to a safe halt instead of retrying forever; the cause names
/// `--max-rerun` the way the re-randomization CLI names
/// `--validate-period`, so the operator knows which budget tripped.
pub fn rerun(
    w: &Workload,
    image: &Image,
    r: &RefState,
    mlr_seed: Option<u64>,
    strike: Option<Strike<'_>>,
) -> RecoveryStatus {
    let budget = fault_budget(r);
    let attempts = strike.map_or(1, |s| s.max_rerun.max(1));
    let mut last = String::new();
    for attempt in 1..=attempts {
        let mut b = build_harness_seeded(w, image, budget, mlr_seed);
        if let Some(s) = strike.filter(|s| attempt <= s.persist) {
            s.plan.arm(&mut b.cpu, &mut b.engine);
        }
        let end = TrialEnd::run(&mut b, budget);
        if is_golden(w, image, r, &b, &end) {
            return RecoveryStatus::Succeeded {
                mechanism: match strike {
                    Some(_) => retry_mechanism(attempt),
                    None => "checkpoint-rollback",
                },
            };
        }
        last = match (&b.os, end.exit) {
            (_, OsExit::Exited { code: 0 }) => "re-executed state diverged from golden".into(),
            (None, OsExit::Timeout) => "re-execution after rollback did not complete".into(),
            (None, OsExit::ProcessKilled { reason }) => {
                format!("re-execution after rollback crashed: {reason}")
            }
            (_, other) => format!("re-execution after rollback ended with {other:?}"),
        };
    }
    let cause = match strike {
        Some(_) => format!(
            "retry budget exhausted after {attempts} rollback attempts (last: {last}); \
             raise --max-rerun only if the recovery window is known to clear"
        ),
        None => last,
    };
    RecoveryStatus::FailedSafeHalt { cause }
}

/// Executes one fault-injection run and classifies it. Equivalent to
/// [`run_one_with`] with default options.
pub fn run_one(w: &Workload, model: FaultModel, run: u32, seed: u64, r: &RefState) -> RunRecord {
    run_one_with(w, model, run, seed, r, &CampaignOptions::default())
}

/// Executes one fault-injection run and classifies it. The options
/// change how a campaign runs, never a record: a fault trial reads none
/// of them.
pub fn run_one_with(
    w: &Workload,
    model: FaultModel,
    run: u32,
    seed: u64,
    r: &RefState,
    _opts: &CampaignOptions,
) -> RunRecord {
    let image = assemble(w.source).expect("corpus workload assembles");
    let plan = FaultPlan::sample(model, seed, &r.profile);
    let t = run_trial(w, &image, r, None, &plan);
    let outcome = if let Some(m) = t.down {
        Outcome::Degraded(m)
    } else if let Some(m) = t.detected {
        Outcome::DetectedByModule(m)
    } else if t.safe_mode {
        Outcome::WatchdogTimeout
    } else if t.quarantines > 0 {
        Outcome::Contained
    } else if t.end.hung() {
        Outcome::Hang
    } else if t.end.died() {
        Outcome::CrashTrap
    } else if t.golden {
        Outcome::Masked
    } else {
        Outcome::Sdc
    };
    let TrialEnd { exit, output } = &t.end;
    let under_os = t.harness.os.is_some();
    let recovery = match outcome {
        Outcome::Masked | Outcome::Sdc => RecoveryStatus::NotNeeded,
        Outcome::Degraded(_) if t.golden => RecoveryStatus::Succeeded {
            mechanism: "quarantine-nop-mux",
        },
        Outcome::Contained if t.golden => RecoveryStatus::Succeeded {
            mechanism: "probe-re-enable",
        },
        // Under the guest OS, recovery is the OS's own (DDT-driven).
        Outcome::Degraded(_) | Outcome::Contained if under_os => RecoveryStatus::FailedSafeHalt {
            cause: format!("degraded-mode run diverged (output {output:?}, exit {exit:?})"),
        },
        Outcome::DetectedByModule(_) if under_os => {
            if *exit == (OsExit::Exited { code: 0 }) && output == DDT_RECOVERED_OUTPUT {
                RecoveryStatus::Succeeded {
                    mechanism: "ddt-checkpoint-rollback",
                }
            } else {
                RecoveryStatus::FailedSafeHalt {
                    cause: format!("post-recovery run diverged (output {output:?}, exit {exit:?})"),
                }
            }
        }
        _ if under_os => RecoveryStatus::NotNeeded,
        _ if t.golden => RecoveryStatus::Succeeded {
            mechanism: if t.detected.is_some() {
                "flush-refetch"
            } else {
                "safe-mode-decouple"
            },
        },
        _ => rerun(w, &image, r, None, None),
    };
    RunRecord {
        workload: w.name,
        model: model.name(),
        run,
        seed,
        outcome,
        recovery,
        cycles: t.cycles,
        faults: plan.describe(),
    }
}

/// Convenience: reference + single run for a named workload. Returns
/// `None` for an unknown workload name.
pub fn run_one_by_name(name: &str, model: FaultModel, seed: u64) -> Option<RunRecord> {
    let w = by_name(name)?;
    let r = reference(w);
    Some(run_one(w, model, 0, seed, &r))
}

/// One campaign cell: `runs` injections of `model` into `workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignCell {
    /// Workload name (must resolve via [`by_name`]).
    pub workload: &'static str,
    /// Fault model.
    pub model: FaultModel,
    /// Number of runs.
    pub runs: u32,
}

/// A full campaign specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Base seed every per-run seed is derived from.
    pub base_seed: u64,
    /// The cells, executed in order.
    pub cells: Vec<CampaignCell>,
}

impl CampaignSpec {
    /// The pinned 64-run CI smoke campaign: every fault model exercised
    /// across the corpus.
    pub fn smoke(base_seed: u64) -> CampaignSpec {
        let cell = |workload, model, runs| CampaignCell {
            workload,
            model,
            runs,
        };
        CampaignSpec {
            base_seed,
            cells: vec![
                cell("alu_loop", FaultModel::RegSingle, 8),
                cell("alu_loop", FaultModel::MemData, 8),
                cell("mem_checksum", FaultModel::RegDouble, 8),
                cell("mem_checksum", FaultModel::MemData, 8),
                cell("icm_loop", FaultModel::FetchWord, 8),
                cell("icm_loop", FaultModel::MemText, 8),
                cell("icm_loop", FaultModel::ChkDrop, 4),
                cell("icm_loop", FaultModel::ChkGarble, 4),
                cell("ddt_recover", FaultModel::MemData, 8),
            ],
        }
    }

    /// The zero-fault control campaign: every workload under the
    /// `control` model. All runs must classify as `masked`.
    pub fn control(base_seed: u64, runs: u32) -> CampaignSpec {
        CampaignSpec {
            base_seed,
            cells: corpus()
                .iter()
                .map(|w| CampaignCell {
                    workload: w.name,
                    model: FaultModel::Control,
                    runs,
                })
                .collect(),
        }
    }

    /// The quarantine matrix: every module-targeted fault model against
    /// the two module-bearing workloads. This is the degraded-mode
    /// coverage campaign — it measures how often a faulted module is
    /// contained (quarantine → NOP mux → guest completes) or healed
    /// (backoff probe re-enables it) instead of decoupling the whole
    /// framework.
    pub fn quarantine(base_seed: u64, runs: u32) -> CampaignSpec {
        const MODULE_MODELS: [FaultModel; 4] = [
            FaultModel::ModValidStuck0,
            FaultModel::ModValidStuck1,
            FaultModel::ModStateCorrupt,
            FaultModel::MauDrop,
        ];
        let mut cells = Vec::new();
        for name in ["icm_loop", "ddt_recover"] {
            let w = by_name(name).expect("corpus workload");
            for model in MODULE_MODELS {
                if model.applicable(w) {
                    cells.push(CampaignCell {
                        workload: w.name,
                        model,
                        runs,
                    });
                }
            }
        }
        CampaignSpec { base_seed, cells }
    }

    /// The full cross product: every applicable (workload, model) pair,
    /// `runs` injections each.
    pub fn full(base_seed: u64, runs: u32) -> CampaignSpec {
        let mut cells = Vec::new();
        for w in corpus() {
            for model in FaultModel::ALL {
                if model.applicable(w) {
                    cells.push(CampaignCell {
                        workload: w.name,
                        model,
                        runs,
                    });
                }
            }
        }
        CampaignSpec { base_seed, cells }
    }

    /// Total runs in the spec.
    pub fn total_runs(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.runs)).sum()
    }
}

/// Execution options for a campaign. Sharding never changes a single
/// output byte — it only changes how fast the same records are
/// produced. The rollback retry budget *is* part of the replay
/// contract: it bounds how many re-executions a recovery-window
/// adversary can force before the run escalates to a safe halt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Worker threads for run-level sharding; `0` or `1` runs
    /// sequentially.
    pub threads: usize,
    /// Rollback retry budget for recovery-window strikes (the
    /// `--max-rerun` flag; see [`rse_sys::recovery::validate_max_rerun`]).
    pub max_rerun: u32,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            threads: 1,
            max_rerun: rse_sys::DEFAULT_MAX_RERUN,
        }
    }
}

/// Executes a campaign: golden references are computed once per
/// workload, then every cell's runs execute in order. Equivalent to
/// [`run_campaign_with`] with default (sequential) options.
///
/// # Panics
///
/// Panics if a cell names an unknown workload or an inapplicable fault
/// model — specs are validated eagerly so a bad campaign never half-runs.
pub fn run_campaign(spec: &CampaignSpec) -> Vec<RunRecord> {
    run_campaign_with(spec, &CampaignOptions::default())
}

/// Executes a campaign under [`CampaignOptions`].
///
/// Sharding is run-level and embarrassingly parallel: every `(cell,
/// run)` job's seed is a pure function of the spec, the golden
/// references are computed once up front, and [`run_cells`] merges the
/// results back by job index. The merged record vector — and therefore
/// [`crate::to_jsonl`] — is byte-for-byte identical for every thread
/// count.
///
/// # Panics
///
/// Panics as [`run_campaign`] does on an invalid spec, and propagates
/// any worker panic.
pub fn run_campaign_with(spec: &CampaignSpec, opts: &CampaignOptions) -> Vec<RunRecord> {
    let cells: Vec<_> = spec
        .cells
        .iter()
        .map(|cell| {
            let w = by_name(cell.workload)
                .unwrap_or_else(|| panic!("unknown workload {:?}", cell.workload));
            assert!(
                cell.model.applicable(w),
                "model {} is not applicable to workload {}",
                cell.model,
                w.name
            );
            (w, cell.model, cell.runs)
        })
        .collect();
    run_cells(
        &cells,
        |w| w,
        opts.threads,
        |w, model, run, r| {
            let seed = derive_seed(spec.base_seed, w.name, model, run);
            run_one_with(w, model, run, seed, r, opts)
        },
    )
}

/// The campaign runner both engines share. `cells` are validated
/// `(target, model, runs)` triples and `workload` names a target's
/// guest. The golden reference of every workload is computed once up
/// front, then every `(cell, run)` job runs through `trial` with its
/// workload's reference, sharded by [`run_sharded`]: the records come
/// back in spec order at every thread count.
///
/// # Panics
///
/// Propagates any worker panic.
pub fn run_cells<T: Sync, M: Copy + Sync, R: Send>(
    cells: &[(&T, M, u32)],
    workload: fn(&T) -> &Workload,
    threads: usize,
    trial: impl Fn(&T, M, u32, &RefState) -> R + Sync,
) -> Vec<R> {
    let mut refs: BTreeMap<&str, RefState> = BTreeMap::new();
    for &(target, _, _) in cells {
        let w = workload(target);
        refs.entry(w.name).or_insert_with(|| reference(w));
    }
    let jobs: Vec<(&T, M, u32)> = cells
        .iter()
        .flat_map(|&(target, model, runs)| (0..runs).map(move |run| (target, model, run)))
        .collect();
    run_sharded(&jobs, threads, |_, &(target, model, run)| {
        trial(target, model, run, &refs[workload(target).name])
    })
}

/// Runs `jobs` through `f`, sharding across `threads` worker threads.
///
/// Sharding is run-level and embarrassingly parallel: worker `t` of `T`
/// takes jobs `t, t+T, t+2T, …` (round-robin, so long cells spread
/// across workers) and the results merge back by job index — the result
/// vector is identical at every thread count. `0` or `1` threads runs
/// inline. Shared by [`run_cells`] and the entropy study.
///
/// # Panics
///
/// Propagates any worker panic.
pub fn run_sharded<J: Sync, R: Send>(
    jobs: &[J],
    threads: usize,
    f: impl Fn(usize, &J) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads == 1 {
        return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let f = &f;
            handles.push(scope.spawn(move || {
                jobs.iter()
                    .enumerate()
                    .skip(t)
                    .step_by(threads)
                    .map(|(i, j)| (i, f(i, j)))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (i, rec) in handle.join().expect("campaign worker panicked") {
                slots[i] = Some(rec);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job produced a record"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::to_jsonl;

    #[test]
    fn seeds_are_stable_and_well_spread() {
        let a = derive_seed(1, "alu_loop", FaultModel::RegSingle, 0);
        assert_eq!(a, derive_seed(1, "alu_loop", FaultModel::RegSingle, 0));
        assert_ne!(a, derive_seed(2, "alu_loop", FaultModel::RegSingle, 0));
        assert_ne!(a, derive_seed(1, "mem_checksum", FaultModel::RegSingle, 0));
        assert_ne!(a, derive_seed(1, "alu_loop", FaultModel::RegDouble, 0));
        assert_ne!(a, derive_seed(1, "alu_loop", FaultModel::RegSingle, 1));
    }

    #[test]
    fn smoke_spec_is_64_runs() {
        assert_eq!(CampaignSpec::smoke(0).total_runs(), 64);
    }

    #[test]
    fn full_spec_skips_inapplicable_models() {
        let spec = CampaignSpec::full(0, 1);
        assert!(spec
            .cells
            .iter()
            .all(|c| c.model.applicable(by_name(c.workload).unwrap())));
        // icm_loop has no data buffer; bare workloads have no CHECKs.
        assert!(!spec
            .cells
            .iter()
            .any(|c| c.workload == "icm_loop" && c.model == FaultModel::MemData));
        assert!(!spec
            .cells
            .iter()
            .any(|c| c.workload == "alu_loop" && c.model == FaultModel::ChkDrop));
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn bad_spec_is_rejected_eagerly() {
        run_campaign(&CampaignSpec {
            base_seed: 0,
            cells: vec![CampaignCell {
                workload: "alu_loop",
                model: FaultModel::ChkDrop,
                runs: 1,
            }],
        });
    }

    #[test]
    fn control_runs_are_all_masked() {
        let records = run_campaign(&CampaignSpec::control(7, 2));
        assert_eq!(records.len(), 8);
        for r in &records {
            assert_eq!(r.outcome, Outcome::Masked, "{}", r.to_json());
            assert_eq!(r.recovery, RecoveryStatus::NotNeeded);
            assert_eq!(r.faults, "none");
        }
    }

    #[test]
    fn quarantine_spec_covers_module_models() {
        let spec = CampaignSpec::quarantine(0, 2);
        assert_eq!(spec.cells.len(), 7, "{:?}", spec.cells);
        assert_eq!(spec.total_runs(), 14);
        assert!(spec
            .cells
            .iter()
            .all(|c| c.model.applicable(by_name(c.workload).unwrap())));
        // MauDrop needs the ICM harness's MAU traffic.
        assert!(!spec
            .cells
            .iter()
            .any(|c| c.workload == "ddt_recover" && c.model == FaultModel::MauDrop));
    }

    #[test]
    fn stuck_valid_line_is_confined_to_the_module() {
        let w = by_name("icm_loop").unwrap();
        let r = reference(w);
        let seed = derive_seed(3, w.name, FaultModel::ModValidStuck0, 0);
        let rec = run_one(w, FaultModel::ModValidStuck0, 0, seed, &r);
        assert!(
            rec.outcome.is_confined(),
            "expected containment, got {}",
            rec.to_json()
        );
    }

    /// A mixed mini-campaign (injections across the three harness
    /// flavors) whose output the sharded path must reproduce
    /// byte-for-byte.
    fn mini_spec() -> CampaignSpec {
        CampaignSpec {
            base_seed: 0xD5B,
            cells: vec![
                CampaignCell {
                    workload: "alu_loop",
                    model: FaultModel::RegSingle,
                    runs: 3,
                },
                // With base seed 0xD5B, mem-text run 1 classifies as a
                // hang that recovers via checkpoint-rollback (see the
                // pinned smoke golden).
                CampaignCell {
                    workload: "icm_loop",
                    model: FaultModel::MemText,
                    runs: 2,
                },
                CampaignCell {
                    workload: "ddt_recover",
                    model: FaultModel::MemData,
                    runs: 2,
                },
            ],
        }
    }

    #[test]
    fn sharded_campaign_is_byte_identical() {
        let spec = mini_spec();
        let records = run_campaign(&spec);
        assert!(
            records
                .iter()
                .any(|r| r.to_json().contains("recovered:checkpoint-rollback")),
            "mini spec must exercise the rollback re-run"
        );
        let base = to_jsonl(&records);
        for threads in [3, 16] {
            let sharded = to_jsonl(&run_campaign_with(
                &spec,
                &CampaignOptions {
                    threads,
                    ..CampaignOptions::default()
                },
            ));
            assert_eq!(base, sharded, "threads={threads}");
        }
    }

    #[test]
    fn references_are_reproducible() {
        for w in corpus() {
            let a = reference(w);
            let b = reference(w);
            assert_eq!(a, b, "reference for {} is nondeterministic", w.name);
            assert!(a.profile.cycles > 0);
            assert!(a.profile.fetched > 0);
        }
    }
}
