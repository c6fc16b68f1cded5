//! Simple reference modules: useful in tests, examples and the
//! fault-injection campaign (the paper's Table 2 scenarios are driven by
//! [`ScriptedModule`]).

use crate::module::{ChkDispatch, Module, ModuleCtx, Verdict};
use rse_isa::ModuleId;
use rse_pipeline::RobId;
use std::any::Any;
use std::collections::HashMap;

/// A module that counts the CHECKs it is given, their commits and the
/// squashes it hears of, and immediately passes every blocking CHECK.
/// Handy for wiring tests.
#[derive(Debug)]
pub struct CountingModule {
    id: ModuleId,
    /// CHECK instructions delivered via the Fetch_Out scan.
    pub chks_seen: u64,
    /// CHECK instructions that committed.
    pub chk_commits: u64,
    /// Squashes observed.
    pub squashes: u64,
    /// Operands of the most recent CHECK.
    pub last_operands: [u32; 2],
    /// Parameter of the most recent CHECK.
    pub last_param: u16,
    chk_robs: HashMap<RobId, ()>,
}

impl CountingModule {
    /// Creates a counting module for the given slot.
    pub fn new(id: ModuleId) -> CountingModule {
        CountingModule {
            id,
            chks_seen: 0,
            chk_commits: 0,
            squashes: 0,
            last_operands: [0, 0],
            last_param: 0,
            chk_robs: HashMap::new(),
        }
    }
}

impl Module for CountingModule {
    fn id(&self) -> ModuleId {
        self.id
    }

    fn name(&self) -> &'static str {
        "counting"
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        self.chks_seen += 1;
        self.last_operands = chk.operands;
        self.last_param = chk.spec.param;
        self.chk_robs.insert(chk.rob, ());
        if chk.spec.blocking {
            ctx.complete_check(chk.rob, Verdict::Pass);
        }
    }

    fn on_commit(&mut self, rob: RobId, _ctx: &mut ModuleCtx<'_>) {
        if self.chk_robs.remove(&rob).is_some() {
            self.chk_commits += 1;
        }
    }

    fn on_squash(&mut self, rob: RobId, _ctx: &mut ModuleCtx<'_>) {
        self.chk_robs.remove(&rob);
        self.squashes += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What a [`ScriptedModule`] does with blocking CHECKs — each variant
/// reproduces one of the paper's Table 2 module-failure scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptedBehavior {
    /// Respond with a fixed verdict after a fixed latency. A `Fail`
    /// verdict models the "false alarm" module; `Pass` is a healthy
    /// module.
    Respond {
        /// The verdict to deliver.
        verdict: Verdict,
        /// Cycles between acquiring the CHECK and writing the result.
        latency: u64,
    },
    /// Never respond: the "module does not make progress" scenario.
    Silent,
    /// Fail the first `n` blocking CHECKs delivered, pass afterwards — a
    /// module detecting exactly `n` planted errors (each failed CHECK is
    /// re-fetched after the flush and then passes).
    FailFirstN {
        /// Number of deliveries to fail.
        n: u64,
        /// Response latency in cycles.
        latency: u64,
    },
    /// Ignore blocking CHECKs (including self-test probes) until cycle
    /// `until`, then respond `Pass` with the given latency: a transient
    /// stuck module that recovers on its own — the probed re-enable
    /// scenario.
    SilentUntil {
        /// First cycle at which the module answers again.
        until: u64,
        /// Response latency once recovered.
        latency: u64,
    },
}

/// A module whose responses are scripted, for fault-injection and
/// framework testing.
#[derive(Debug)]
pub struct ScriptedModule {
    id: ModuleId,
    behavior: ScriptedBehavior,
    /// Pending responses: (due cycle, rob, verdict).
    pending: Vec<(u64, RobId, Verdict)>,
    /// CHECKs acquired.
    pub chks_seen: u64,
    /// Blocking CHECKs delivered (the `FailFirstN` budget counter).
    pub blocking_deliveries: u64,
}

impl ScriptedModule {
    /// Creates a scripted module in the given slot.
    pub fn new(id: ModuleId, behavior: ScriptedBehavior) -> ScriptedModule {
        ScriptedModule {
            id,
            behavior,
            pending: Vec::new(),
            chks_seen: 0,
            blocking_deliveries: 0,
        }
    }

    /// The current behavior (fault injection may have changed it).
    pub fn behavior(&self) -> ScriptedBehavior {
        self.behavior
    }
}

impl Module for ScriptedModule {
    fn id(&self) -> ModuleId {
        self.id
    }

    fn name(&self) -> &'static str {
        "scripted"
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        self.chks_seen += 1;
        if !chk.spec.blocking {
            return;
        }
        self.blocking_deliveries += 1;
        match self.behavior {
            ScriptedBehavior::Respond { verdict, latency } => {
                self.pending.push((ctx.now + latency, chk.rob, verdict));
            }
            ScriptedBehavior::Silent => {}
            ScriptedBehavior::FailFirstN { n, latency } => {
                let verdict = if self.blocking_deliveries <= n {
                    Verdict::Fail
                } else {
                    Verdict::Pass
                };
                self.pending.push((ctx.now + latency, chk.rob, verdict));
            }
            ScriptedBehavior::SilentUntil { until, latency } => {
                if ctx.now >= until {
                    self.pending
                        .push((ctx.now + latency, chk.rob, Verdict::Pass));
                }
            }
        }
    }

    fn on_squash(&mut self, rob: RobId, _ctx: &mut ModuleCtx<'_>) {
        self.pending.retain(|(_, r, _)| *r != rob);
    }

    fn tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        let due: Vec<(RobId, Verdict)> = self
            .pending
            .iter()
            .filter(|(at, ..)| *at <= now)
            .map(|(_, r, v)| (*r, *v))
            .collect();
        self.pending.retain(|(at, ..)| *at > now);
        for (rob, verdict) in due {
            ctx.complete_check(rob, verdict);
        }
    }

    fn corrupt_state(&mut self, _seed: u64) -> bool {
        // The scripted stand-in for state corruption: the module goes
        // mute (its "state machine" is wedged).
        self.behavior = ScriptedBehavior::Silent;
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
