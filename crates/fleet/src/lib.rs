//! Fleet-scale AHBM: a deterministic multi-node heartbeat fabric.
//!
//! Each fleet node is a *full* pipeline+RSE instance (the same harness
//! the single-node fault-injection campaigns use) hosting a guest
//! workload that emits heartbeats at its safe-point syscalls. Nodes are
//! connected by a simulated lossy network ([`net::Network`]): per-link
//! delay + jitter, one-shot partitions, rack cuts, and heartbeat-loss
//! bursts — every draw from the in-repo splitmix64, so a seed replays
//! the exact same fleet history on any host.
//!
//! The AHBM is extended from local-entity to remote-peer monitoring
//! ([`rse_modules::PeerMonitor`]): incoming heartbeats feed a Q16.16
//! Jacobson/Karn adaptive-timeout estimator per peer, driving a
//! three-level suspicion ladder (Alive → Suspect → Dead) with
//! probe-before-declare retries and exponential backoff.
//!
//! On a Dead declaration the recovery coordinator (lowest unfenced
//! live node) performs checkpoint failover: it adopts the dead node's
//! workload from the newest replicated [`rse_inject::ArchSnapshot`],
//! broadcasts the ownership change under a new fencing epoch, and
//! orders the dead node fenced so a partitioned-but-alive node that
//! later heals is quarantined rather than split-brained.
//!
//! [`sim::FleetSim`] runs one fleet instance to completion and
//! classifies the outcome (`failover:<node>`, `false-suspicion`,
//! `split-brain`, `unrecovered`, ...); [`soak`] drives seeded
//! multi-run soak campaigns over the node-level fault models in
//! [`fault`].
//!
//! Timing is not configurable: the network, the 5-node simulator and
//! the chaos engine each keep their timing as constants, with the rules
//! their safety rests on checked by `const` assertions. A run sets only
//! [`FleetConfig::nodes`] and [`FleetConfig::scheduler`], the
//! [`FleetSpec`] and [`ChurnSpec`] fields, and the witness quanta
//! [`ChaosSim::run`] prices the witness nodes with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod churn;
pub mod event;
pub mod fault;
pub mod net;
pub mod node;
pub mod protocol;
pub mod sim;
pub mod soak;

/// Fleet node identifier (0-based, dense).
pub type NodeId = u16;

pub use chaos::{
    derive_churn_seed, run_churn, witness_quanta, ChaosOutcome, ChaosPayload, ChaosSim, ChurnCell,
    ChurnSpec,
};
pub use churn::{churn_to_jsonl, ChurnModel, ChurnPlan, ChurnRecord};
pub use event::{align_up, EventQueue};
pub use fault::{FleetProfile, NodeFault, NodeFaultModel, NodeFaultPlan};
pub use net::{Message, NetPayload, NetStats, Network, Payload, NO_RACK};
pub use node::{FenceKind, Guest, Node, NodeStatus};
pub use protocol::{FailoverOrder, NodeProtocol, ProtoMsg};
pub use sim::{FleetConfig, FleetOutcome, FleetSim, Scheduler};
pub use soak::{run_soak, run_soak_with, FleetCell, FleetSpec};
