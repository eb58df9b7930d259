//! Attack suite of the RTLock reproduction (Section IV / Tables III–IV).
//!
//! * [`sat_attack()`] — the oracle-guided SAT attack of Subramanyan et al.;
//! * [`bmc_attack()`] — oracle-guided bounded-model-checking attack for
//!   circuits without scan access; both oracle-guided attacks drive one
//!   crate-private two-key miter session;
//! * [`ml`] — the oracle-less SWEEP (supervised) and SCOPE (unsupervised)
//!   constant-propagation attacks;
//! * [`removal`] — SPS-based point-function removal analysis;
//! * [`prune`] — dataflow-guided key-space partitioning for the SAT
//!   attack and taint-justified removal candidates;
//! * [`bypass`] — bypass-attack cost estimation;
//! * [`portfolio`] — deterministic parallel portfolio racing the suite
//!   under one budget;
//! * [`oracle`] — the activated-chip oracles the oracle-guided attacks use.
//!
//! # Examples
//!
//! Lock a trivial circuit with one XOR key gate and break it:
//!
//! ```
//! use rtlock_netlist::{Netlist, GateKind};
//! use rtlock_attacks::{sat_attack, AttackConfig, AttackOutcome};
//!
//! let mut orig = Netlist::new("orig");
//! let a = orig.add_input("a");
//! let b = orig.add_input("b");
//! let g = orig.add_gate(GateKind::And, vec![a, b]);
//! orig.add_output("y", g);
//!
//! let mut locked = orig.clone();
//! let k = locked.add_input("keyinput0");
//! locked.mark_key_input(k);
//! let out = locked.outputs()[0].1;
//! let kg = locked.add_gate(GateKind::Xor, vec![out, k]);
//! locked.replace_output_driver(0, kg);
//!
//! match sat_attack(&locked, &orig, &AttackConfig::default()) {
//!     AttackOutcome::KeyFound { key, .. } => assert_eq!(key, vec![false]),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod bmc_attack;
pub mod bypass;
pub mod features;
mod miter;
pub mod ml;
pub mod oracle;
pub mod portfolio;
pub mod prune;
pub mod removal;
pub mod sat_attack;

pub use bmc_attack::{bmc_attack, sequential_key_accuracy, BmcConfig};
pub use bypass::{bypass_estimate, BypassEstimate};
pub use ml::{scope_attack, MlReport, SweepModel};
pub use oracle::{CombOracle, SeqOracle};
pub use portfolio::{
    portfolio_attack, MemberOutcome, PortfolioConfig, PortfolioMember, PortfolioTarget,
    PortfolioVerdict,
};
pub use prune::{dataflow_removal_candidates, sat_attack_pruned, PrunedAttack, RemovalJustification};
pub use removal::{removal_attack, RemovalOutcome};
pub use sat_attack::{apply_key, key_accuracy, sat_attack, sat_attack_with, AttackConfig, AttackOutcome};
