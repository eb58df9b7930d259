//! **RTLock** — scan-aware logic locking at RTL (DATE 2023), reproduced.
//!
//! The crate implements the paper's seven-step locking flow on top of the
//! workspace substrates:
//!
//! 1. **Analyze the RTL** — CDFG + FSM extraction
//!    ([`candidates::enumerate`] uses `rtlock-rtl`'s analyses);
//! 2. **Select locking candidates** — constant, arithmetic and five FSM
//!    locking flavors ([`candidates`]);
//! 3. **Database creation** — each case synthesized and attack-probed
//!    offline ([`database`]);
//! 4. **Selection of cases** — the ILP of Equations 1–2 ([`select`]);
//! 5. **Update RTL** — key ports + site rewrites ([`transforms`]);
//! 6. **Design verification** — co-simulation and SAT-miter equivalence
//!    ([`verify`]);
//! 7. **Partial scan insertion + locking** — SCOAP-guided register choice
//!    with counter-LFSR scan obfuscation ([`scan_lock`]).
//!
//! [`flow::lock`] runs everything and returns a [`flow::LockedDesign`],
//! which exposes the attacker-visible surfaces ([`flow::AttackSurface`])
//! and P1735 export. [`flow::lock_governed`] runs the same flow under a
//! [`governor::RunBudget`]: wall-clock and per-stage deadlines, panic
//! isolation, graceful degradation and deterministic fault injection.
//! [`baselines`] adds the gate-level comparison lockers of Tables III/IV;
//! [`threat`] encodes Table I.
//!
//! # Examples
//!
//! ```
//! use rtlock::flow::{lock, RtlLockConfig};
//! use rtlock::database::DatabaseConfig;
//! use rtlock::select::SelectionSpec;
//!
//! let m = rtlock_rtl::parse(r#"
//! module demo(input clk, input rst, input [7:0] d, output reg [7:0] y);
//!   always @(posedge clk or posedge rst) begin
//!     if (rst) y <= 8'd0; else y <= (d + 8'd13) ^ 8'h21;
//!   end
//! endmodule"#)?;
//!
//! let config = RtlLockConfig {
//!     database: DatabaseConfig { sat_probe: false, ..DatabaseConfig::default() },
//!     spec: SelectionSpec { min_resilience: 30.0, max_area_pct: 40.0, ..SelectionSpec::default() },
//!     ..RtlLockConfig::default()
//! };
//! let locked = lock(&m, &config)?;
//! assert!(locked.key.len() >= 1);
//! assert_eq!(locked.report.verified_mismatch_rate, 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod candidates;
pub mod catalog;
pub mod database;
pub mod flow;
pub mod governor;
pub mod journal;
pub mod scan_lock;
pub mod select;
pub mod testability;
pub mod threat;
pub mod tpm;
pub mod transforms;
pub mod verify;

pub use catalog::{
    lock_catalog_parallel, lock_catalog_resumable, CatalogEntry, CatalogJob, CatalogReport,
    DesignStatus, DesignSummary, ReplayedDesign,
};
pub use journal::CampaignJournal;
pub use flow::{
    lock, lock_governed, lock_governed_cached, AttackSurface, LockError, LockedDesign,
    RtlLockConfig,
};
pub use governor::{Degradation, Fault, FaultPlan, RunBudget, Stage};
