//! Gate-level netlist substrate for the RTLock reproduction.
//!
//! Provides the post-synthesis representation everything downstream works
//! on: the gate library and netlist graph ([`Netlist`]), bit-parallel
//! simulation ([`NetSim`]), SCOAP testability measures ([`scoap`]),
//! a NanGate-15nm-like PPA model ([`ppa`]), and Tseitin CNF encoding
//! ([`CnfBuilder`]) consumed by the SAT/BMC attacks.
//!
//! # Examples
//!
//! ```
//! use rtlock_netlist::{Netlist, GateKind, NetSim, scoap, ppa};
//!
//! let mut n = Netlist::new("demo");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let y = n.add_gate(GateKind::Xor, vec![a, b]);
//! n.add_output("y", y);
//!
//! let mut sim = NetSim::new(&n)?;
//! sim.set_inputs_bool(&[true, false]);
//! sim.eval_comb();
//! assert_eq!(sim.outputs()[0], u64::MAX);
//!
//! let testability = scoap::analyze(&n);
//! assert!(testability.cc1[y.index()] >= 2);
//!
//! let report = ppa::analyze(&n, &ppa::PpaConfig::default());
//! assert!(report.area_um2 > 0.0);
//! # Ok::<(), rtlock_netlist::CycleError>(())
//! ```

#![warn(missing_docs)]

pub mod bench_format;
pub mod cnf;
pub mod codec;
pub mod gate;
pub mod netlist;
pub mod ppa;
pub mod scoap;
pub mod sim;

pub use bench_format::{from_bench, to_bench};
pub use cnf::CnfBuilder;
pub use gate::{Gate, GateId, GateKind};
pub use netlist::{CycleError, Netlist, Port};
pub use ppa::{PpaConfig, PpaReport};
pub use scoap::Scoap;
pub use sim::NetSim;
