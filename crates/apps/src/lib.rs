//! CAD applications of optimum cycle mean / cycle ratio analysis.
//!
//! The DAC 1999 study motivates its algorithms with performance analysis
//! of cyclic digital systems (§1.1). This crate turns those motivating
//! applications into first-class APIs on top of [`mcr_core`]:
//!
//! * [`retiming`] — minimum feasible clock period of a retimed
//!   synchronous circuit (Szymanski, DAC'92), with the critical loops
//!   and connections reported for optimization;
//! * [`dataflow`] — the iteration bound of a recursive dataflow graph
//!   (Ito & Parhi) and per-loop slack analysis;
//! * [`max_plus`] — max-plus algebra spectral theory (Cochet-Terrasson
//!   et al., the source of Howard's algorithm): eigenvalue and
//!   eigenvector of an irreducible max-plus matrix, and the cycle time
//!   of a max-plus linear system;
//! * [`asynchronous`] — steady-state cycle period of self-timed
//!   circuits modeled as timed event-rule systems (Burns' original
//!   application).
//!
//! ```
//! use mcr_apps::dataflow::{Actor, DataflowGraph};
//!
//! let mut dfg = DataflowGraph::new();
//! let a = dfg.add_actor(Actor::new("mul", 2));
//! let b = dfg.add_actor(Actor::new("add", 1));
//! dfg.connect(a, b, 0);
//! dfg.connect(b, a, 1); // one delay on the feedback
//! let bound = dfg.iteration_bound().expect("no deadlock").expect("recursive graph");
//! assert_eq!(bound.periods_per_iteration, mcr_core::Ratio64::from(3));
//! ```

pub mod asynchronous;
pub mod dataflow;
pub mod max_plus;
pub mod retiming;

