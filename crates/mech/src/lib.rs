//! Differential-privacy substrate: budgets, query sequences, sensitivity,
//! and the Laplace mechanism.
//!
//! This crate implements Sec. 2 of the paper:
//!
//! * [`Epsilon`] / [`PrivacyBudget`] / [`PrivacyAccountant`] — the privacy
//!   parameter and sequential composition (a protocol answering sequence
//!   *i* with `εᵢ` is `Σεᵢ`-differentially private); the accountant adds
//!   named (ε,δ) ledger entries for serving-layer audit trails.
//! * [`QuerySequence`] — the abstraction for the paper's vector-valued count
//!   queries, with the three concrete strategies:
//!   [`UnitQuery`] (`L`), [`SortedQuery`] (`S`, Sec. 3) and
//!   [`HierarchicalQuery`] (`H`, Sec. 4).
//! * Analytic sensitivities (Propositions 3 and 4) plus an
//!   [`empirical_sensitivity`] bound used by tests to validate them.
//! * [`LaplaceMechanism`] — Proposition 1: add i.i.d. `Lap(Δ/ε)` noise to
//!   each true answer.
//!
//! Constrained inference (the paper's contribution) lives in `hc-core`; this
//! crate releases the *noisy* outputs it post-processes.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

mod budget;
mod confidence;
mod laplace_mech;
mod query;
mod sensitivity;
pub mod sequences;

pub use budget::{BudgetError, Epsilon, LedgerEntry, PrivacyAccountant, PrivacyBudget};
pub use confidence::{laplace_half_width, ConfidenceInterval};
pub use laplace_mech::{LaplaceMechanism, NoisyOutput, PreparedMechanism};
// The sampling-backend choice travels with the mechanism, so re-export it
// here: code configuring a `LaplaceMechanism` should not need a direct
// `hc-noise` dependency just to name a backend.
pub use hc_noise::NoiseBackend;
pub use query::QuerySequence;
pub use sensitivity::empirical_sensitivity;
pub use sequences::{HierarchicalQuery, SortedQuery, TreeShape, UnitQuery};
