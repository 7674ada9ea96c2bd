//! `textosql` — the Text-to-SQL system framework.
//!
//! The paper's primary contribution is an evaluation of the Text-to-SQL
//! *design space* (Section 2.2): data model, language model, training
//! data size, and pre-/post-processing. This crate implements that
//! design space as composable pieces:
//!
//! * [`schema_encode`] — schema serialization with/without PK/FK keys
//!   (dimension D4, Table 4's encoding row);
//! * [`ir`] + [`joinpath`] — the SemQL intermediate representation and
//!   the shortest-join-path SQL reconstruction, including its
//!   single-FK-reference limitation (the mechanism behind the v1
//!   failures of Section 5.1);
//! * [`decode`] — Picard-style grammar- and schema-constrained decoding;
//! * [`retrieval`] — few-shot example retrieval under context budgets
//!   (LLaMA2's 4,096-token cap);
//! * [`capability`] — the calibrated stochastic capability model
//!   standing in for model weights (targets from Tables 5/6, difficulty
//!   multipliers for Figures 7/8, mechanistic vetoes). It also carries
//!   the effect of pre-processing the systems do not run here — schema
//!   linking and ValueNet's value finder — as per-item penalties such as
//!   the lexical gap;
//! * [`systems`] — the five evaluated systems (ValueNet, T5-Picard,
//!   T5-Picard_Keys, GPT-3.5, LLaMA2-70B) composed per Table 4;
//! * [`cost`] — the inference-latency model (Table 7);
//! * [`stage`] — pipeline-stage tags for failure attribution
//!   (`evalkit::forensics`).
//!
//! # Example
//!
//! ```
//! use textosql::joinpath::JoinGraph;
//! use footballdb::DataModel;
//!
//! // The v1 data model's match↔national_team edge carries two FK
//! // references, so the SemQL join-path algorithm cannot use it:
//! let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
//! assert!(g.shortest_path("match", "national_team").is_err());
//! // After the v2 remodeling the path exists (via a bridge table):
//! let g2 = JoinGraph::from_catalog(&DataModel::V2.catalog());
//! assert!(g2.shortest_path("match", "national_team").is_ok());
//! ```

pub mod capability;
pub mod cost;
pub mod decode;
pub mod fault;
pub mod ir;
pub mod joinpath;
pub mod prompt;
pub mod retrieval;
pub mod schema_encode;
pub mod stage;
pub mod systems;

pub use capability::{
    profile_items, profile_items_with_db, success_probabilities, target_accuracy, Budget,
    ItemProfile, SystemKind,
};
pub use cost::{latency, mean_sd, params as cost_params, CostParams};
pub use decode::{constrain, DecodeOutcome};
pub use fault::{corrupt_sql, FaultKind, FaultPlan, RetryPolicy, SimClock};
pub use ir::{IrError, SemQl};
pub use joinpath::{JoinGraph, JoinPathError};
pub use retrieval::RetrievalIndex;
pub use stage::PipelineStage;
pub use systems::{predict, predict_governed, GovernedPrediction, Prediction, SystemContext};
