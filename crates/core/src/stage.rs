//! Pipeline-stage tags for failure attribution.
//!
//! The forensics layer (`evalkit::forensics`) maps every failed item —
//! clause-diff classes for `wrong_result` items, failure kinds for the
//! rest — onto the stage of the text-to-SQL pipeline that most plausibly
//! produced it. The stages mirror the system composition in [`crate`]:
//! schema linking (attributed from clause diffs; the simulated systems
//! do not run a linker), join-path inference ([`crate::joinpath`]),
//! constrained decoding ([`crate::decode`]), the model/provider
//! boundary, and downstream query execution.

/// The pipeline stage a failure is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PipelineStage {
    /// Schema/value linking: wrong table, column, or literal chosen from
    /// database content (value-linking misses land here).
    SchemaLinking,
    /// Join-path inference: right tables, wrong way of connecting them —
    /// or runaway joins that blow the fuel budget.
    JoinPath,
    /// Decoding/generation: malformed SQL, dropped or invented clauses
    /// that no linking step is responsible for.
    Decoding,
    /// The model/provider boundary: no SQL produced, provider errors,
    /// or a panic isolated by the harness.
    Provider,
    /// Query execution: resource exhaustion and engine-side errors that
    /// are not attributable to a specific upstream stage.
    Execution,
}

impl PipelineStage {
    pub const ALL: [PipelineStage; 5] = [
        PipelineStage::SchemaLinking,
        PipelineStage::JoinPath,
        PipelineStage::Decoding,
        PipelineStage::Provider,
        PipelineStage::Execution,
    ];

    /// Stable snake_case name used in JSON sections and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineStage::SchemaLinking => "schema_linking",
            PipelineStage::JoinPath => "join_path",
            PipelineStage::Decoding => "decoding",
            PipelineStage::Provider => "provider",
            PipelineStage::Execution => "execution",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_ordered_like_all() {
        let names: Vec<&str> = PipelineStage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        let mut sorted = PipelineStage::ALL;
        sorted.sort();
        assert_eq!(sorted, PipelineStage::ALL);
    }
}
