//! Integration: the full evaluation pipeline end to end.
//!
//! Exercises the harness across crates: dataset → benchmark → systems →
//! EX metric → breakdowns, checking the paper's qualitative findings
//! (who wins, which direction data models move accuracy, latency
//! ordering) rather than exact percentages.

use evalkit::breakdown::by_hardness;
use evalkit::{run_config, run_latency, EvalSetup};
use footballdb::DataModel;
use sqlkit::Hardness;
use std::sync::OnceLock;
use textosql::{Budget, SystemKind};

fn setup() -> &'static EvalSetup {
    static S: OnceLock<EvalSetup> = OnceLock::new();
    S.get_or_init(|| {
        EvalSetup::with_config(
            17,
            &nlq::PipelineConfig {
                raw_questions: 1500,
                pool_size: 500,
                selected_size: 200,
                test_size: 60,
                clusters: 18,
                ..nlq::PipelineConfig::default()
            },
            sqlengine::Dialect::Postgres,
        )
    })
}

fn accuracy(system: SystemKind, model: DataModel, budget: Budget) -> f64 {
    let s = setup();
    let pool: Vec<_> = s
        .benchmark
        .train
        .iter()
        .take(budget.size().max(1))
        .cloned()
        .collect();
    run_config(s, system, model, budget, &pool, "e2e").accuracy()
}

#[test]
fn best_system_accuracy_is_in_the_forties_not_higher() {
    // The paper's central negative result: even the best configurations
    // top out near 41% on real user queries.
    let best = accuracy(
        SystemKind::T5PicardKeys,
        DataModel::V3,
        Budget::FineTuned(300),
    );
    assert!(
        (0.30..0.52).contains(&best),
        "T5-Picard_Keys v3@300 = {best}"
    );
}

#[test]
fn valuenet_prefers_v3_over_v1() {
    let v1 = accuracy(SystemKind::ValueNet, DataModel::V1, Budget::FineTuned(300));
    let v3 = accuracy(SystemKind::ValueNet, DataModel::V3, Budget::FineTuned(300));
    assert!(
        v3 > v1,
        "ValueNet should gain from the data-model redesign: v1={v1} v3={v3}"
    );
}

#[test]
fn keys_encoding_beats_no_keys_at_full_train() {
    for model in DataModel::ALL {
        let without = accuracy(SystemKind::T5Picard, model, Budget::FineTuned(300));
        let with = accuracy(SystemKind::T5PicardKeys, model, Budget::FineTuned(300));
        assert!(
            with > without - 0.02,
            "{model}: keys {with} vs no-keys {without}"
        );
    }
}

#[test]
fn gpt_beats_llama_across_models() {
    let s = setup();
    for model in DataModel::ALL {
        let pool: Vec<_> = s.benchmark.train.iter().take(30).cloned().collect();
        let gpt = run_config(
            s,
            SystemKind::Gpt35,
            model,
            Budget::FewShot(10),
            &pool,
            "e2e",
        )
        .accuracy();
        let llama = run_config(
            s,
            SystemKind::Llama2,
            model,
            Budget::FewShot(8),
            &pool,
            "e2e",
        )
        .accuracy();
        assert!(gpt > llama, "{model}: GPT {gpt} vs LLaMA {llama}");
    }
}

#[test]
fn zero_shot_is_much_worse_than_fine_tuned() {
    let zero = accuracy(
        SystemKind::T5PicardKeys,
        DataModel::V3,
        Budget::FineTuned(0),
    );
    let full = accuracy(
        SystemKind::T5PicardKeys,
        DataModel::V3,
        Budget::FineTuned(300),
    );
    assert!(zero < full - 0.15, "zero {zero} vs full {full}");
}

#[test]
fn hardness_falloff_matches_figure7_shape() {
    let s = setup();
    let run = run_config(
        s,
        SystemKind::T5PicardKeys,
        DataModel::V3,
        Budget::FineTuned(300),
        &s.benchmark.train,
        "e2e-fig7",
    );
    let buckets = by_hardness(&run);
    let acc = |h: Hardness| {
        buckets
            .iter()
            .find(|(x, _)| *x == h)
            .map(|(_, b)| b.accuracy())
            .unwrap_or(0.0)
    };
    // Easy must clearly beat extra-hard; the paper sees ≈77% vs ≈20%.
    let easy = acc(Hardness::Easy);
    let extra = acc(Hardness::Extra);
    assert!(
        easy > extra + 0.2,
        "easy {easy} should dominate extra {extra}"
    );
}

#[test]
fn latency_reproduces_table7_ordering_and_interactivity() {
    let s = setup();
    let lat = run_latency(s);
    let get = |k: SystemKind| lat.iter().find(|(x, _, _)| *x == k).unwrap();
    // Interactive (< 3s): ValueNet and GPT-3.5 only.
    assert!(get(SystemKind::ValueNet).1 < 3.0);
    assert!(get(SystemKind::Gpt35).1 < 3.5);
    // T5-Picard is in minutes; the keys variant roughly halves it.
    assert!(get(SystemKind::T5Picard).1 > 400.0);
    assert!(get(SystemKind::T5PicardKeys).1 > 150.0);
    assert!(get(SystemKind::T5Picard).1 > 1.5 * get(SystemKind::T5PicardKeys).1);
    // LLaMA2 sits between.
    let llama = get(SystemKind::Llama2).1;
    assert!((10.0..80.0).contains(&llama), "llama = {llama}");
}

#[test]
fn evaluation_is_reproducible_under_a_fixed_seed() {
    let s = setup();
    let pool: Vec<_> = s.benchmark.train.iter().take(100).cloned().collect();
    let a = run_config(
        s,
        SystemKind::ValueNet,
        DataModel::V2,
        Budget::FineTuned(100),
        &pool,
        "repro-check",
    );
    let b = run_config(
        s,
        SystemKind::ValueNet,
        DataModel::V2,
        Budget::FineTuned(100),
        &pool,
        "repro-check",
    );
    assert_eq!(a.accuracy(), b.accuracy());
    for (x, y) in a.items.iter().zip(&b.items) {
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.latency, y.latency);
    }
}
