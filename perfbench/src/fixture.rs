//! Seeded inputs, made exactly the way `grepair gen kg` makes them.

use grepair_core::{lint_rules, parse_rules_with_spans, LintPolicy, RuleSet};
use grepair_gen::{generate_kg, inject_kg_noise, GroundTruth, KgConfig, KgRefs, NoiseConfig};
use grepair_graph::Graph;

/// Noise rate of the 50k-person workloads (`gen kg --noise 0.05`).
pub const NOISE_RATE: f64 = 0.05;

/// A generated knowledge graph with its noise ledger.
pub struct Kg {
    pub clean: Graph,
    pub dirty: Graph,
    pub truth: GroundTruth,
}

/// `gen kg --persons N --seed S` without noise.
pub fn clean_kg(persons: usize, seed: u64) -> (Graph, KgRefs) {
    generate_kg(&KgConfig {
        seed,
        ..KgConfig::with_persons(persons)
    })
}

/// `gen kg --persons N --seed S --noise RATE`: the clean graph, the dirty
/// copy and the ledger of what the injector did.
pub fn noisy_kg(persons: usize, seed: u64, rate: f64) -> Kg {
    let (clean, refs) = clean_kg(persons, seed);
    let mut dirty = clean.clone();
    let truth = inject_kg_noise(
        &mut dirty,
        &refs,
        &NoiseConfig {
            rate,
            seed,
            ..NoiseConfig::default()
        },
    );
    Kg {
        clean,
        dirty,
        truth,
    }
}

/// The gold KG catalog as `gold_kg.grr` text.
pub fn gold_rules_text() -> &'static str {
    grepair_gen::catalog::GOLD_KG_DSL
}

/// Load rule DSL the way `grepair repair -r FILE.grr` does, plus the
/// `--lint` pre-flight analyses.
pub fn load_rules(text: &str) -> Result<RuleSet, String> {
    let (rules, spans) = parse_rules_with_spans(text).map_err(|e| format!("bad rule DSL: {e}"))?;
    let set = RuleSet::new("gold_kg.grr", rules).map_err(|e| format!("invalid rule set: {e}"))?;
    std::hint::black_box(lint_rules(&set.rules, &spans, &LintPolicy::default()));
    Ok(set)
}

#[cfg(test)]
mod traffic_facts {
    use grepair_core::{stratify, trigger_graph, Grr};

    fn stratifies(rules: &[Grr]) -> bool {
        stratify(&trigger_graph(rules)).is_some()
    }

    /// No workload reaches `run_stratified`: none of the shipped rule
    /// sets has an acyclic trigger graph.
    #[test]
    fn no_shipped_rule_set_stratifies() {
        assert!(!stratifies(
            &super::load_rules(super::gold_rules_text()).unwrap().rules
        ));
        assert!(!stratifies(&grepair_gen::social_rules().rules));
        let (clean, _) = super::clean_kg(300, 1);
        let mined: Vec<Grr> = grepair_mine::mine_all(&clean, &grepair_mine::MinerConfig::default())
            .into_iter()
            .map(|m| m.rule)
            .collect();
        assert!(!mined.is_empty());
        assert!(!stratifies(&mined));
    }
}
