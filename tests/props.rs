//! Property-based tests over randomly generated grammars: the
//! counterexample engine must never claim an ambiguity the independent
//! Earley oracle cannot confirm, and the parsing engines must agree on
//! membership, whatever the grammar looks like.
//!
//! The random grammars come from a hand-rolled generator driven by the
//! in-repo deterministic [`XorShift`] PRNG (no external registry access),
//! so every failure is reproducible from the printed seed.

use std::time::Duration;

use lalrcex::core::{validate, CexConfig, Engine, SearchConfig};
use lalrcex::earley::{chart, forest};
use lalrcex::grammar::{Grammar, SymbolId};
use lalrcex::lr::{glr, Automaton};
use lalrcex::prng::XorShift;

mod common;
use common::{build, gen_spec, sym_name};

/// A random word over the terminal alphabet, length 0–5.
fn gen_word(rng: &mut XorShift, g: &Grammar) -> Vec<SymbolId> {
    let len = rng.gen_range(6);
    (0..len)
        .filter_map(|_| g.symbol_named(&sym_name(rng.gen_range(4) as u8)))
        .collect()
}

fn quick_cfg() -> CexConfig {
    CexConfig {
        search: SearchConfig {
            time_limit: Duration::from_millis(300),
            max_configs: 1 << 14,
            ..Default::default()
        },
        cumulative_limit: Duration::from_secs(5),
        ..CexConfig::default()
    }
}

const CASES: u64 = 48;

/// Soundness: every claimed unifying counterexample is a genuine
/// ambiguity (confirmed by the Earley forest oracle), and every
/// produced derivation applies real productions of the grammar.
#[test]
fn unifying_claims_are_sound() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(0xA11CE + seed);
        let spec = gen_spec(&mut rng);
        let g = build(&spec);
        let report = Engine::new(&g).analyze_all(&quick_cfg());
        for r in &report.reports {
            if let Some(u) = &r.unifying {
                assert!(
                    validate::unifying_consistent(&g, u),
                    "seed {seed}: {spec:?}"
                );
                assert!(
                    forest::is_ambiguous_form(&g, u.nonterminal, &u.sentential_form()),
                    "seed {seed}: claimed ambiguity not confirmed: {} for {:?}",
                    u.derivation1.flat(&g),
                    spec
                );
            }
            if let Some(n) = &r.nonunifying {
                assert!(
                    validate::nonunifying_consistent(&g, n),
                    "seed {seed}: {spec:?}"
                );
            }
        }
    }
}

/// GLR and Earley agree on membership of random short strings.
#[test]
fn engines_agree_on_membership() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(0xB0B + seed);
        let spec = gen_spec(&mut rng);
        let g = build(&spec);
        let auto = Automaton::build(&g);
        for _ in 0..4 {
            let input = gen_word(&mut rng, &g);
            let glr_accepts = !glr::parses(
                &g,
                &auto,
                &input,
                glr::Limits {
                    max_parses: 1,
                    max_steps: 100_000,
                    max_depth: 256,
                },
            )
            .is_empty();
            let earley_accepts = chart::recognizes(&g, g.start(), &input);
            assert_eq!(
                glr_accepts,
                earley_accepts,
                "seed {seed}: membership disagreement on {:?} for {:?}",
                g.format_symbols(&input),
                spec
            );
        }
    }
}

/// Structural automaton invariants hold for every grammar.
#[test]
fn automaton_invariants() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(0xCAFE + seed);
        let spec = gen_spec(&mut rng);
        let g = build(&spec);
        let auto = Automaton::build(&g);
        for id in auto.state_ids() {
            let st = auto.state(id);
            assert!(st.kernel_len() >= 1 || id == lalrcex::lr::StateId::START);
            for &(sym, target) in st.transitions() {
                assert_eq!(auto.state(target).accessing_symbol(), Some(sym));
            }
            // Every item's successor state contains the advanced item.
            for &it in st.items() {
                if let Some(next) = it.next_symbol(&g) {
                    let target = st.transition(next).expect("transition for item");
                    assert!(
                        auto.state(target).item_index(it.advance(&g)).is_some(),
                        "seed {seed}: {spec:?}"
                    );
                }
            }
        }
    }
}

/// The deterministic parser accepts exactly the GLR language when the
/// grammar has no conflicts.
#[test]
fn lr_equals_glr_without_conflicts() {
    for seed in 0..CASES * 2 {
        let mut rng = XorShift::new(0xD00D + seed);
        let spec = gen_spec(&mut rng);
        let g = build(&spec);
        let auto = Automaton::build(&g);
        let tables = auto.tables(&g);
        if !tables.conflicts().is_empty() {
            continue; // the property only applies to conflict-free tables
        }
        for _ in 0..4 {
            let input = gen_word(&mut rng, &g);
            let lr = lalrcex::lr::parser::parse(&g, &auto, &tables, &input).is_ok();
            let glr_accepts = !glr::parses(
                &g,
                &auto,
                &input,
                glr::Limits {
                    max_parses: 1,
                    max_steps: 100_000,
                    max_depth: 256,
                },
            )
            .is_empty();
            assert_eq!(lr, glr_accepts, "seed {seed}: {spec:?}");
        }
    }
}
