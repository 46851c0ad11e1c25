//! The random-grammar generator shared by the property tests and the
//! lookahead snapshot: driven by the in-repo deterministic [`XorShift`]
//! PRNG, so every grammar is reproducible from its seed.

use lalrcex::grammar::{Grammar, GrammarBuilder};
use lalrcex::prng::XorShift;

/// A compact description of a random grammar: for each nonterminal, a few
/// productions over a mixed alphabet.
#[derive(Clone, Debug)]
pub struct GrammarSpec {
    /// prods[i] = productions of nonterminal `ni`; each production is a
    /// sequence of symbol codes (0..3 = terminals t0..t3, 4..6 = n0..n2).
    pub prods: Vec<Vec<Vec<u8>>>,
}

pub const NT_COUNT: usize = 3;

pub fn nt_name(i: usize) -> String {
    format!("n{i}")
}

pub fn sym_name(code: u8) -> String {
    match code {
        0..=3 => format!("t{code}"),
        other => nt_name((other - 4) as usize % NT_COUNT),
    }
}

/// Hand-rolled replacement for the former proptest strategy: for each of
/// the three nonterminals, 1–3 productions of 0–3 symbols each, codes
/// uniform over 4 terminals + 3 nonterminals.
pub fn gen_spec(rng: &mut XorShift) -> GrammarSpec {
    let prods = (0..NT_COUNT)
        .map(|_| {
            let nprods = 1 + rng.gen_range(3);
            (0..nprods)
                .map(|_| {
                    let len = rng.gen_range(4);
                    (0..len).map(|_| rng.gen_range(7) as u8).collect()
                })
                .collect()
        })
        .collect();
    GrammarSpec { prods }
}

pub fn build(spec: &GrammarSpec) -> Grammar {
    let mut b = GrammarBuilder::new();
    b.start(&nt_name(0));
    for (i, prods) in spec.prods.iter().enumerate() {
        let lhs = nt_name(i);
        for p in prods {
            let names: Vec<String> = p.iter().map(|&c| sym_name(c)).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            b.rule(&lhs, &refs);
        }
    }
    b.build().expect("random grammars are structurally valid")
}
