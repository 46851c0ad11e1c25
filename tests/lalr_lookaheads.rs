//! Pins the LALR(1) per-item lookahead sets of every grammar we ship, and
//! checks them against an independent canonical LR(1) construction.
//!
//! The snapshot holds, per grammar, the state count, the item count and an
//! FNV-1a digest of every state's items with their lookahead sets. It
//! covers all 42 corpus rows, the committed yacc twins and a fixed-seed
//! sample of the `tests/props.rs` random grammars. Regenerate a deliberate
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test lalr_lookaheads
//! ```
//!
//! The oracle builds canonical LR(1) with its own closure and goto, merges
//! its states by LR(0) core, and requires every item's LALR lookahead to
//! equal the union of the lookaheads its canonical variants carry.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use lalrcex::grammar::{Analysis, Grammar, SymbolId, TerminalSet};
use lalrcex::lr::{Automaton, Item};
use lalrcex::prng::XorShift;

mod common;

/// Committed yacc twins (`tests/yacc_twins/`).
const YACC_TWINS: &[&str] = &[
    "figure1.y",
    "eqn.y",
    "simp2.y",
    "SQL_1.y",
    "stackovf08.y",
    "Pascal_2.y",
    "C_3.y",
    "Java_2.y",
];

/// Random grammars pinned by the snapshot: seeds `RANDOM_SEED_BASE + i`.
const RANDOM_CASES: u64 = 64;
const RANDOM_SEED_BASE: u64 = 0x1A1A;

/// Canonical LR(1) state budget for the oracle; grammars whose canonical
/// automaton is larger are skipped by it (the snapshot still covers them).
const ORACLE_BUDGET: usize = 6_000;

/// Every grammar the snapshot covers, labelled, in a fixed order.
fn grammars() -> Vec<(String, Grammar)> {
    let mut out = Vec::new();
    for entry in lalrcex::corpus::all() {
        let g = entry
            .load()
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        out.push((entry.name.to_string(), g));
    }
    for file in YACC_TWINS {
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/yacc_twins"))
            .join(file);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let g = lalrcex::yacc::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        out.push((format!("yacc/{file}"), g));
    }
    for i in 0..RANDOM_CASES {
        let seed = RANDOM_SEED_BASE + i;
        let spec = common::gen_spec(&mut XorShift::new(seed));
        out.push((format!("random/{seed:#x}"), common::build(&spec)));
    }
    out
}

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One snapshot line: state count, item count and the lookahead digest.
fn snapshot_line(name: &str, auto: &Automaton) -> String {
    let mut h = Fnv::new();
    let mut items = 0usize;
    for sid in auto.state_ids() {
        let st = auto.state(sid);
        h.word(sid.index() as u64);
        for (i, &it) in st.items().iter().enumerate() {
            items += 1;
            h.word(it.prod().index() as u64);
            h.word(it.dot() as u64);
            for t in st.lookahead(i).iter() {
                h.word(t as u64);
            }
            h.word(u64::MAX);
        }
    }
    format!(
        "{name} states={} items={items} la_fnv={:016x}",
        auto.state_count(),
        h.0
    )
}

#[test]
fn lalr_lookaheads_match_snapshot() {
    let mut snapshot = String::new();
    for (name, g) in grammars() {
        let auto = Automaton::build(&g);
        let _ = writeln!(snapshot, "{}", snapshot_line(&name, &auto));
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/snapshots/lalr_lookaheads.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &snapshot).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("snapshots/lalr_lookaheads.txt exists (UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        snapshot, golden,
        "LALR lookahead snapshot drifted; if deliberate, regenerate with \
         UPDATE_GOLDEN=1 and review the diff"
    );
}

// ---------------------------------------------------------------------------
// Independent canonical LR(1) oracle.
// ---------------------------------------------------------------------------

/// A canonical LR(1) item set: items sorted, each with its lookahead set.
type Lr1Set = Vec<(Item, TerminalSet)>;

/// Canonical LR(1) closure: `[A -> α · B β, a]` adds `[B -> · γ, b]` for
/// every `b ∈ FIRST(β a)`, to a fixpoint. Returned sorted by item.
fn lr1_closure(g: &Grammar, an: &Analysis, kernel: &Lr1Set) -> Lr1Set {
    let mut set: HashMap<Item, TerminalSet> = kernel.iter().cloned().collect();
    let mut work: Vec<Item> = kernel.iter().map(|&(it, _)| it).collect();
    while let Some(it) = work.pop() {
        let Some(next) = it.next_symbol(g) else {
            continue;
        };
        if !g.is_nonterminal(next) {
            continue;
        }
        let la = set[&it].clone();
        let add = an.first_of_seq(g, &it.tail(g)[1..], &la);
        for &pid in g.prods_of(next) {
            let target = Item::start(pid);
            let changed = match set.get_mut(&target) {
                Some(existing) => existing.union_with(&add),
                None => {
                    set.insert(target, add.clone());
                    true
                }
            };
            if changed {
                work.push(target);
            }
        }
    }
    let mut out: Lr1Set = set.into_iter().collect();
    out.sort_by_key(|&(it, _)| it);
    out
}

/// Builds canonical LR(1) breadth-first; returns, per LR(0) kernel, the
/// union of every canonical variant's item lookaheads — or `None` when the
/// automaton exceeds `budget` states.
fn canonical_merged(g: &Grammar, budget: usize) -> Option<HashMap<Vec<Item>, Lr1Set>> {
    let an = Analysis::new(g);
    let nterm = g.terminal_count();
    let start: Lr1Set = vec![(
        Item::start(g.accept_prod()),
        TerminalSet::singleton(nterm, g.tindex(SymbolId::EOF)),
    )];
    let mut seen: HashMap<Lr1Set, ()> = HashMap::new();
    seen.insert(start.clone(), ());
    let mut queue = VecDeque::from([start]);
    let mut merged: HashMap<Vec<Item>, Lr1Set> = HashMap::new();
    while let Some(kernel) = queue.pop_front() {
        if seen.len() > budget {
            return None;
        }
        let core: Vec<Item> = kernel.iter().map(|&(it, _)| it).collect();
        let closure = lr1_closure(g, &an, &kernel);
        match merged.get_mut(&core) {
            Some(acc) => {
                for ((ai, ala), (ci, cla)) in acc.iter_mut().zip(&closure) {
                    assert_eq!(ai, ci, "equal cores close to equal item sets");
                    ala.union_with(cla);
                }
            }
            None => {
                merged.insert(core, closure.clone());
            }
        }
        let mut by_symbol: Vec<(SymbolId, Lr1Set)> = Vec::new();
        for (it, la) in &closure {
            let Some(next) = it.next_symbol(g) else {
                continue;
            };
            let adv = (it.advance(g), la.clone());
            match by_symbol.iter_mut().find(|(s, _)| *s == next) {
                Some((_, v)) => v.push(adv),
                None => by_symbol.push((next, vec![adv])),
            }
        }
        for (_, mut succ) in by_symbol {
            succ.sort_by_key(|&(it, _)| it);
            if !seen.contains_key(&succ) {
                seen.insert(succ.clone(), ());
                queue.push_back(succ);
            }
        }
    }
    Some(merged)
}

#[test]
fn lalr_lookaheads_equal_merged_canonical_lr1() {
    let mut checked = 0usize;
    for (name, g) in grammars() {
        let Some(merged) = canonical_merged(&g, ORACLE_BUDGET) else {
            continue;
        };
        checked += 1;
        let auto = Automaton::build(&g);
        assert_eq!(
            merged.len(),
            auto.state_count(),
            "{name}: one core per state"
        );
        for sid in auto.state_ids() {
            let st = auto.state(sid);
            let mut core = st.items()[..st.kernel_len()].to_vec();
            core.sort_unstable();
            let canon = merged
                .get(&core)
                .unwrap_or_else(|| panic!("{name}: {sid:?} has no canonical variant"));
            assert_eq!(canon.len(), st.items().len(), "{name}: {sid:?} item count");
            for (i, &it) in st.items().iter().enumerate() {
                let j = canon
                    .binary_search_by_key(&it, |&(ci, _)| ci)
                    .unwrap_or_else(|_| panic!("{name}: {sid:?} lacks {}", it.display(&g)));
                assert_eq!(
                    st.lookahead(i),
                    &canon[j].1,
                    "{name}: {sid:?} item {}\n{}",
                    it.display(&g),
                    auto.dump_state(&g, sid)
                );
            }
        }
    }
    // All but the largest canonical automaton (one Java row) fit.
    assert!(checked >= 110, "oracle covered only {checked} grammars");
}

/// A state's closure shape, applied to its LALR kernel lookaheads, must
/// give back every item's LALR lookahead: the closure is the same map the
/// canonical LR(1) merge check applies to each canonical kernel.
#[test]
fn closure_shapes_reproduce_lalr_closures() {
    for (name, g) in grammars() {
        let auto = Automaton::build(&g);
        for q in auto.state_ids() {
            let st = auto.state(q);
            let kernel: Vec<TerminalSet> = (0..st.kernel_len())
                .map(|i| st.lookahead(i).clone())
                .collect();
            let closed = auto.closure_shape(&g, q).close(&kernel);
            for (i, la) in closed.iter().enumerate() {
                assert_eq!(la, st.lookahead(i), "{name}: {q:?} item {i}");
            }
        }
    }
}
