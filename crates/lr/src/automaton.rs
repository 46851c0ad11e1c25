//! LR(0) automaton construction with LALR(1) per-item lookahead sets.
//!
//! The LR(0) states come from the canonical collection; every item of
//! every state then gets its LALR(1) lookahead from the DeRemer–Pennello
//! relations in [`crate::lalr`] — the per-item sets shown in the paper's
//! Figure 2, on which the counterexample engine depends.

use std::collections::HashMap;

use lalrcex_grammar::{Analysis, Grammar, SymbolId, SymbolKind, TerminalSet};

use crate::item::Item;
use crate::lalr::{ClosureShape, Relations};
use crate::table::Tables;

/// Identifies a state of an [`Automaton`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// The start state.
    pub const START: StateId = StateId(0);

    /// Dense index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a state id from an index obtained from
    /// [`StateId::index`].
    pub fn from_index(index: usize) -> StateId {
        StateId(index as u32)
    }
}

impl std::fmt::Debug for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state#{}", self.0)
    }
}

/// One parser state: items (kernel first), per-item lookahead sets, and
/// outgoing transitions.
pub struct State {
    items: Vec<Item>,
    /// The kernel items' lookaheads, then `Follow(p, B)` for each
    /// nonterminal transition `B` (in symbol order), which every closure
    /// item `B -> · γ` shares.
    lookaheads: Vec<TerminalSet>,
    /// Per item: its index into `lookaheads`.
    lookahead_of: Vec<u32>,
    kernel_len: usize,
    transitions: Vec<(SymbolId, StateId)>,
    accessing_symbol: Option<SymbolId>,
}

impl State {
    /// All items: the kernel items first, then closure items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of kernel items (a prefix of [`State::items`]).
    pub fn kernel_len(&self) -> usize {
        self.kernel_len
    }

    /// LALR(1) lookahead set of the item at `idx` in [`State::items`].
    pub fn lookahead(&self, idx: usize) -> &TerminalSet {
        &self.lookaheads[self.lookahead_of[idx] as usize]
    }

    /// Outgoing transitions, sorted by symbol.
    pub fn transitions(&self) -> &[(SymbolId, StateId)] {
        &self.transitions
    }

    /// The target of the transition on `sym`, if any.
    pub fn transition(&self, sym: SymbolId) -> Option<StateId> {
        self.transitions
            .binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|i| self.transitions[i].1)
    }

    /// The symbol on which every transition *into* this state is made
    /// (`None` only for the start state).
    pub fn accessing_symbol(&self) -> Option<SymbolId> {
        self.accessing_symbol
    }

    /// Index of `item` within this state, or `None` if absent.
    pub fn item_index(&self, item: Item) -> Option<usize> {
        self.items.iter().position(|&i| i == item)
    }

    /// Index of `item` among the kernel items (which are sorted), or
    /// `None` if it is not one of them.
    pub(crate) fn kernel_slot(&self, item: Item) -> Option<usize> {
        self.items[..self.kernel_len].binary_search(&item).ok()
    }
}

/// The LR(0) automaton of a grammar, annotated with LALR(1) lookaheads.
pub struct Automaton {
    states: Vec<State>,
    analysis: Analysis,
    relations: Relations,
}

/// LR(0) closure: expands `kernel` (kept first, in the given order) with
/// the start items of every nonterminal that appears after a dot.
/// `added` is scratch space indexed by symbol, all `false` on entry and
/// on return.
fn closure(g: &Grammar, kernel: &[Item], added: &mut [bool]) -> Vec<Item> {
    let mut items: Vec<Item> = kernel.to_vec();
    let mut idx = 0;
    while idx < items.len() {
        let it = items[idx];
        idx += 1;
        if let Some(next) = it.next_symbol(g) {
            if g.kind(next) == SymbolKind::Nonterminal && !added[next.index()] {
                added[next.index()] = true;
                items.extend(g.prods_of(next).iter().map(|&pid| Item::start(pid)));
            }
        }
    }
    for it in &items[kernel.len()..] {
        added[g.prod(it.prod()).lhs().index()] = false;
    }
    // Deterministic order for closure items (kernel keeps its order).
    items[kernel.len()..].sort_unstable();
    items
}

/// The canonical collection of LR(0) item sets, numbered in discovery
/// order, with empty lookaheads.
fn lr0_states(g: &Grammar) -> Vec<State> {
    let mut added = vec![false; g.symbol_count()];
    let mut kernels: HashMap<Vec<Item>, StateId> = HashMap::new();
    let start_kernel = vec![Item::start(g.accept_prod())];
    kernels.insert(start_kernel.clone(), StateId(0));
    let mut states = vec![State {
        items: closure(g, &start_kernel, &mut added),
        lookaheads: Vec::new(),
        lookahead_of: Vec::new(),
        kernel_len: 1,
        transitions: Vec::new(),
        accessing_symbol: None,
    }];

    // `group[sym]`: index into `by_symbol` of `sym`'s group, or MAX.
    let mut group = vec![u32::MAX; g.symbol_count()];
    let mut work = 0;
    while work < states.len() {
        // Group items by their next symbol, in first-appearance order.
        let mut by_symbol: Vec<(SymbolId, Vec<Item>)> = Vec::new();
        for &it in &states[work].items {
            if let Some(next) = it.next_symbol(g) {
                match group[next.index()] {
                    u32::MAX => {
                        group[next.index()] = by_symbol.len() as u32;
                        by_symbol.push((next, vec![it.advance(g)]));
                    }
                    gi => by_symbol[gi as usize].1.push(it.advance(g)),
                }
            }
        }
        let mut transitions = Vec::with_capacity(by_symbol.len());
        for (sym, mut kernel) in by_symbol {
            group[sym.index()] = u32::MAX;
            kernel.sort_unstable();
            kernel.dedup();
            let next_id = match kernels.get(&kernel) {
                Some(&id) => id,
                None => {
                    let id = StateId(states.len() as u32);
                    states.push(State {
                        items: closure(g, &kernel, &mut added),
                        lookaheads: Vec::new(),
                        lookahead_of: Vec::new(),
                        kernel_len: kernel.len(),
                        transitions: Vec::new(),
                        accessing_symbol: Some(sym),
                    });
                    kernels.insert(kernel, id);
                    id
                }
            };
            transitions.push((sym, next_id));
        }
        transitions.sort_unstable_by_key(|&(s, _)| s);
        states[work].transitions = transitions;
        work += 1;
    }
    states
}

impl Automaton {
    /// Builds the automaton (states, transitions, LALR(1) lookaheads).
    pub fn build(g: &Grammar) -> Automaton {
        let analysis = Analysis::new(g);
        let mut states = lr0_states(g);
        let (relations, follow, kernel) = Relations::build(g, &analysis, &states);
        // Kernel slots and rows are both numbered state by state: move each
        // state's kernel sets in, then the Follow sets of its own rows.
        let (mut follow, mut kernel) = (follow.into_iter(), kernel.into_iter());
        for (q, st) in states.iter_mut().enumerate() {
            let q = StateId(q as u32);
            let rows = relations.rows(q).len();
            let mut sets = Vec::with_capacity(st.kernel_len + rows);
            sets.extend(kernel.by_ref().take(st.kernel_len));
            sets.extend(follow.by_ref().take(rows));
            st.lookahead_of = relations.lookahead_slots(g, q, st);
            st.lookaheads = sets;
        }
        Automaton {
            states,
            analysis,
            relations,
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// A state by id.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len() as u32).map(StateId)
    }

    /// The grammar analyses computed during construction.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The DeRemer–Pennello relations the lookaheads were computed from.
    pub fn relations(&self) -> &Relations {
        &self.relations
    }

    /// `Follow(p, A)` of a goto row of [`Automaton::relations`] (stored
    /// once, in state `p`, shared with its closure items `A -> · γ`).
    pub fn follow(&self, row: usize) -> &TerminalSet {
        let (p, local) = self.relations.locate(row);
        let st = &self.states[p.index()];
        &st.lookaheads[st.kernel_len + local]
    }

    /// The LR(1) closure shape of state `q` (see [`ClosureShape`]).
    pub fn closure_shape(&self, g: &Grammar, q: StateId) -> ClosureShape {
        ClosureShape::new(g, &self.analysis, &self.states, q)
    }

    /// Builds action/goto tables, resolving conflicts by precedence and
    /// recording the rest. See [`Tables`].
    pub fn tables(&self, g: &Grammar) -> Tables {
        Tables::build(g, self)
    }

    /// Renders a state like the paper's Figure 2 (items with lookaheads,
    /// then transitions).
    pub fn dump_state(&self, g: &Grammar, id: StateId) -> String {
        let st = self.state(id);
        let mut out = format!("State {}\n", id.0);
        for (i, &it) in st.items().iter().enumerate() {
            let la: Vec<&str> = st
                .lookahead(i)
                .iter()
                .map(|t| g.display_name(g.terminal(t)))
                .collect();
            out.push_str(&format!("  {}  {{{}}}\n", it.display(g), la.join(", ")));
        }
        for &(sym, target) in st.transitions() {
            out.push_str(&format!(
                "  {} => State {}\n",
                g.display_name(sym),
                target.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalrcex_grammar::Grammar;

    /// The paper's Figure 1 grammar.
    fn figure1() -> Grammar {
        Grammar::parse(
            "%start stmt
             %%
             stmt : 'if' expr 'then' stmt 'else' stmt
                  | 'if' expr 'then' stmt
                  | expr '?' stmt stmt
                  | 'arr' '[' expr ']' ':=' expr
                  ;
             expr : num | expr '+' expr ;
             num  : digit | num digit ;",
        )
        .unwrap()
    }

    #[test]
    fn figure1_state_count_matches_paper() {
        // Table 1 row `figure1`: 24 states.
        let g = figure1();
        let auto = Automaton::build(&g);
        assert_eq!(auto.state_count(), 24);
    }

    #[test]
    fn start_state_has_closure_of_start_symbol() {
        let g = figure1();
        let auto = Automaton::build(&g);
        let s0 = auto.state(StateId::START);
        assert_eq!(s0.kernel_len(), 1);
        // 1 accept + 4 stmt + 2 expr + 2 num items.
        assert_eq!(s0.items().len(), 9);
        assert_eq!(s0.accessing_symbol(), None);
    }

    #[test]
    fn accessing_symbols_are_consistent() {
        let g = figure1();
        let auto = Automaton::build(&g);
        for id in auto.state_ids() {
            for &(sym, target) in auto.state(id).transitions() {
                assert_eq!(auto.state(target).accessing_symbol(), Some(sym));
            }
        }
    }

    #[test]
    fn dangling_else_lookaheads() {
        // Find the state containing `stmt -> if expr then stmt ·` — its
        // lookahead must contain both `else` (enabling the conflict) and $.
        let g = figure1();
        let auto = Automaton::build(&g);
        let stmt = g.symbol_named("stmt").unwrap();
        let short_if = g.prods_of(stmt)[1];
        let else_t = g.tindex(g.symbol_named("else").unwrap());
        let eof = g.tindex(SymbolId::EOF);
        let mut found = false;
        for id in auto.state_ids() {
            let st = auto.state(id);
            for (i, &it) in st.items().iter().enumerate() {
                if it.prod() == short_if && it.is_reduce(&g) {
                    found = true;
                    assert!(
                        st.lookahead(i).contains(else_t),
                        "{}",
                        auto.dump_state(&g, id)
                    );
                    assert!(st.lookahead(i).contains(eof));
                    // That same state must also contain the long-if shift item.
                    let long_if = g.prods_of(stmt)[0];
                    let shift = Item::new(long_if, 4);
                    assert!(st.item_index(shift).is_some());
                }
            }
        }
        assert!(found, "reduce item never appeared");
    }

    #[test]
    fn closure_item_lookaheads_match_figure2() {
        // In Figure 2's State 6 the closure item `expr -> · num` has
        // lookahead {then, +}.
        let g = figure1();
        let auto = Automaton::build(&g);
        let s6 = auto
            .state(StateId::START)
            .transition(g.symbol_named("if").unwrap())
            .unwrap();
        let st = auto.state(s6);
        let expr = g.symbol_named("expr").unwrap();
        let num_prod = g.prods_of(expr)[0];
        let idx = st.item_index(Item::start(num_prod)).unwrap();
        let la = st.lookahead(idx);
        let then_t = g.tindex(g.symbol_named("then").unwrap());
        let plus_t = g.tindex(g.symbol_named("+").unwrap());
        assert!(la.contains(then_t));
        assert!(la.contains(plus_t));
        assert_eq!(la.len(), 2, "{}", auto.dump_state(&g, s6));
    }

    #[test]
    fn lr0_grammar_has_deterministic_lookaheads() {
        let g = Grammar::parse("%% s : s A | A ;").unwrap();
        let auto = Automaton::build(&g);
        // Left-recursive list grammar: 4 LR(0) states + accept bookkeeping.
        assert!(auto.state_count() >= 4);
        // No state may contain two reduce items with intersecting lookaheads.
        for id in auto.state_ids() {
            let st = auto.state(id);
            let reduces: Vec<usize> = (0..st.items().len())
                .filter(|&i| st.items()[i].is_reduce(&g))
                .collect();
            for (a, &i) in reduces.iter().enumerate() {
                for &j in &reduces[a + 1..] {
                    assert!(!st.lookahead(i).intersects(st.lookahead(j)));
                }
            }
        }
    }
}
