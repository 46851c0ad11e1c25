//! LALR(1) lookaheads by the DeRemer–Pennello relations.
//!
//! Every nonterminal transition `(p, A)` of the LR(0) automaton is a *goto
//! row*. Over the rows:
//!
//! * `DR(p, A)` — terminals shifted directly out of `goto(p, A)`;
//! * `(p, A) reads (r, C)` — `goto(p, A) = r` and `r` has a transition on
//!   a *nullable* nonterminal `C`, so whatever follows `C` can follow `A`;
//! * `(p, A) includes (p', B)` — some production `B -> β A γ` with
//!   `γ =>* ε` lets `A`'s context inherit `B`'s context, where `p'`
//!   reaches `p` spelling `β`;
//! * `(q, A -> α · β) lookback (p, A)` — `p` reaches `q` spelling `α`.
//!
//! `Read` is `DR` closed over `reads` and `Follow` is `Read` closed over
//! `includes`, each by one linear-time `digraph` traversal. Every item's
//! lookahead then follows from `Follow` alone: a closure item `B -> · γ` of
//! state `p` carries `Follow(p, B)` (stored once, in `p`); a kernel item
//! carries the union of `Follow` over its lookback sources. A forward walk
//! of each goto row's productions finds the `includes` edges and the
//! reduce items' lookback rows; once `Follow` is closed, the same walk
//! fills the kernel items.
//!
//! [`Relations`] keeps the edges, not just the fixpoint sets, so the
//! provenance analysis can walk them to explain a lookahead. The
//! [`ClosureShape`] of a state is the same closure as a linear map from
//! kernel lookaheads to item lookaheads, which the canonical LR(1)
//! exploration applies once per canonical state.

use lalrcex_grammar::{Analysis, Grammar, ProdId, SymbolId, TerminalSet};

use crate::automaton::{Automaton, State, StateId};
use crate::item::Item;

/// Rows of variable-length lists in one allocation (compressed sparse
/// rows): list `i` is `items[base[i]..base[i + 1]]`.
struct Csr<T> {
    base: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// Groups `(row, value)` pairs into `rows` lists, keeping each list's
    /// values in input order.
    fn from_pairs(rows: usize, mut pairs: Vec<(u32, T)>) -> Csr<T> {
        pairs.sort_by_key(|&(r, _)| r);
        let mut base = vec![0u32; rows + 1];
        for &(r, _) in &pairs {
            base[r as usize + 1] += 1;
        }
        for i in 0..rows {
            base[i + 1] += base[i];
        }
        Csr {
            base,
            items: pairs.into_iter().map(|(_, v)| v).collect(),
        }
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.base[i] as usize..self.base[i + 1] as usize]
    }
}

/// `(&mut sets[dst], &sets[src])`, for `dst != src`.
fn dst_src(sets: &mut [TerminalSet], dst: usize, src: usize) -> (&mut TerminalSet, &TerminalSet) {
    if dst < src {
        let (lo, hi) = sets.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = sets.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

/// `sets[dst] ∪= sets[src]`.
fn union_rows(sets: &mut [TerminalSet], dst: usize, src: usize) {
    if dst != src {
        let (d, s) = dst_src(sets, dst, src);
        d.union_with(s);
    }
}

/// DeRemer and Pennello's `digraph`: closes `sets` over `rel`, so that
/// `F(x) = F'(x) ∪ ⋃ { F(y) | x rel y }`, with one Tarjan traversal in
/// which every member of a strongly connected component ends with the
/// component's set. Iterative: relation chains of any depth run in
/// constant stack.
fn digraph<T: Copy>(rel: &Csr<T>, target: impl Fn(T) -> usize, sets: &mut [TerminalSet]) {
    const DONE: u32 = u32::MAX;
    let n = sets.len();
    // `depth[x]`: 0 unvisited, DONE finished, else x's lowest reachable
    // position on `stack` (1-based).
    let mut depth = vec![0u32; n];
    let mut stack: Vec<usize> = Vec::new();
    // Active traversals: (node, its own stack position, next edge).
    let mut calls: Vec<(usize, u32, usize)> = Vec::new();
    for root in 0..n {
        if depth[root] != 0 {
            continue;
        }
        stack.push(root);
        depth[root] = stack.len() as u32;
        calls.push((root, depth[root], 0));
        while let Some(top) = calls.last_mut() {
            let (x, d, edge) = *top;
            if let Some(&e) = rel.row(x).get(edge) {
                top.2 += 1;
                let y = target(e);
                if depth[y] == 0 {
                    stack.push(y);
                    depth[y] = stack.len() as u32;
                    calls.push((y, depth[y], 0));
                } else {
                    depth[x] = depth[x].min(depth[y]);
                    union_rows(sets, x, y);
                }
                continue;
            }
            calls.pop();
            if depth[x] == d {
                // x roots a component: everything above it on the stack
                // shares its set.
                while let Some(y) = stack.pop() {
                    depth[y] = DONE;
                    if y == x {
                        break;
                    }
                    let (d, s) = dst_src(sets, y, x);
                    d.clone_from(s);
                }
            }
            if let Some(&(parent, _, _)) = calls.last() {
                depth[parent] = depth[parent].min(depth[x]);
                union_rows(sets, parent, x);
            }
        }
    }
}

/// The DeRemer–Pennello relations of an automaton, with their edges (see
/// the module docs). Rows are numbered state by state, and within a state
/// in transition-symbol order.
pub struct Relations {
    /// State `p`'s goto rows are `row_base[p]..row_base[p + 1]`.
    row_base: Vec<u32>,
    /// Per row: the nonterminal and the goto target.
    gotos: Vec<(SymbolId, StateId)>,
    /// Per row: its `reads` successors, ascending.
    reads: Csr<u32>,
    /// Per row: its `includes` successors, ascending, each with the
    /// smallest production witnessing the edge.
    includes: Csr<(u32, ProdId)>,
    /// State `q`'s kernel items are slots `kernel_base[q]..` of `lookback`.
    kernel_base: Vec<u32>,
    /// Per kernel slot holding a reduce item: its lookback rows, ascending.
    lookback: Csr<u32>,
}

/// Visits every step of the forward walk: for goto row `j = (p, B)` and
/// each production `B -> ω`, `visit(j, production, k, cur, next)` as `ω[k]`
/// takes the walk from `cur` (where `p` reaches spelling `ω[..k]`) to
/// `next`.
fn for_each_step(
    g: &Grammar,
    states: &[State],
    row_base: &[u32],
    gotos: &[(SymbolId, StateId)],
    mut visit: impl FnMut(u32, ProdId, usize, StateId, StateId),
) {
    for p in 0..states.len() {
        for j in row_base[p]..row_base[p + 1] {
            for &pid in g.prods_of(gotos[j as usize].0) {
                let mut cur = StateId::from_index(p);
                for (k, &sym) in g.prod(pid).rhs().iter().enumerate() {
                    let Some(next) = states[cur.index()].transition(sym) else {
                        break;
                    };
                    visit(j, pid, k, cur, next);
                    cur = next;
                }
            }
        }
    }
}

impl Relations {
    /// Builds the relations over `states` (LR(0) items and transitions)
    /// and closes `Read` and `Follow`. Returns `Follow` per row and the
    /// kernel items' lookaheads per kernel slot (state by state).
    pub(crate) fn build(
        g: &Grammar,
        analysis: &Analysis,
        states: &[State],
    ) -> (Relations, Vec<TerminalSet>, Vec<TerminalSet>) {
        let nterm = g.terminal_count();
        let mut row_base = Vec::with_capacity(states.len() + 1);
        let mut gotos = Vec::new();
        let mut kernel_base = Vec::with_capacity(states.len() + 1);
        let mut kernel_slots = 0u32;
        for st in states {
            row_base.push(gotos.len() as u32);
            kernel_base.push(kernel_slots);
            kernel_slots += st.kernel_len() as u32;
            gotos.extend(
                st.transitions()
                    .iter()
                    .filter(|&&(sym, _)| g.is_nonterminal(sym)),
            );
        }
        row_base.push(gotos.len() as u32);
        kernel_base.push(kernel_slots);
        gotos.shrink_to_fit();

        // DR and reads: look one step past each goto target.
        let mut read = Vec::with_capacity(gotos.len());
        let mut reads = Vec::new();
        for (i, &(_, r)) in gotos.iter().enumerate() {
            let mut dr = TerminalSet::empty(nterm);
            for &(sym, _) in states[r.index()].transitions() {
                if g.is_terminal(sym) {
                    dr.insert(g.tindex(sym));
                }
            }
            read.push(dr);
            let r_rows = row_base[r.index()]..row_base[r.index() + 1];
            for j in r_rows.filter(|&j| analysis.nullable(gotos[j as usize].0)) {
                reads.push((i as u32, j));
            }
        }
        let reads = Csr::from_pairs(gotos.len(), reads);

        // The forward walk: `includes` edges at nonterminals with a
        // nullable tail, and the lookback rows of every reduce item.
        let nullable_from: Vec<usize> = g
            .productions()
            .iter()
            .map(|p| {
                let rhs = p.rhs();
                rhs.len()
                    - rhs
                        .iter()
                        .rev()
                        .take_while(|&&s| analysis.nullable(s))
                        .count()
            })
            .collect();
        let mut includes: Vec<(u32, (u32, ProdId))> = Vec::new();
        let mut lookback: Vec<(u32, u32)> = Vec::new();
        for_each_step(g, states, &row_base, &gotos, |j, pid, k, cur, next| {
            let rhs = g.prod(pid).rhs();
            if k + 1 >= nullable_from[pid.index()] && g.is_nonterminal(rhs[k]) {
                if let Some(i) = find_row(&row_base, &gotos, cur, rhs[k]) {
                    includes.push((i as u32, (j, pid)));
                }
            }
            if k + 1 == rhs.len() {
                if let Some(slot) = states[next.index()].kernel_slot(Item::new(pid, k + 1)) {
                    lookback.push((kernel_base[next.index()] + slot as u32, j));
                }
            }
        });
        includes.sort_unstable();
        includes.dedup_by_key(|&mut (i, (j, _))| (i, j));
        let includes = Csr::from_pairs(gotos.len(), includes);
        let lookback = Csr::from_pairs(kernel_slots as usize, lookback);

        digraph(&reads, |j| j as usize, &mut read);
        let mut follow = read;
        digraph(&includes, |(j, _)| j as usize, &mut follow);

        // The same walk again: every kernel item passed from row `j` gets
        // `Follow(j)`; the accept items get `{$}`.
        let mut kernel = vec![TerminalSet::empty(nterm); kernel_slots as usize];
        for_each_step(g, states, &row_base, &gotos, |j, pid, k, _, next| {
            if let Some(slot) = states[next.index()].kernel_slot(Item::new(pid, k + 1)) {
                kernel[kernel_base[next.index()] as usize + slot].union_with(&follow[j as usize]);
            }
        });
        for (st, &base) in states.iter().zip(&kernel_base) {
            for (i, it) in st.items()[..st.kernel_len()].iter().enumerate() {
                if it.prod() == g.accept_prod() {
                    kernel[base as usize + i].insert(g.tindex(SymbolId::EOF));
                }
            }
        }

        let relations = Relations {
            row_base,
            gotos,
            reads,
            includes,
            kernel_base,
            lookback,
        };
        (relations, follow, kernel)
    }

    /// Per item of state `q`, the index of its set in the state's storage
    /// (kernel sets, then `Follow` of its rows): a closure item `B -> · γ`
    /// shares row `(q, B)`'s.
    pub(crate) fn lookahead_slots(&self, g: &Grammar, q: StateId, st: &State) -> Vec<u32> {
        let kl = st.kernel_len();
        let first_row = self.rows(q).start;
        (0..st.items().len())
            .map(|i| {
                if i < kl {
                    return i as u32;
                }
                // A closure item's left-hand side is one of the state's
                // nonterminal transitions.
                let row = self.row(q, g.prod(st.items()[i].prod()).lhs());
                row.map_or(i, |r| kl + r - first_row) as u32
            })
            .collect()
    }

    /// State `p`'s goto rows.
    pub(crate) fn rows(&self, p: StateId) -> std::ops::Range<usize> {
        self.row_base[p.index()] as usize..self.row_base[p.index() + 1] as usize
    }

    /// Number of goto rows.
    pub fn goto_count(&self) -> usize {
        self.gotos.len()
    }

    /// The row of goto `(p, a)`, if `p` has a transition on `a`.
    fn row(&self, p: StateId, a: SymbolId) -> Option<usize> {
        find_row(&self.row_base, &self.gotos, p, a)
    }

    /// The goto of a row: source state and nonterminal.
    pub fn goto(&self, row: usize) -> (StateId, SymbolId) {
        (self.locate(row).0, self.gotos[row].0)
    }

    /// A row's source state and its index among that state's rows.
    pub(crate) fn locate(&self, row: usize) -> (StateId, usize) {
        let p = StateId::from_index(self.row_base.partition_point(|&b| b as usize <= row) - 1);
        (p, row - self.rows(p).start)
    }

    /// The state `goto(p, A)` reaches for a row.
    pub fn target(&self, row: usize) -> StateId {
        self.gotos[row].1
    }

    /// The rows a row `reads`, ascending.
    pub fn reads(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        self.reads.row(row).iter().map(|&j| j as usize)
    }

    /// The rows a row `includes`, ascending, each with a production
    /// `B -> β A γ` witnessing the edge.
    pub fn includes(&self, row: usize) -> impl Iterator<Item = (usize, ProdId)> + '_ {
        self.includes.row(row).iter().map(|&(j, p)| (j as usize, p))
    }

    /// The lookback rows of reduction `(q, prod)`: every goto row
    /// `(p, lhs(prod))` with `p` reaching `q` spelling `rhs(prod)`,
    /// ascending.
    pub fn lookback(&self, g: &Grammar, auto: &Automaton, q: StateId, prod: ProdId) -> Vec<usize> {
        let len = g.prod(prod).rhs().len();
        if len == 0 {
            return self.row(q, g.prod(prod).lhs()).into_iter().collect();
        }
        auto.state(q)
            .kernel_slot(Item::new(prod, len))
            .map(|slot| {
                self.lookback
                    .row(self.kernel_base[q.index()] as usize + slot)
                    .iter()
                    .map(|&r| r as usize)
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// The row of goto `(p, a)` among state `p`'s rows.
fn find_row(
    row_base: &[u32],
    gotos: &[(SymbolId, StateId)],
    p: StateId,
    a: SymbolId,
) -> Option<usize> {
    let lo = row_base[p.index()] as usize;
    gotos[lo..row_base[p.index() + 1] as usize]
        .binary_search_by_key(&a, |&(s, _)| s)
        .ok()
        .map(|k| lo + k)
}

/// The LR(1) closure of one LR(0) state as a linear map: every closure
/// item's lookahead is a fixed *spontaneous* set (FIRST of what follows
/// its nonterminal inside the state) plus the lookaheads of the kernel
/// items that reach it through nullable tails. With the successor moves,
/// this is everything a canonical LR(1) exploration needs per state.
pub struct ClosureShape {
    /// The state's kernel length.
    kernel_len: usize,
    /// Per closure item: its spontaneous lookahead.
    spontaneous: Vec<TerminalSet>,
    /// Per closure item: the kernel slots whose lookahead it inherits.
    inherits: Csr<u32>,
    /// Per item: the index into [`State::transitions`] of its next symbol
    /// and the kernel slot of the advanced item in that target, or `None`
    /// for a reduce item.
    moves: Vec<Option<(u32, u32)>>,
}

impl ClosureShape {
    /// The closure shape of state `q`.
    pub(crate) fn new(
        g: &Grammar,
        analysis: &Analysis,
        states: &[State],
        q: StateId,
    ) -> ClosureShape {
        let st = &states[q.index()];
        let items = st.items();
        let kl = st.kernel_len();
        let nterm = g.terminal_count();
        let closure_pos = |it: Item| items[kl..].binary_search(&it).ok();

        // Edges item → closure item of its next nonterminal; a nullable
        // tail also passes the item's own lookahead along.
        let mut spontaneous = vec![TerminalSet::empty(nterm); items.len() - kl];
        let mut passes: Vec<(u32, u32)> = Vec::new();
        let mut seeds: Vec<(u32, u32)> = Vec::new();
        let mut moves = Vec::with_capacity(items.len());
        for (i, &it) in items.iter().enumerate() {
            let Some(next) = it.next_symbol(g) else {
                moves.push(None);
                continue;
            };
            moves.push(
                st.transitions()
                    .binary_search_by_key(&next, |&(s, _)| s)
                    .ok()
                    .and_then(|tr| {
                        let target = &states[st.transitions()[tr].1.index()];
                        target
                            .kernel_slot(it.advance(g))
                            .map(|slot| (tr as u32, slot as u32))
                    }),
            );
            if !g.is_nonterminal(next) {
                continue;
            }
            let beta = &it.tail(g)[1..];
            let first = analysis.first_of_seq(g, beta, &TerminalSet::empty(nterm));
            let nullable = analysis.seq_nullable(g, beta);
            for c in g
                .prods_of(next)
                .iter()
                .filter_map(|&pid| closure_pos(Item::start(pid)))
            {
                spontaneous[c].union_with(&first);
                if nullable {
                    if i < kl {
                        seeds.push((i as u32, c as u32));
                    } else {
                        passes.push((c as u32, (i - kl) as u32));
                    }
                }
            }
        }
        let n = spontaneous.len();
        let forward = Csr::from_pairs(n, passes.iter().map(|&(c, from)| (from, c)).collect());
        digraph(
            &Csr::from_pairs(n, passes),
            |i| i as usize,
            &mut spontaneous,
        );

        // Kernel slots reaching each closure item: a search per slot along
        // the pass edges.
        let seeds = Csr::from_pairs(kl, seeds);
        let mut inherits: Vec<(u32, u32)> = Vec::new();
        let mut seen = vec![usize::MAX; n];
        for k in 0..kl {
            let mut work: Vec<u32> = seeds.row(k).to_vec();
            while let Some(c) = work.pop() {
                if seen[c as usize] == k {
                    continue;
                }
                seen[c as usize] = k;
                inherits.push((c, k as u32));
                work.extend_from_slice(forward.row(c as usize));
            }
        }
        ClosureShape {
            kernel_len: kl,
            inherits: Csr::from_pairs(n, inherits),
            spontaneous,
            moves,
        }
    }

    /// Every item's lookahead, in item order, given the kernel items'.
    pub fn close(&self, kernel: &[TerminalSet]) -> Vec<TerminalSet> {
        debug_assert_eq!(kernel.len(), self.kernel_len);
        let mut las = Vec::with_capacity(self.kernel_len + self.spontaneous.len());
        las.extend_from_slice(kernel);
        for (c, spont) in self.spontaneous.iter().enumerate() {
            let mut la = spont.clone();
            for &k in self.inherits.row(c) {
                la.union_with(&kernel[k as usize]);
            }
            las.push(la);
        }
        las
    }

    /// Where item `idx` moves on its next symbol: the index into
    /// [`State::transitions`] and the kernel slot of the advanced item in
    /// the target state. `None` for a reduce item.
    pub fn successor(&self, idx: usize) -> Option<(usize, usize)> {
        self.moves[idx].map(|(tr, slot)| (tr as usize, slot as usize))
    }
}
