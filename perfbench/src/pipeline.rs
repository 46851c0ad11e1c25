//! One op, two ways: through the public `Session` API as a user calls it
//! (untraced), and composed from the public calls of each layer with a
//! span around every call (traced). Also the correctness gate and the
//! deterministic fingerprint of a report.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lalrcex::api::{explain_document, report_document, GrammarFormat};
use lalrcex::core::{
    format_report, hardware_workers, nonunifying_example, resolve_workers, unifying_search_session,
    validate, CancelToken, CexConfig, ConflictOutcome, ConflictReport, Engine, ExampleKind,
    GrammarProvenance, GrammarReport, GrammarStats, MemoryGovernor, SearchMetrics, SearchOutcome,
    SearchSession, SearchStats, ShardBudget, StateGraph,
};
use lalrcex::grammar::{Analysis, Grammar};
use lalrcex::lr::{Automaton, Conflict};
use lalrcex::{AnalysisReply, AnalysisRequest, GrammarSource, Session};

use crate::inputs::{parse, Input, Kind};
use crate::measure::Metrics;
use crate::trace::{LocalSpan, SpanId, Tracer};

/// Worker threads per analysis: the machine's 2 cores.
pub const WORKERS: usize = 2;

/// The Table 1 configuration (5 s per conflict, 120 s per grammar) with
/// the benchmark's worker count.
pub fn config(workers: usize) -> CexConfig {
    let mut cfg = lalrcex_bench::paper_config();
    cfg.workers = workers;
    cfg
}

/// The reply of an analyze or explain call.
pub enum Reply {
    Analyze(AnalysisReply),
    Explain(lalrcex::api::ExplainReply),
}

impl Reply {
    pub fn grammar(&self) -> &Grammar {
        match self {
            Reply::Analyze(r) => r.grammar(),
            Reply::Explain(r) => r.grammar(),
        }
    }

    pub fn report(&self) -> &GrammarReport {
        match self {
            Reply::Analyze(r) => &r.report,
            Reply::Explain(r) => &r.report,
        }
    }

    pub fn json(&self) -> String {
        match self {
            Reply::Analyze(r) => r.to_json().to_string(),
            Reply::Explain(r) => r.to_json().to_string(),
        }
    }
}

pub fn request(input: &Input, text: &str, cfg: CexConfig) -> AnalysisRequest {
    AnalysisRequest::new(GrammarSource::auto(text))
        .label(input.name.as_str())
        .config(cfg)
}

/// Runs an analyze or explain request through `session`.
pub fn session_call(
    session: &Session,
    req: &AnalysisRequest,
    kind: Kind,
) -> Result<Reply, lalrcex::Error> {
    match kind {
        Kind::Explain => session.explain(req).map(Reply::Explain),
        _ => session.analyze(req).map(Reply::Analyze),
    }
}

/// An untraced op: a cold session answers one request, rendered to JSON.
pub struct Untraced {
    pub reply: Result<Reply, lalrcex::Error>,
    pub json: String,
    pub started: Instant,
    /// Whole op: session call plus JSON render.
    pub latency: Duration,
    /// The session call alone.
    pub session: Duration,
    pub misses: u64,
    pub hits: u64,
}

pub fn untraced_cold(input: &Input, kind: Kind, cfg: CexConfig) -> Untraced {
    let req = request(input, &input.text, cfg);
    let t0 = Instant::now();
    let session = Session::new();
    let reply = session_call(&session, &req, kind);
    let t1 = Instant::now();
    let json = reply.as_ref().map(Reply::json).unwrap_or_default();
    let latency = t0.elapsed();
    let cache = session.cache_stats();
    Untraced {
        reply,
        json,
        started: t0,
        latency,
        session: t1 - t0,
        misses: cache.misses,
        hits: cache.hits,
    }
}

/// (unifying, exhausted, timed out or skipped) conflict counts.
pub fn verdicts(report: &GrammarReport) -> (usize, usize, usize) {
    (
        report.unifying_count(),
        report.exhausted_count(),
        report.timeout_count(),
    )
}

/// The correctness gate for one report: every unifying example is
/// confirmed ambiguous by the Earley oracle and is internally consistent,
/// every nonunifying example is consistent, and no slot faulted.
pub fn gate(g: &Grammar, report: &GrammarReport) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, r) in report.reports.iter().enumerate() {
        if r.is_internal() {
            problems.push(format!("conflict #{i}: internal fault"));
        }
        if let Some(u) = &r.unifying {
            if !validate::unifying_consistent(g, u) {
                problems.push(format!("conflict #{i}: inconsistent unifying example"));
            }
            if !lalrcex::earley::forest::is_ambiguous_form(g, u.nonterminal, &u.sentential_form()) {
                problems.push(format!(
                    "conflict #{i}: oracle rejects the unifying example"
                ));
            }
        }
        match &r.nonunifying {
            Some(n) if !validate::nonunifying_consistent(g, n) => {
                problems.push(format!("conflict #{i}: inconsistent nonunifying example"))
            }
            None => problems.push(format!("conflict #{i}: no nonunifying example")),
            Some(_) => {}
        }
    }
    problems
}

/// Checks the verdict triple against the expected-verdicts file.
pub fn check_verdicts(
    input: &Input,
    report: &GrammarReport,
    expected: &BTreeMap<String, (usize, usize, usize)>,
) -> Option<String> {
    let got = verdicts(report);
    match expected.get(&input.name) {
        Some(want) if *want == got => None,
        Some(want) => Some(format!(
            "{}: verdicts {got:?}, expected {want:?}",
            input.name
        )),
        None => Some(format!(
            "{}: no expected verdicts; measured `{} {} {} {} # paper {}`",
            input.name,
            input.name,
            got.0,
            got.1,
            got.2,
            input
                .paper
                .map_or("-".to_owned(), |(u, n, t)| format!("{u}/{n}/{t}"))
        )),
    }
}

/// The deterministic counters of one report: verdicts, search work,
/// spine work and rendered bytes. The spine memo hit count is left out:
/// which of two conflicts sharing a spine computes it depends on worker
/// timing. Spine nodes are taken once per spine key instead.
pub fn fingerprint_line(report: &GrammarReport, json_bytes: usize) -> String {
    let (u, n, t) = verdicts(report);
    let (mut explored, mut enqueued, mut deduped) = (0, 0, 0);
    let mut spines: BTreeMap<String, u64> = BTreeMap::new();
    for r in &report.reports {
        explored += r.stats.search.explored;
        enqueued += r.stats.search.enqueued;
        deduped += r.stats.search.deduped;
        let c = &r.conflict;
        let key = format!("{:?}/{:?}/{:?}", c.state, c.reduce_prod, c.terminal);
        let e = spines.entry(key).or_default();
        *e = (*e).max(r.stats.spine_nodes);
    }
    let spine_nodes: u64 = spines.values().sum();
    format!(
        "verdicts={u}/{n}/{t} explored={explored} enqueued={enqueued} deduped={deduped} \
         spine_nodes={spine_nodes} bytes={json_bytes}"
    )
}

/// The span name of the frontend that parses `format`.
pub fn parse_span(format: GrammarFormat) -> &'static str {
    match format {
        GrammarFormat::Yacc => "yacc.parse",
        _ => "grammar.parse",
    }
}

/// A traced cold op: parse, build the engine, run the kind's stages, then
/// time the layers inside `Engine::new` and the text renderer in a probe
/// outside the op's span (so the op's time stays comparable with the
/// untraced op).
pub fn traced_cold(
    tr: &mut Tracer,
    op: u64,
    input: &Input,
    kind: Kind,
    cfg: &CexConfig,
) -> Result<(String, GrammarReport, Duration), String> {
    let root = tr.open("op", op, None);
    let (g, _) = tr.time(parse_span(input.format), op, Some(root), || {
        parse(&input.text, input.format)
    });
    let g = g.map_err(|e| format!("{}: {e}", input.name))?;
    let (engine, _) = tr.time("core.engine", op, Some(root), || Engine::new(&g));
    let (json, report) = traced_stages(tr, op, root, &input.name, &engine, kind, cfg)?;
    tr.close(root);
    let span = tr.span(root);
    let latency = Duration::from_nanos(span.end_ns - span.start_ns);
    probe(tr, op, &g, &report);
    Ok((json, report, latency))
}

/// Times the layers `Engine::new` runs internally — grammar analysis,
/// LR(0) plus LALR construction, tables, state-item graph — as standalone
/// calls, and the text report renderer.
pub fn probe(tr: &mut Tracer, op: u64, g: &Grammar, report: &GrammarReport) {
    let root = tr.open("probe", op, None);
    tr.time("grammar.analysis", op, Some(root), || {
        black_box(Analysis::new(g));
    });
    let (auto, s) = tr.time("lr.automaton", op, Some(root), || Automaton::build(g));
    tr.count(s, "states", auto.state_count() as f64);
    tr.time("lr.tables", op, Some(root), || {
        black_box(auto.tables(g));
    });
    let (graph, s) = tr.time("core.state_graph", op, Some(root), || {
        StateGraph::build(g, &auto)
    });
    tr.count(s, "nodes", graph.node_count() as f64);
    if !report.reports.is_empty() {
        let (text, s) = tr.time("core.report.render", op, Some(root), || {
            report
                .reports
                .iter()
                .map(|r| format_report(g, r))
                .collect::<String>()
        });
        tr.count(s, "bytes", text.len() as f64);
    }
    tr.close(root);
}

/// Provenance (explain only), the per-conflict stages, and the JSON
/// render, as children of `root`.
pub fn traced_stages(
    tr: &mut Tracer,
    op: u64,
    root: SpanId,
    label: &str,
    engine: &Engine<'_>,
    kind: Kind,
    cfg: &CexConfig,
) -> Result<(String, GrammarReport), String> {
    let prov: Option<Arc<GrammarProvenance>> = if kind == Kind::Explain {
        // Only the first call computes; later ones read the memo.
        let first = engine.provenance_bytes() == 0;
        let (p, s) = tr.time("core.provenance", op, Some(root), || engine.provenance());
        let p = p.map_err(|e| format!("{label}: {e}"))?;
        if first {
            tr.count(s, "lr1_states", p.lr1_states as f64);
        } else {
            tr.rename(s, "core.provenance.memo");
        }
        Some(p)
    } else {
        None
    };
    let report = traced_conflicts(tr, op, root, engine, cfg);
    let g = engine.grammar();
    let states = engine.automaton().state_count();
    let res = engine.tables().resolutions();
    let (json, s) = tr.time("api.json", op, Some(root), || {
        match &prov {
            Some(p) => explain_document(label, g, states, res, &report, p),
            None => report_document(label, g, states, res, &report),
        }
        .to_string()
    });
    tr.count(s, "bytes", json.len() as f64);
    Ok((json, report))
}

/// The per-conflict fan-out, composed as the engine composes it: outer
/// workers pull conflicts by index, idle capacity is lent to heavy
/// searches as shards, and reports are collected in conflict order.
pub fn traced_conflicts(
    tr: &mut Tracer,
    op: u64,
    root: SpanId,
    engine: &Engine<'_>,
    cfg: &CexConfig,
) -> GrammarReport {
    let started = Instant::now();
    let conflicts: Vec<Conflict> = engine.tables().conflicts().to_vec();
    let n = conflicts.len();
    let workers = resolve_workers(cfg.workers, n);
    let shards = ShardBudget::new(hardware_workers(cfg.workers).saturating_sub(workers));
    let cancel = CancelToken::new();
    let governor = MemoryGovernor::with_limit_mb(cfg.max_live_mb);
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, ConflictReport, Vec<LocalSpan>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let session = SearchSession {
                        cancel: &cancel,
                        governor: &governor,
                        shards: Some(&shards),
                    };
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            shards.release(1);
                            break;
                        }
                        let (report, spans) = traced_conflict(engine, &conflicts[i], cfg, &session);
                        out.push((i, report, spans));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("conflict worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _, _)| *i);
    let mut reports = Vec::with_capacity(n);
    for (_, report, spans) in done {
        for s in spans {
            tr.merge(s, op, root);
        }
        reports.push(report);
    }
    GrammarReport {
        reports,
        total_time: started.elapsed(),
        stats: GrammarStats::default(),
    }
}

fn traced_conflict(
    engine: &Engine<'_>,
    c: &Conflict,
    cfg: &CexConfig,
    session: &SearchSession<'_>,
) -> (ConflictReport, Vec<LocalSpan>) {
    let started = Instant::now();
    let (g, auto, graph) = (engine.grammar(), engine.automaton(), engine.graph());
    let ((spine, hit), mut s1) = LocalSpan::time("core.lssi", || engine.spine(c));
    s1.counters.push(("memo_hit", f64::from(u8::from(hit))));
    if !hit {
        s1.counters.push(("nodes", spine.nodes_expanded as f64));
    }
    let mut metrics = SearchMetrics::default();
    let (outcome, mut s2) = LocalSpan::time("core.search", || {
        unifying_search_session(
            g,
            auto,
            graph,
            c,
            &spine.states,
            &cfg.search,
            session,
            &mut metrics,
        )
    });
    let (kind, unifying) = match outcome {
        SearchOutcome::Unifying(ex) => (ExampleKind::Unifying, Some(*ex)),
        SearchOutcome::Exhausted => (ExampleKind::NonunifyingExhausted, None),
        SearchOutcome::TimedOut => (ExampleKind::NonunifyingTimeout, None),
    };
    s2.counters.extend([
        ("explored", metrics.explored as f64),
        ("enqueued", metrics.enqueued as f64),
        ("deduped", metrics.deduped as f64),
        (
            "unifying",
            f64::from(u8::from(kind == ExampleKind::Unifying)),
        ),
        (
            "capped",
            f64::from(u8::from(kind == ExampleKind::NonunifyingTimeout)),
        ),
    ]);
    let (nonunifying, s3) = LocalSpan::time("core.nonunifying", || {
        spine
            .path
            .as_deref()
            .and_then(|p| nonunifying_example(g, auto, graph, c, p))
    });
    let report = ConflictReport {
        conflict: *c,
        outcome: ConflictOutcome::Completed(kind),
        unifying,
        nonunifying,
        elapsed: started.elapsed(),
        stats: SearchStats {
            search: metrics,
            // The spine's own size whether or not this conflict computed
            // it, so the fingerprint sees the same value either way.
            spine_nodes: spine.nodes_expanded,
            spine_memo_hit: hit,
            ..SearchStats::default()
        },
    };
    (report, vec![s1, s2, s3])
}

/// Per-layer metrics from the recorded spans. A layer without spans is
/// left out, not reported as zero.
pub fn layer_metrics(tr: &Tracer, m: &mut Metrics) {
    let layers = tr.layers();
    let ms = [
        ("grammar.parse_ms", "grammar.parse"),
        ("yacc.parse_ms", "yacc.parse"),
        ("grammar.analysis_ms", "grammar.analysis"),
        ("lr.automaton_ms", "lr.automaton"),
        ("lr.tables_ms", "lr.tables"),
        ("core.state_graph_ms", "core.state_graph"),
        ("core.engine_ms", "core.engine"),
        ("core.provenance_ms", "core.provenance"),
        ("core.lssi_ms", "core.lssi"),
        ("core.search_ms", "core.search"),
        ("core.nonunifying_ms", "core.nonunifying"),
        ("core.report.render_ms", "core.report.render"),
        ("api.json_ms", "api.json"),
        ("api.session_ms", "api.session"),
        ("lint.run_ms", "lint.run"),
    ];
    for (metric, layer) in ms {
        if let Some(l) = layers.get(layer) {
            m.put(metric, l.ms_per_call(), "ms");
        }
    }
    let per_call = |layer: &str, counter: &str| {
        layers
            .get(layer)
            .map(|l| l.counter(counter) / l.calls.max(1) as f64)
    };
    let counts = [
        ("lr.automaton.states", "lr.automaton", "states"),
        ("core.state_graph.nodes", "core.state_graph", "nodes"),
        (
            "core.provenance.lr1_states",
            "core.provenance",
            "lr1_states",
        ),
        ("core.search.explored", "core.search", "explored"),
        ("render.bytes", "api.json", "bytes"),
        ("lint.diagnostics", "lint.run", "diagnostics"),
    ];
    for (metric, layer, counter) in counts {
        if let Some(v) = per_call(layer, counter) {
            m.put(metric, v, "count");
        }
    }
    if let Some(l) = layers.get("core.lssi") {
        let hits = l.counter("memo_hit");
        let misses = l.calls as f64 - hits;
        m.put(
            "core.lssi.nodes",
            l.counter("nodes") / misses.max(1.0),
            "count",
        );
        m.put("core.lssi.memo_hit_ratio", hits / l.calls as f64, "ratio");
    }
    if let Some(l) = layers.get("core.search") {
        let searches = l.calls as f64;
        let secs = l.self_ns as f64 / 1e9;
        m.put(
            "core.search.configs_per_s",
            l.counter("explored") / secs.max(1e-9),
            "1/s",
        );
        m.put(
            "core.search.dedup_ratio",
            l.counter("deduped") / l.counter("enqueued").max(1.0),
            "ratio",
        );
        m.put(
            "core.search.unifying_ratio",
            l.counter("unifying") / searches,
            "ratio",
        );
        m.put(
            "core.search.cap_ratio",
            l.counter("capped") / searches,
            "ratio",
        );
    }
}
