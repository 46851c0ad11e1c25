//! The `serve_mixed` workload: a closed-loop client against one
//! `lalrcex serve --workers 2` child over its JSON-Lines protocol.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lalrcex::api::json::{self, obj, Json};
use lalrcex::core::{Engine, GrammarReport};
use lalrcex::grammar::Grammar;
use lalrcex::lint::Linter;
use lalrcex::prng::XorShift;
use lalrcex::{GrammarSource, Session};

use crate::inputs::{self, parse, Input, Kind, Req};
use crate::measure::{
    build_id, cpu_ms, median, peak_rss_mb, quantile, quiet, splitmix64, Fingerprint, Metrics,
};
use crate::pipeline::{self, Reply};
use crate::trace::{SpanId, Tracer};
use crate::{out_dir, write_trace, Args, Outcome};

/// Set-up repetitions per run (each spawns and warms a server);
/// `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A round (220 requests) takes 8 to 10 s on a 2-core host. A run
/// is a fixed number of rounds sized from `--seconds` with it, rather
/// than rounds until the clock runs out: every fresh variant stays in
/// the cache, so the server's peak RSS grows with the round count, and a
/// clock-decided count made it swing by a fifth between runs.
const ROUND_SECONDS: f64 = 10.0;
/// Longest wait for one response before the run is abandoned.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(150);
/// A request alone in flight gets all of the server's workers; the
/// in-process replay runs with as many.
const REPLAY_WORKERS: usize = 2;

type Line = (String, Instant);

/// A running `lalrcex serve` child. Responses are routed by id prefix:
/// `c0-`/`c1-` to the client (the two copies of a pair), everything
/// else to set-up and statistics calls.
struct Server {
    child: Child,
    /// `None` once closed, which tells the server to drain and exit.
    stdin: Mutex<Option<ChildStdin>>,
    reader: Option<JoinHandle<()>>,
    /// Per-route response channels; each has one consumer, so its lock
    /// is never contended.
    rx: [Mutex<Receiver<Line>>; 3],
}

impl Server {
    fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--workers", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx): (Vec<Sender<Line>>, Vec<Receiver<Line>>) =
            (0..3).map(|_| mpsc::channel()).unzip();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let now = Instant::now();
                let route = if line.contains("\"id\":\"c0-") {
                    0
                } else if line.contains("\"id\":\"c1-") {
                    1
                } else {
                    2
                };
                if tx[route].send((line, now)).is_err() {
                    break;
                }
            }
        });
        let rx: [Mutex<Receiver<Line>>; 3] = rx
            .into_iter()
            .map(Mutex::new)
            .collect::<Vec<_>>()
            .try_into()
            .map_err(|_| "three channels")?;
        Ok(Server {
            child,
            stdin: Mutex::new(Some(stdin)),
            reader: Some(reader),
            rx,
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn send(&self, line: &str) -> Result<(), String> {
        let mut guard = self
            .stdin
            .lock()
            .expect("no writer panics holding the pipe");
        let w = guard.as_mut().ok_or("the server's input is closed")?;
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
            .map_err(|e| format!("writing to the server: {e}"))
    }

    /// A set-up or statistics request, answered before the next one.
    fn call(&self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let (resp, _) = self.recv(2)?;
        json::parse(&resp).map_err(|e| format!("bad response `{resp}`: {e}"))
    }

    /// (hits, misses, evictions) of the server's engine cache.
    fn cache_counters(&self) -> Result<(u64, u64, u64), String> {
        let stats = self.call(r#"{"protocol":1,"id":"m-stats","op":"stats"}"#)?;
        let get = |k: &str| {
            stats
                .get("cache")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats response lacks cache.{k}"))
        };
        Ok((get("hits")?, get("misses")?, get("evictions")?))
    }

    fn recv(&self, route: usize) -> Result<Line, String> {
        self.rx[route]
            .lock()
            .expect("no consumer panics holding its channel")
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|e| format!("no response from the server: {e}"))
    }

    fn close_input(&self) {
        self.stdin
            .lock()
            .expect("no writer panics holding the pipe")
            .take();
    }

    fn shutdown(mut self) -> Result<(), String> {
        let sent = self.send(r#"{"protocol":1,"id":"m-shutdown","op":"shutdown"}"#);
        self.close_input();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(r) = self.reader.take() {
            r.join()
                .map_err(|_| "response reader panicked".to_owned())?;
        }
        sent?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    /// Error paths end here without a `shutdown`: stop the child and wait
    /// for it and the reader thread.
    fn drop(&mut self) {
        if self.stdin.lock().is_ok_and(|s| s.is_some()) {
            self.close_input();
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn request_line(id: &str, kind: Kind, input: &Input, fresh: Option<&str>) -> String {
    obj()
        .push("protocol", Json::num(1))
        .push("id", Json::str(id))
        .push("op", Json::str(kind.name()))
        .push("grammar", Json::str(text_of(input, fresh)))
        .push("file", Json::str(input.name.as_str()))
        .build()
        .to_string()
}

fn text_of(input: &Input, fresh: Option<&str>) -> String {
    let mut text = input.text.clone();
    text.push_str(fresh.unwrap_or(""));
    text
}

/// Loads and checks the working set, starts a server, and warms it: a
/// `health` round trip, then one `explain` per working-set grammar.
fn set_up(bin: &Path) -> Result<(Vec<Input>, Server), String> {
    let ws = inputs::serve_working_set()?;
    inputs::check_parses(&ws)?;
    let server = Server::start(bin)?;
    let health = server.call(r#"{"protocol":1,"id":"m-health","op":"health"}"#)?;
    if health.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("health check failed: {health}"));
    }
    for (k, input) in ws.iter().enumerate() {
        let resp = server.call(&request_line(
            &format!("m-w{k}"),
            Kind::Explain,
            input,
            None,
        ))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("warm-up of {} failed", input.name));
        }
    }
    Ok((ws, server))
}

/// One answered request.
struct Resp {
    round: usize,
    /// Which of the two requests of a pair; 0 for a single request.
    copy: usize,
    pos: usize,
    req: Req,
    latency_ms: f64,
    line: String,
}

/// Sends one round's script, each request (or pair) once the last is
/// answered. Both requests of a pair are sent before either is read.
fn run_client(
    server: &Server,
    round: usize,
    script: &[Req],
    ws: &[Input],
) -> Result<Vec<Resp>, String> {
    let mut out = Vec::with_capacity(script.len() + 5);
    for (pos, req) in script.iter().enumerate() {
        let copies = if req.pair { 2 } else { 1 };
        let mut sent = Vec::with_capacity(copies);
        for copy in 0..copies {
            let id = format!("c{copy}-{round}-{pos}");
            let line = request_line(&id, req.kind, &ws[req.input], req.fresh.as_deref());
            sent.push((id, Instant::now()));
            server.send(&line)?;
        }
        for (copy, (id, t0)) in sent.into_iter().enumerate() {
            let (resp, t1) = server.recv(copy)?;
            if !resp.contains(&format!("\"id\":\"{id}\"")) {
                return Err(format!("expected the response to {id}, got {resp}"));
            }
            out.push(Resp {
                round,
                copy,
                pos,
                req: req.clone(),
                latency_ms: (t1 - t0).as_secs_f64() * 1e3,
                line: resp,
            });
        }
    }
    Ok(out)
}

/// What the in-process session answers for one (kind, grammar).
enum Expected {
    Report {
        json: String,
        fingerprint: String,
        conflicts: u64,
        decided: u64,
        problems: Vec<String>,
    },
    Lint(Vec<(String, String, Option<u64>)>),
    /// The in-process session itself failed.
    Failed(String),
}

fn expected_for(session: &Session, kind: Kind, input: &Input) -> Expected {
    if kind == Kind::Lint {
        return match session.lint(GrammarSource::auto(input.text.as_str())) {
            Ok(r) => Expected::Lint(
                r.diagnostics
                    .iter()
                    .map(|d| {
                        (
                            d.code.id.to_owned(),
                            d.message.clone(),
                            d.span.map(|s| s.line as u64),
                        )
                    })
                    .collect(),
            ),
            Err(e) => Expected::Failed(e.to_string()),
        };
    }
    let req = pipeline::request(input, &input.text, pipeline::config(REPLAY_WORKERS));
    match pipeline::session_call(session, &req, kind) {
        Ok(reply) => {
            let json = reply.json();
            let report = reply.report();
            let (u, n, _) = pipeline::verdicts(report);
            Expected::Report {
                fingerprint: pipeline::fingerprint_line(report, json.len()),
                conflicts: report.reports.len() as u64,
                decided: (u + n) as u64,
                problems: pipeline::gate(reply.grammar(), report),
                json,
            }
        }
        Err(e) => Expected::Failed(e.to_string()),
    }
}

/// Checks one response against the in-process answer. Fresh variants
/// differ from their base text only in a trailing comment, so they are
/// held to the base text's answer.
fn check_response(r: &Resp, exp: &Expected, ws: &[Input]) -> Result<(), String> {
    let name = &ws[r.req.input].name;
    let what = format!(
        "{} {name} (c{} r{} p{})",
        r.req.kind.name(),
        r.copy,
        r.round,
        r.pos
    );
    let j = json::parse(&r.line).map_err(|e| format!("{what}: bad response: {e}"))?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{what}: {}", r.line));
    }
    match exp {
        Expected::Failed(e) => return Err(format!("{what}: in-process session: {e}")),
        Expected::Report { json, problems, .. } => {
            if !problems.is_empty() {
                return Err(format!("{what}: {}", problems.join("; ")));
            }
            if !r.line.ends_with(&format!("\"report\":{json}}}")) {
                return Err(format!(
                    "{what}: report differs from the in-process session's"
                ));
            }
        }
        Expected::Lint(want) => {
            let got: Vec<(String, String, Option<u64>)> = j
                .get("diagnostics")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|d| {
                    let s = |k| d.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (s("id"), s("message"), d.get("line").and_then(Json::as_u64))
                })
                .collect();
            if got != *want {
                return Err(format!(
                    "{what}: diagnostics differ from the in-process session's"
                ));
            }
        }
    }
    Ok(())
}

pub fn run(args: &Args, bin: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (ws, server) = set_up(bin)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some((_, old)) = ready.replace((ws, server)) {
            Server::shutdown(old)?;
        }
    }
    let (ws, server) = ready.expect("at least one set-up");
    let pid = server.pid();
    let mut rng = XorShift::new(splitmix64(args.seed));

    // At least 2 rounds, so the first (the fingerprint's) is not alone.
    let rounds = ((args.seconds / ROUND_SECONDS).round() as usize).max(2);
    let (hits0, misses0, evictions0) = server.cache_counters()?;
    let started = Instant::now();
    let mut responses: Vec<Resp> = Vec::new();
    let mut round1_misses = 0;
    // The server's CPU time per request, per round; the run reports the
    // median round.
    let mut round_cpu_per_op = Vec::new();
    for round in 0..rounds {
        let round_cpu = cpu_ms(&pid);
        let first = responses.len();
        let script = inputs::serve_round(&mut rng, &ws, args.seed, round);
        responses.extend(run_client(&server, round, &script, &ws)?);
        let answered = (responses.len() - first) as f64;
        round_cpu_per_op.push((cpu_ms(&pid) - round_cpu) / answered);
        if round == 0 {
            round1_misses = server.cache_counters()?.1 - misses0;
        }
    }
    let timed = started.elapsed().as_secs_f64();
    let rss = peak_rss_mb(&pid);
    let (hits1, misses1, evictions1) = server.cache_counters()?;
    server.shutdown()?;
    eprintln!(
        "{} responses in {rounds} rounds, {timed:.2} s timed; \
         cache: {} hits, {} misses, {} evictions",
        responses.len(),
        hits1 - hits0,
        misses1 - misses0,
        evictions1 - evictions0
    );

    // The correctness gate, outside the timed region.
    let session = Session::new();
    let mut expected: HashMap<(Kind, usize), Expected> = HashMap::new();
    let (mut failed, mut conflicts, mut decided) = (0u64, 0u64, 0u64);
    let mut fp = Fingerprint::default();
    for r in &responses {
        let exp = expected
            .entry((r.req.kind, r.req.input))
            .or_insert_with(|| expected_for(&session, r.req.kind, &ws[r.req.input]));
        if let Err(why) = check_response(r, exp, &ws) {
            eprintln!("FAILED: {why}");
            failed += 1;
        }
        if let Expected::Report {
            conflicts: c,
            decided: d,
            fingerprint,
            ..
        } = &*exp
        {
            conflicts += *c;
            decided += *d;
            if r.round == 0 {
                fp.record(
                    format!("{} {}", r.req.kind.name(), ws[r.req.input].name),
                    fingerprint.clone(),
                );
            }
        } else if let (Expected::Lint(d), 0) = (&*exp, r.round) {
            fp.record(
                format!("lint {}", ws[r.req.input].name),
                format!("diagnostics={}", d.len()),
            );
        }
    }
    // The two requests of an identical concurrent pair both miss only
    // when they overlap in the server, which depends on timing; the
    // fingerprint keeps the misses less those duplicate builds.
    let mut pair_misses: HashMap<&str, u64> = HashMap::new();
    for r in responses.iter().filter(|r| r.round == 0 && r.req.pair) {
        if let (Some(text), true) = (
            r.req.fresh.as_deref(),
            r.line.contains("\"cache\":\"miss\""),
        ) {
            *pair_misses.entry(text).or_default() += 1;
        }
    }
    let round1_dup: u64 = pair_misses.values().map(|n| n - 1).sum();
    fp.record(
        "round 1 cache misses less duplicate builds",
        (round1_misses - round1_dup).to_string(),
    );
    let build = build_id(&[bin])?;
    let fp_ok = fp.check_and_store(&out_dir(), &args.workload, args.seed, build);

    let n = responses.len() as f64;
    let share = |f: &dyn Fn(&Resp) -> bool| responses.iter().filter(|r| f(r)).count() as f64 / n;
    let missed = |r: &Resp| r.line.contains("\"cache\":\"miss\"");
    let shares = [
        ("analyze", share(&|r| r.req.kind == Kind::Analyze)),
        ("explain", share(&|r| r.req.kind == Kind::Explain)),
        ("lint", share(&|r| r.req.kind == Kind::Lint)),
        ("warm_hit", share(&|r| r.req.fresh.is_none() && !missed(r))),
        (
            "fresh_miss",
            share(&|r| r.req.fresh.is_some() && !r.req.pair && missed(r)),
        ),
        ("concurrent_miss", share(&|r| r.req.pair && missed(r))),
    ];
    eprintln!(
        "traffic shares: {}",
        shares
            .iter()
            .map(|(k, v)| format!("{k} {:.1}%", v * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", median(&setups), "s");
        let quiet_lat = quiet_latencies(&responses);
        m.put("ops_per_s", quiet_rate(&responses, &quiet_lat), "1/s");
        m.put("latency_ms_p50", quantile(&quiet_lat, 0.5), "ms");
        m.put("latency_ms_p90", quantile(&quiet_lat, 0.9), "ms");
        m.put(
            "decided_ratio",
            decided as f64 / conflicts.max(1) as f64,
            "ratio",
        );
        m.put("success_ratio", 1.0 - failed as f64 / n, "ratio");
        m.put("peak_rss_mb", rss, "MiB");
        m.put("cpu_ms_per_op", median(&round_cpu_per_op), "ms");
    } else {
        let round1: Vec<&Resp> = {
            let mut v: Vec<&Resp> = responses.iter().filter(|r| r.round == 0).collect();
            v.sort_by_key(|r| (r.pos, r.copy));
            v
        };
        failed += replay(&round1, &ws, &expected, &mut m, args)?;
        let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
        let fresh_texts: BTreeSet<&str> = responses
            .iter()
            .filter_map(|r| r.req.fresh.as_deref())
            .collect();
        m.put(
            "core.cache.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        m.put("core.cache.misses", misses, "count");
        m.put(
            "core.cache.duplicate_builds",
            misses - fresh_texts.len() as f64,
            "count",
        );
        for kind in [Kind::Analyze, Kind::Explain, Kind::Lint] {
            let lat: Vec<f64> = responses
                .iter()
                .filter(|r| r.req.kind == kind)
                .map(|r| r.latency_ms)
                .collect();
            if !lat.is_empty() {
                m.put(
                    format!("service.latency_ms_p50.{}", kind.name()),
                    median(&lat),
                    "ms",
                );
            }
        }
        for (k, v) in shares {
            m.put(format!("serve.share.{k}"), v, "ratio");
        }
    }
    Ok(Outcome {
        correct: failed == 0 && fp_ok,
        attempted: responses.len() as u64,
        failed,
        metrics: m,
    })
}

/// Each response's latency replaced by the quiet-host latency of its
/// request type over the run (see [`quiet`]): kind, grammar, warm or
/// fresh, paired or not. Every round has the same composition.
fn quiet_latencies(responses: &[Resp]) -> Vec<f64> {
    let key = |r: &Resp| (r.req.kind, r.req.input, r.req.fresh.is_some(), r.req.pair);
    let mut by_type: HashMap<_, Vec<f64>> = HashMap::new();
    for r in responses {
        by_type.entry(key(r)).or_default().push(r.latency_ms);
    }
    let quiet_by_type: HashMap<_, f64> = by_type.into_iter().map(|(k, v)| (k, quiet(&v))).collect();
    responses.iter().map(|r| quiet_by_type[&key(r)]).collect()
}

/// Requests per second of the closed loop at the quiet-host latencies:
/// responses over the time their requests take one after another, the
/// two copies of a pair together.
fn quiet_rate(responses: &[Resp], quiet_lat: &[f64]) -> f64 {
    let mut steps: HashMap<(usize, usize), f64> = HashMap::new();
    for (r, &t) in responses.iter().zip(quiet_lat) {
        let step = steps.entry((r.round, r.pos)).or_default();
        *step = step.max(t);
    }
    responses.len() as f64 * 1e3 / steps.values().sum::<f64>()
}

/// Parses `text` and builds its engine into `engines` unless one is
/// there, timing both as children of `root`. Returns the grammar when it
/// built one.
fn build(
    tr: &mut Tracer,
    op: u64,
    root: SpanId,
    text: &str,
    input: &Input,
    engines: &mut BTreeMap<String, Engine<'static>>,
) -> Result<Option<&'static Grammar>, String> {
    if engines.contains_key(text) {
        return Ok(None);
    }
    let (g, _) = tr.time(pipeline::parse_span(input.format), op, Some(root), || {
        parse(text, input.format)
    });
    let g: &'static Grammar = Box::leak(Box::new(g.map_err(|e| e.to_string())?));
    let (engine, _) = tr.time("core.engine", op, Some(root), || Engine::new(g));
    engines.insert(text.to_owned(), engine);
    Ok(Some(g))
}

/// Replays round 1 in process, twice per request: through a warm
/// `Session` (the service minus its transport, for `service.overhead_ms`)
/// and composed from the layers' public calls on warm engines the
/// benchmark owns (for the per-layer spans; `trace.overhead_ms` is the
/// composed minus the session time). Returns the number of
/// composed reports that differ from the session's.
fn replay(
    round1: &[&Resp],
    ws: &[Input],
    expected: &HashMap<(Kind, usize), Expected>,
    m: &mut Metrics,
    args: &Args,
) -> Result<u64, String> {
    let cfg = pipeline::config(REPLAY_WORKERS);
    let mut tr = Tracer::new();
    // Grammars are leaked so that the engines borrowing them can live in
    // the map; the replay builds a few dozen.
    let mut engines: BTreeMap<String, Engine<'static>> = BTreeMap::new();
    // Both sides start as warm as the server did: one explain per
    // working-set grammar.
    let session = Session::new();
    for input in ws {
        let req = pipeline::request(input, &input.text, cfg);
        pipeline::session_call(&session, &req, Kind::Explain).map_err(|e| e.to_string())?;
        let root = tr.open("warm-up", 0, None);
        let g = build(&mut tr, 0, root, &input.text, input, &mut engines)?;
        let engine = &engines[&input.text];
        let (_, report) =
            pipeline::traced_stages(&mut tr, 0, root, &input.name, engine, Kind::Explain, &cfg)?;
        tr.close(root);
        if let Some(g) = g {
            pipeline::probe(&mut tr, 0, g, &report);
        }
    }
    let (mut overhead, mut trace_overhead) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for (k, r) in round1.iter().enumerate() {
        let op = k as u64 + 1;
        let input = &ws[r.req.input];
        let text = text_of(input, r.req.fresh.as_deref());

        let req = pipeline::request(input, &text, cfg);
        let t0 = Instant::now();
        let reply = match r.req.kind {
            Kind::Lint => session
                .lint(GrammarSource::auto(text.as_str()))
                .map(|_| None),
            kind => pipeline::session_call(&session, &req, kind).map(Some),
        }
        .map_err(|e| format!("replay of {}: {e}", input.name))?;
        let t1 = Instant::now();
        let _json = reply.as_ref().map(Reply::json);
        let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.record("api.session", op, t0, t1);
        overhead.push(r.latency_ms - replay_ms);

        let root = tr.open("op", op, None);
        let fresh_build = build(&mut tr, op, root, &text, input, &mut engines)?;
        let engine = &engines[&text];
        let mut report = GrammarReport {
            reports: Vec::new(),
            total_time: Duration::ZERO,
            stats: Default::default(),
        };
        match r.req.kind {
            Kind::Lint => {
                let (diags, s) = tr.time("lint.run", op, Some(root), || Linter::new().run(engine));
                tr.count(s, "diagnostics", diags.len() as f64);
            }
            kind => {
                let (json, rep) =
                    pipeline::traced_stages(&mut tr, op, root, &input.name, engine, kind, &cfg)?;
                if let Some(Expected::Report { json: want, .. }) =
                    expected.get(&(kind, r.req.input))
                {
                    if *want != json {
                        eprintln!("FAILED: composed {} of {} differs", kind.name(), input.name);
                        failed += 1;
                    }
                }
                report = rep;
            }
        }
        tr.close(root);
        let span = tr.span(root);
        trace_overhead.push((span.end_ns - span.start_ns) as f64 / 1e6 - replay_ms);
        if let Some(g) = fresh_build {
            pipeline::probe(&mut tr, op, g, &report);
        }
    }
    pipeline::layer_metrics(&tr, m);
    m.put("service.overhead_ms", median(&overhead), "ms");
    let n = trace_overhead.len().max(1) as f64;
    m.put(
        "trace.overhead_ms",
        trace_overhead.iter().sum::<f64>() / n,
        "ms",
    );
    write_trace(&tr, args)?;
    Ok(failed)
}
