//! The in-process workloads, `paper_corpus` and `large_grammars`: each op
//! analyzes one grammar cold, to a rendered JSON report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lalrcex::prng::XorShift;

use crate::inputs::{self, Input, Kind};
use crate::measure::{
    build_id, cpu_ms, median, peak_rss_mb, quantile, quiet, splitmix64, Fingerprint, Metrics,
};
use crate::pipeline::{self, WORKERS};
use crate::trace::Tracer;
use crate::{out_dir, write_trace, Args, Outcome};

/// Set-ups before the first op. An untraced run repeats the set-up
/// after an op whenever [`SETUP_EVERY`] has passed since the last one;
/// `setup_s` is the median of all of them. A set-up takes about 10 ms,
/// so 50 in a row all saw the host in one state, and their median moved
/// by a third from run to run.
const SETUP_REPS: usize = 5;
const SETUP_EVERY: Duration = Duration::from_millis(500);
/// A grammar whose first op took less than this share of the first pass
/// is analyzed again after each later op, round robin with the others
/// like it, [`EXTRA_PER_OP`] at a time. In `paper_corpus` a few searches
/// take nearly all of a pass, so without these a cheap grammar would be
/// sampled at only a few instants of the run, too few to be sure of
/// catching the host quiet (see [`quiet`]).
const CHEAP_SHARE: f64 = 0.01;
const EXTRA_PER_OP: usize = 2;

struct Prepared {
    inputs: Vec<Input>,
    expected: BTreeMap<String, (usize, usize, usize)>,
    rng: XorShift,
}

fn prepare(load: fn() -> Result<Vec<Input>, String>, seed: u64) -> Result<Prepared, String> {
    let inputs = load()?;
    inputs::check_parses(&inputs)?;
    Ok(Prepared {
        inputs,
        expected: inputs::expected_verdicts()?,
        rng: XorShift::new(splitmix64(seed)),
    })
}

/// The order of one pass: the workload's list rotated by a seeded
/// offset. A full shuffle made op times depend on which grammar follows
/// a search that peaks near 1 GiB (heap state carries over), so
/// `ops_per_s` moved by 10 % from seed to seed; a rotation keeps the
/// neighbours fixed and still varies the order with the seed.
fn rotation(n: usize, rng: &mut XorShift) -> Vec<usize> {
    let start = rng.gen_range(n);
    (0..n).map(|k| (start + k) % n).collect()
}

/// Tallies of the correctness gate over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// (conflicts, decided) per grammar; the fingerprint check makes
    /// sure every op of a grammar gives the same.
    verdicts: BTreeMap<String, (u64, u64)>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        eprintln!("FAILED: {why}");
        self.failed += 1;
    }
}

/// Gates one untraced op, returning its fingerprint line.
fn check_untraced(
    input: &Input,
    op: &pipeline::Untraced,
    expected: &BTreeMap<String, (usize, usize, usize)>,
    tally: &mut Tally,
) -> Option<String> {
    tally.attempted += 1;
    let reply = match &op.reply {
        Ok(r) => r,
        Err(e) => {
            tally.fail(format!("{}: {e}", input.name));
            return None;
        }
    };
    let report = reply.report();
    let (u, n, _) = pipeline::verdicts(report);
    tally.verdicts.insert(
        input.name.clone(),
        (report.reports.len() as u64, (u + n) as u64),
    );
    let mut problems = pipeline::gate(reply.grammar(), report);
    problems.extend(pipeline::check_verdicts(input, report, expected));
    if !problems.is_empty() {
        tally.fail(format!("{}: {}", input.name, problems.join("; ")));
    }
    Some(pipeline::fingerprint_line(report, op.json.len()))
}

/// Records a fingerprint line, failing the op when an earlier pass of
/// this run recorded a different one for the same grammar.
fn note_fingerprint(fp: &mut Fingerprint, name: &str, line: String, tally: &mut Tally) {
    match fp.get(name) {
        Some(prev) if *prev != line => tally.fail(format!(
            "{name}: counters changed between passes: {prev} vs {line}"
        )),
        Some(_) => {}
        None => fp.record(name, line),
    }
}

/// Runs one in-process workload. An untraced run makes passes until
/// `--seconds` of ops are timed, and at least `min_passes` passes and 100
/// ops.
pub fn run(
    args: &Args,
    load: fn() -> Result<Vec<Input>, String>,
    kind: Kind,
    min_passes: usize,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        prepared = Some(prepare(load, args.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let Prepared {
        inputs,
        expected,
        mut rng,
    } = prepared.expect("at least one set-up");
    let cfg = pipeline::config(WORKERS);
    let mut tally = Tally::default();
    let mut fp = Fingerprint::default();
    let mut m = Metrics::default();

    if !args.trace {
        // Every grammar's latency and CPU time per op. The run reports
        // each grammar's latency on a quiet host (see `quiet`) and its
        // mean CPU time: the process clock ticks at 10 ms, too coarse for
        // a quantile of single ops, but its sum over many is exact.
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
        let mut cpu: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
        let (mut ops, mut passes, mut timed) = (0, 0, 0.0);
        let mut op = |i: usize, tally: &mut Tally, fp: &mut Fingerprint| {
            let input = &inputs[i];
            let c0 = cpu_ms("self");
            let op = pipeline::untraced_cold(input, kind, cfg);
            cpu[i].push(cpu_ms("self") - c0);
            lat[i].push(op.latency.as_secs_f64() * 1e3);
            if let Some(line) = check_untraced(input, &op, &expected, tally) {
                note_fingerprint(fp, &input.name, line, tally);
            }
            op.latency.as_secs_f64()
        };
        let (mut this_pass, mut cheap, mut next_cheap) = (vec![0.0; inputs.len()], Vec::new(), 0);
        let mut last_setup = Instant::now();
        loop {
            let order = rotation(inputs.len(), &mut rng);
            let mut pass_s = 0.0;
            for &i in &order {
                this_pass[i] = op(i, &mut tally, &mut fp);
                pass_s += this_pass[i];
                ops += 1;
                for _ in 0..EXTRA_PER_OP.min(cheap.len()) {
                    timed += op(cheap[next_cheap % cheap.len()], &mut tally, &mut fp);
                    next_cheap += 1;
                    ops += 1;
                }
                if last_setup.elapsed() >= SETUP_EVERY {
                    let t = Instant::now();
                    prepare(load, args.seed)?;
                    setups.push(t.elapsed().as_secs_f64());
                    last_setup = Instant::now();
                }
            }
            if passes == 0 {
                cheap = order
                    .iter()
                    .copied()
                    .filter(|&i| this_pass[i] < CHEAP_SHARE * pass_s)
                    .collect();
            }
            timed += pass_s;
            passes += 1;
            if timed >= args.seconds && passes >= min_passes && ops >= 100 {
                break;
            }
        }
        eprintln!(
            "{ops} ops in {passes} passes, {timed:.2} s timed, {} set-ups",
            setups.len()
        );
        let quiet_lat: Vec<f64> = lat.iter().map(|v| quiet(v)).collect();
        let mean_cpu: f64 = cpu
            .iter()
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .sum();
        let n = inputs.len() as f64;
        m.put("setup_s", median(&setups), "s");
        m.put("ops_per_s", n * 1e3 / quiet_lat.iter().sum::<f64>(), "1/s");
        m.put("latency_ms_p50", quantile(&quiet_lat, 0.5), "ms");
        m.put("latency_ms_p90", quantile(&quiet_lat, 0.9), "ms");
        let (conflicts, decided) = tally
            .verdicts
            .values()
            .fold((0, 0), |(c, d), &(c1, d1)| (c + c1, d + d1));
        m.put(
            "decided_ratio",
            decided as f64 / conflicts.max(1) as f64,
            "ratio",
        );
        m.put(
            "success_ratio",
            1.0 - tally.failed as f64 / tally.attempted as f64,
            "ratio",
        );
        m.put("peak_rss_mb", peak_rss_mb("self"), "MiB");
        m.put("cpu_ms_per_op", mean_cpu / n, "ms");
    } else {
        // Each grammar runs untraced and traced back to back, alternating
        // which goes first, so that heap state left by the previous op
        // favours neither side of the overhead comparison.
        let mut tr = Tracer::new();
        let (mut untraced_s, mut traced_s, mut op_id) = (0.0, 0.0, 0u64);
        let (mut hits, mut misses, mut dup) = (0u64, 0u64, 0u64);
        loop {
            for i in rotation(inputs.len(), &mut rng) {
                let input = &inputs[i];
                let mut untraced = None;
                let mut traced = None;
                for side in [op_id % 2, 1 - op_id % 2] {
                    op_id += 1;
                    if side == 0 {
                        let op = pipeline::untraced_cold(input, kind, cfg);
                        tr.record("api.session", op_id, op.started, op.started + op.session);
                        untraced_s += op.latency.as_secs_f64();
                        hits += op.hits;
                        misses += op.misses;
                        dup += op.misses.saturating_sub(1);
                        if let Some(line) = check_untraced(input, &op, &expected, &mut tally) {
                            note_fingerprint(&mut fp, &input.name, line, &mut tally);
                        }
                        untraced = Some(op.json);
                    } else {
                        tally.attempted += 1;
                        match pipeline::traced_cold(&mut tr, op_id, input, kind, &cfg) {
                            Ok((json, report, latency)) => {
                                traced_s += latency.as_secs_f64();
                                let line = pipeline::fingerprint_line(&report, json.len());
                                note_fingerprint(&mut fp, &input.name, line, &mut tally);
                                traced = Some(json);
                            }
                            Err(e) => tally.fail(e),
                        }
                    }
                }
                if traced.is_some() && traced != untraced {
                    tally.fail(format!(
                        "{}: traced report differs from the untraced one",
                        input.name
                    ));
                }
            }
            if untraced_s + traced_s >= args.seconds {
                break;
            }
        }
        pipeline::layer_metrics(&tr, &mut m);
        m.put(
            "core.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        m.put("core.cache.misses", misses as f64, "count");
        m.put("core.cache.duplicate_builds", dup as f64, "count");
        let ops = (tally.attempted / 2).max(1) as f64;
        m.put(
            "trace.overhead_ms",
            (traced_s - untraced_s) * 1e3 / ops,
            "ms",
        );
        if kind == Kind::Explain {
            twin_parse_probe(&mut m)?;
        }
        write_trace(&tr, args)?;
    }
    let build = build_id(&[])?;
    let fp_ok = fp.check_and_store(&out_dir(), &args.workload, args.seed, build);
    Ok(Outcome {
        correct: tally.failed == 0 && fp_ok,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

/// Both frontends, parse only, on the 8 yacc twins and their DSL
/// originals: the median over repetitions of one sweep of all 8.
fn twin_parse_probe(m: &mut Metrics) -> Result<(), String> {
    const REPS: usize = 9;
    let twins = inputs::twins()?;
    let (mut yacc, mut dsl) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        for (y, _) in &twins {
            std::hint::black_box(lalrcex::yacc::parse(&y.text).map_err(|e| e.to_string())?);
        }
        yacc.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for (_, d) in &twins {
            std::hint::black_box(
                lalrcex::grammar::Grammar::parse(&d.text).map_err(|e| e.to_string())?,
            );
        }
        dsl.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.put("frontend.twins.yacc_parse_ms", median(&yacc), "ms");
    m.put("frontend.twins.dsl_parse_ms", median(&dsl), "ms");
    Ok(())
}
