//! The grammar sets of the three workloads, the expected verdicts, and
//! the seeded serve request scripts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lalrcex::api::GrammarFormat;
use lalrcex::grammar::{Grammar, GrammarError};
use lalrcex::prng::XorShift;

/// The repository the benchmark measures (the parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// One grammar text, as a user would hand it over.
#[derive(Clone)]
pub struct Input {
    /// Table 1 row name or file name; also the report label.
    pub name: String,
    pub text: String,
    /// The frontend content sniffing picks for `text`.
    pub format: GrammarFormat,
    /// The paper's (unifying, nonunifying, timeout) triple, for Table 1
    /// rows.
    pub paper: Option<(usize, usize, usize)>,
}

impl Input {
    fn new(name: &str, text: String, paper: Option<(usize, usize, usize)>) -> Input {
        let format = lalrcex::GrammarSource::auto(text.as_str()).resolved_format();
        Input {
            name: name.to_owned(),
            text,
            format,
            paper,
        }
    }
}

/// Parses with the frontend `format` names.
pub fn parse(text: &str, format: GrammarFormat) -> Result<Grammar, GrammarError> {
    match format {
        GrammarFormat::Yacc => lalrcex::yacc::parse(text),
        _ => Grammar::parse(text),
    }
}

/// Rows of Table 1 whose searches are bounded by the clock rather than by
/// work caps: their verdict counts depend on the machine.
const CLOCK_BOUND_ROWS: [&str; 3] = ["java-ext1", "java-ext2", "Java.2"];

/// The BV10 rows whose searches are cheap, so that LR construction,
/// provenance and the §4 spine dominate.
const LARGE_ROWS: [&str; 13] = [
    "SQL.2", "SQL.3", "SQL.4", "Pascal.1", "Pascal.2", "Pascal.3", "Pascal.4", "C.1", "C.2", "C.5",
    "Java.1", "Java.4", "Java.5",
];

/// Conflict-free base grammars and yacc twins added to the large set.
const LARGE_FILES: [&str; 6] = [
    "crates/corpus/grammars/java.y",
    "crates/corpus/grammars/c89.y",
    "crates/corpus/grammars/pascal.y",
    "crates/corpus/grammars/sql.y",
    "tests/yacc_twins/Pascal_2.y",
    "tests/yacc_twins/SQL_1.y",
];

/// The serve working set: corpus rows whose searches take at most about
/// 200 ms, plus yacc twins of some of them.
const SERVE_ROWS: [&str; 15] = [
    "figure1",
    "figure7",
    "abcd",
    "simp2",
    "eqn",
    "stackexc01",
    "stackovf02",
    "stackovf10",
    "SQL.1",
    "SQL.5",
    "Pascal.2",
    "C.1",
    "C.3",
    "Java.1",
    "Java.4",
];
const SERVE_FILES: [&str; 6] = [
    "tests/yacc_twins/figure1.y",
    "tests/yacc_twins/eqn.y",
    "tests/yacc_twins/simp2.y",
    "tests/yacc_twins/SQL_1.y",
    "tests/yacc_twins/Pascal_2.y",
    "tests/yacc_twins/C_3.y",
];
/// Working-set members sent as identical concurrent misses: each takes
/// tens of milliseconds to build, so both requests of a pair are
/// in flight before either finishes building.
const SERVE_PAIR_ELIGIBLE: [&str; 6] = ["SQL.5", "Pascal.2", "C.3", "Java.1", "Java.4", "C_3.y"];

/// The 8 yacc twins and the corpus rows they were made from.
const TWINS: [(&str, &str); 8] = [
    ("figure1.y", "figure1"),
    ("eqn.y", "eqn"),
    ("simp2.y", "simp2"),
    ("stackovf08.y", "stackovf08"),
    ("SQL_1.y", "SQL.1"),
    ("Pascal_2.y", "Pascal.2"),
    ("C_3.y", "C.3"),
    ("Java_2.y", "Java.2"),
];

fn corpus_row(name: &str) -> Result<Input, String> {
    let e = lalrcex::corpus::by_name(name).ok_or_else(|| format!("no corpus row {name}"))?;
    let p = e.paper;
    Ok(Input::new(
        name,
        e.text(),
        Some((p.unifying, p.nonunifying, p.timeouts)),
    ))
}

fn file(rel: &str) -> Result<Input, String> {
    let path = repo_root().join(rel);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let name = rel.rsplit('/').next().unwrap_or(rel);
    Ok(Input::new(name, text, None))
}

/// Table 1 minus the clock-bound rows: 39 grammars, 105 conflicts.
pub fn paper_corpus() -> Result<Vec<Input>, String> {
    lalrcex::corpus::all()
        .iter()
        .filter(|e| !CLOCK_BOUND_ROWS.contains(&e.name))
        .map(|e| corpus_row(e.name))
        .collect()
}

pub fn large_grammars() -> Result<Vec<Input>, String> {
    let mut v: Vec<Input> = LARGE_ROWS
        .iter()
        .map(|n| corpus_row(n))
        .collect::<Result<_, _>>()?;
    for f in LARGE_FILES {
        v.push(file(f)?);
    }
    Ok(v)
}

pub fn serve_working_set() -> Result<Vec<Input>, String> {
    let mut v: Vec<Input> = SERVE_ROWS
        .iter()
        .map(|n| corpus_row(n))
        .collect::<Result<_, _>>()?;
    for f in SERVE_FILES {
        v.push(file(f)?);
    }
    Ok(v)
}

/// The twin pairs (yacc twin, DSL original), for the frontend probe.
pub fn twins() -> Result<Vec<(Input, Input)>, String> {
    TWINS
        .iter()
        .map(|(y, row)| Ok((file(&format!("tests/yacc_twins/{y}"))?, corpus_row(row)?)))
        .collect()
}

/// Parses every input once, so a broken input fails before timing.
pub fn check_parses(inputs: &[Input]) -> Result<(), String> {
    for i in inputs {
        parse(&i.text, i.format).map_err(|e| format!("{}: {e}", i.name))?;
    }
    Ok(())
}

/// Expected (unifying, exhausted, timeout) verdicts per grammar name.
pub fn expected_verdicts() -> Result<BTreeMap<String, (usize, usize, usize)>, String> {
    let path = repo_root().join("perfbench/expected_verdicts.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<usize, String> {
            f.get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad expected-verdicts line `{line}`"))
        };
        out.insert(f[0].to_owned(), (num(1)?, num(2)?, num(3)?));
    }
    Ok(out)
}

/// The three request kinds of the serve protocol the benchmark uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    Analyze,
    Explain,
    Lint,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Analyze => "analyze",
            Kind::Explain => "explain",
            Kind::Lint => "lint",
        }
    }
}

/// One serve request of the client's script.
#[derive(Clone, Debug)]
pub struct Req {
    pub kind: Kind,
    /// Index into the working set.
    pub input: usize,
    /// A unique trailing comment: changes the cache key, not the grammar.
    pub fresh: Option<String>,
    /// Sent twice at once, both in flight before either is answered (an
    /// identical concurrent miss).
    pub pair: bool,
}

/// What each working-set grammar gets per round: 5 analyze, 3 explain
/// and 2 lint requests, the 50/30/20 mix exactly.
const ROUND_KINDS: [Kind; 10] = [
    Kind::Analyze,
    Kind::Analyze,
    Kind::Analyze,
    Kind::Analyze,
    Kind::Analyze,
    Kind::Explain,
    Kind::Explain,
    Kind::Explain,
    Kind::Lint,
    Kind::Lint,
];
/// Positions per round where one fresh variant is sent twice at once.
const PAIRS: usize = 5;

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut XorShift) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(i + 1));
    }
}

/// The client's script for one round. Every working-set grammar appears
/// with each kind of [`ROUND_KINDS`], in a seeded order. Fresh variants
/// are fixed too: each grammar's first analyze request is fresh, and
/// every other grammar's first explain request. Each round thus has the
/// same composition, and only the order and the pairs vary with the seed
/// (a seeded choice of fresh requests moved the median latency by a fifth
/// from seed to seed). With 21 grammars a round is 210 requests plus 5
/// pairs sent twice, 220 in all: 32 fresh singles and 10 paired
/// requests, so 42 fresh variants (19 %), 10 of them paired (24 %).
pub fn serve_round(rng: &mut XorShift, working_set: &[Input], seed: u64, round: usize) -> Vec<Req> {
    let mut script: Vec<Req> = Vec::new();
    for input in 0..working_set.len() {
        for (slot, &kind) in ROUND_KINDS.iter().enumerate() {
            let fresh = slot == 0 || (slot == 5 && input % 2 == 0);
            script.push(Req {
                kind,
                input,
                fresh: fresh.then(|| format!("\n/* fresh {seed:x}-{round}-{input}-{slot} */\n")),
                pair: false,
            });
        }
    }
    shuffle(&mut script, rng);
    let pair_eligible: Vec<usize> = working_set
        .iter()
        .enumerate()
        .filter(|(_, i)| SERVE_PAIR_ELIGIBLE.contains(&i.name.as_str()))
        .map(|(k, _)| k)
        .collect();
    for p in 0..PAIRS {
        let req = Req {
            kind: ROUND_KINDS[rng.gen_range(ROUND_KINDS.len())],
            input: pair_eligible[rng.gen_range(pair_eligible.len())],
            fresh: Some(format!("\n/* fresh {seed:x}-{round}-pair{p} */\n")),
            pair: true,
        };
        let at = rng.gen_range(script.len() + 1);
        script.insert(at, req);
    }
    script
}
