//! Statistics, process accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `q`-quantile of `values`, interpolating linearly between the two
/// nearest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The cost of one op on a quiet host, from its repeated samples in a
/// run: their 10th percentile. The host is shared with other tenants, and
/// their interference switches on and off within seconds, slowing small
/// ops by up to half while it lasts; it only ever adds time. Its share of
/// a minute differs from run to run by more than a benchmark bound, which
/// moves a median or a mean of the samples with it, while the fast
/// samples of every run agree.
pub fn quiet(samples: &[f64]) -> f64 {
    quantile(samples, 0.1)
}

/// User plus system CPU time of a process (all its threads), in ms.
/// `/proc/<pid>/stat` counts in clock ticks, which are 1/100 s on Linux.
pub fn cpu_ms(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 10.0
}

/// Peak resident set size (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64: turns the `--seed` argument into a well-mixed generator
/// seed, so nearby seeds give unrelated input orders.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identity of the code being measured: an FNV-1a hash of the bytes of
/// this benchmark's executable, which links the library in statically,
/// and of each extra executable the run drives (the serve child).
pub fn build_id(extra: &[&Path]) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in std::iter::once(exe.as_path()).chain(extra.iter().copied()) {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(h)
}

/// The metrics of one run, in insertion order of first use.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }

    /// Prints a readable table to stderr.
    pub fn eprint(&self) {
        for (name, value, unit) in &self.values {
            eprintln!("  {name:<34} {value:>14.4} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Deterministic counters of a run, kept apart from every wall-clock
/// field. Two runs of one workload with one seed must produce the same
/// fingerprint; a search cut by the clock instead of a work cap shows up
/// here as a difference.
#[derive(Default)]
pub struct Fingerprint {
    lines: BTreeMap<String, String>,
}

impl Fingerprint {
    pub fn record(&mut self, key: impl Into<String>, line: String) {
        self.lines.insert(key.into(), line);
    }

    pub fn get(&self, key: &str) -> Option<&String> {
        self.lines.get(key)
    }

    pub fn text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.lines {
            let _ = writeln!(out, "{k}: {v}");
        }
        out
    }

    /// Compares against the fingerprint an earlier run of the same build
    /// with the same workload and seed left in `dir`, or stores this one
    /// if none did. Returns `false` on a difference. `build` identifies
    /// the code measured (see [`build_id`]): a changed program may lower
    /// its counters legitimately, so only runs of one build are compared.
    pub fn check_and_store(&self, dir: &Path, workload: &str, seed: u64, build: u64) -> bool {
        let path = dir.join(format!("fingerprint-{workload}-{seed}-{build:016x}.txt"));
        let text = self.text();
        match std::fs::read_to_string(&path) {
            Ok(prev) if prev == text => true,
            Ok(prev) => {
                let first = prev
                    .lines()
                    .zip(text.lines())
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("was `{a}`, now `{b}`"))
                    .unwrap_or_else(|| "different length".to_owned());
                eprintln!(
                    "fingerprint differs from an earlier run with seed {seed} ({}): {first}",
                    path.display()
                );
                false
            }
            Err(_) => {
                let _ = std::fs::create_dir_all(dir);
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("cannot store fingerprint {}: {e}", path.display());
                }
                true
            }
        }
    }
}
