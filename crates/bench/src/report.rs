//! `BENCH_report.json`: the one module that knows the file's format.
//!
//! The file versions what this reproduction exists to record — the
//! paper's §VII artifacts — plus the few kernel-ratio floors that no
//! test and no `benchmark/` workload covers (`docs/benchmarks.md` has
//! the rule and the schema). It is read with [`sprint_server::Json`],
//! merged one section at a time, and written back one array element
//! per line:
//!
//! ```json
//! {
//!   "schema": 2,
//!   "experiments": [ {"id": "fig11", ...}, ... ],
//!   "benches": [ {"id": "dense/fused", "unit": "ns", "median": 1, "min": 1, "max": 1, "samples": 10}, ... ]
//! }
//! ```
//!
//! Three writers share it, each through [`Report`]: `report --json`
//! replaces `experiments`; the benches ending in [`crate::bench_main!`]
//! and the `stress_test` binary merge rows into `benches`. The other
//! section is always written back as it was read.

use std::fmt;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

use sprint_core::ExperimentResult;
use sprint_server::Json;

/// The layout version this module reads and writes. There is no reader
/// for older layouts: regenerate the file instead.
pub const SCHEMA: u64 = 2;

/// What a [`Row`]'s numbers count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Wall-clock nanoseconds.
    Ns,
    /// A plain count.
    Count,
    /// Parts per million.
    Ppm,
    /// 0 or 1.
    Flag,
}

impl Unit {
    /// The unit's name in the file.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Count => "count",
            Unit::Ppm => "ppm",
            Unit::Flag => "flag",
        }
    }
}

/// One entry of the `benches` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `"group/function"` label.
    pub id: String,
    /// What `median`/`min`/`max` count.
    pub unit: Unit,
    /// Median over the samples (the headline number).
    pub median: u128,
    /// Smallest sample.
    pub min: u128,
    /// Largest sample.
    pub max: u128,
    /// How many samples the numbers summarize; never zero in a file
    /// that passes [`Report::check`].
    pub samples: u64,
}

impl Row {
    /// A row for a quantity that is computed once rather than sampled
    /// (a detected host property, a rate over `samples` requests).
    pub fn value(id: &str, unit: Unit, value: u128, samples: u64) -> Row {
        Row {
            id: id.to_string(),
            unit,
            median: value,
            min: value,
            max: value,
            samples,
        }
    }

    fn to_json(&self) -> Json {
        let int = |v: u128| Json::Int(i128::try_from(v).unwrap_or(i128::MAX));
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("unit", Json::Str(self.unit.name().to_string())),
            ("median", int(self.median)),
            ("min", int(self.min)),
            ("max", int(self.max)),
            ("samples", int(self.samples.into())),
        ])
    }

    fn from_json(entry: &Json) -> Result<Row, String> {
        let id = entry.str_field("id").filter(|id| !id.is_empty());
        let id = id.ok_or("a bench row has no id")?;
        let unit = entry.str_field("unit").unwrap_or("(none)");
        let unit = [Unit::Ns, Unit::Count, Unit::Ppm, Unit::Flag]
            .into_iter()
            .find(|u| u.name() == unit)
            .ok_or_else(|| format!("bench '{id}': unit {unit} is not ns, count, ppm or flag"))?;
        let int = |key: &str| match entry.get(key) {
            Some(Json::Int(v)) if *v >= 0 => Ok(*v as u128),
            _ => Err(format!("bench '{id}': {key} is not a non-negative integer")),
        };
        let samples = entry.u64_field("samples").filter(|&n| n > 0);
        Ok(Row {
            id: id.to_string(),
            unit,
            median: int("median")?,
            min: int("min")?,
            max: int("max")?,
            samples: samples.ok_or_else(|| format!("bench '{id}': missing or zero samples"))?,
        })
    }
}

impl From<criterion::BenchRecord> for Row {
    fn from(r: criterion::BenchRecord) -> Row {
        Row {
            id: r.id,
            unit: Unit::Ns,
            median: r.median_ns,
            min: r.min_ns,
            max: r.max_ns,
            samples: r.samples as u64,
        }
    }
}

/// Renders one experiment as the `experiments` entry it is stored as.
///
/// # Example
///
/// ```
/// use sprint_core::ExperimentResult;
///
/// let mut r = ExperimentResult::new("fig11", "Speedup").headers(["Model", "S"]);
/// r.push_row(["BERT-B", "9.0x"]);
/// let json = sprint_bench::report::experiment_json(&r);
/// assert_eq!(json.str_field("id"), Some("fig11"));
/// assert!(json.to_string().contains(r#""rows":[["BERT-B","9.0x"]]"#));
/// ```
pub fn experiment_json(r: &ExperimentResult) -> Json {
    let strings = |items: &[String]| Json::Arr(items.iter().cloned().map(Json::Str).collect());
    Json::obj([
        ("id", Json::Str(r.id.clone())),
        ("title", Json::Str(r.title.clone())),
        ("headers", strings(&r.headers)),
        (
            "rows",
            Json::Arr(r.rows.iter().map(|row| strings(row)).collect()),
        ),
        ("notes", strings(&r.notes)),
    ])
}

/// Renders `items` as a JSON array with one element per line (the
/// layout of both sections of the file and of `report --json`).
pub fn array_lines(items: &[Json], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let lines: Vec<String> = items
        .iter()
        .map(|item| format!("{indent}  {item}"))
        .collect();
    format!("[\n{}\n{indent}]", lines.join(",\n"))
}

/// The parsed file: both sections as their JSON entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// One entry per paper artifact ([`experiment_json`]).
    pub experiments: Vec<Json>,
    /// One entry per [`Row`].
    pub benches: Vec<Json>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (experiments, benches) = (
            array_lines(&self.experiments, "  "),
            array_lines(&self.benches, "  "),
        );
        writeln!(f, "{{\n  \"schema\": {SCHEMA},")?;
        writeln!(
            f,
            "  \"experiments\": {experiments},\n  \"benches\": {benches}\n}}"
        )
    }
}

impl Report {
    /// The committed snapshot: `BENCH_report.json` in the workspace
    /// root (the first ancestor of the current directory that holds a
    /// `Cargo.lock`; `.` if none does).
    pub fn default_path() -> PathBuf {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let root = cwd.ancestors().find(|dir| dir.join("Cargo.lock").is_file());
        root.unwrap_or(Path::new(".")).join("BENCH_report.json")
    }

    /// Parses the file's text; refuses a syntax error, a `schema` other
    /// than [`SCHEMA`] and a section that is not an array.
    pub fn parse(text: &str) -> Result<Report, String> {
        let Json::Obj(mut doc) = Json::parse(text)? else {
            return Err("the report is not a JSON object".to_string());
        };
        let schema = doc.get("schema").and_then(Json::as_u64);
        if schema != Some(SCHEMA) {
            return Err(format!(
                "the report is schema {}, this build reads only schema {SCHEMA} (rows carry \
                 a unit); regenerate it with `report --json` and `--bench-json`",
                schema.map_or("(none)".to_string(), |s| s.to_string()),
            ));
        }
        let mut section = |key: &str| match doc.remove(key) {
            Some(Json::Arr(items)) => Ok(items),
            None => Ok(Vec::new()),
            Some(_) => Err(format!("\"{key}\" is not an array")),
        };
        Ok(Report {
            experiments: section("experiments")?,
            benches: section("benches")?,
        })
    }

    /// Reads the file at `path`; a file that does not exist yet is an
    /// empty report.
    pub fn load(path: &Path) -> Result<Report, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Report::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Report::default()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Writes the file at `path`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Merges `rows` into `benches`: an entry whose `id` is re-reported
    /// is dropped, every other entry stays as it is, and the fresh rows
    /// are appended.
    pub fn merge(&mut self, rows: &[Row]) {
        let fresh = |id: &str| rows.iter().any(|r| r.id == id);
        self.benches
            .retain(|entry| !entry.str_field("id").is_some_and(fresh));
        self.benches.extend(rows.iter().map(Row::to_json));
    }

    /// [`Report::merge`] on the file at `path`.
    pub fn merge_into(path: &Path, rows: &[Row]) -> Result<(), String> {
        let mut report = Report::load(path)?;
        report.merge(rows);
        report.save(path)
    }

    /// Validates every bench row and runs the four floors; returns the
    /// lines to print, one per floor checked or skipped, or the first
    /// malformed row or missed floor. A floor whose rows are absent is
    /// skipped: CI's fresh emission and the committed snapshot hold
    /// different rows.
    pub fn check(&self) -> Result<Vec<String>, String> {
        if self.benches.is_empty() {
            return Err("\"benches\" is empty".to_string());
        }
        let rows: Vec<Row> = self
            .benches
            .iter()
            .map(Row::from_json)
            .collect::<Result<_, _>>()?;
        let floors = Floors(&rows);
        let mut lines = Vec::new();
        // 1. Forced-scalar over forced-AVX2 on the fused kernels, where
        // the bench ran on AVX2+FMA hardware (elsewhere the tiers are
        // the same code). Measured around 2.2x.
        if matches!(floors.get("host/simd_avx2", Unit::Flag)?, Some(1..)) {
            for kernel in ["dense-fused", "pruned-fused"] {
                let scalar = format!("simd/scalar/{kernel}");
                let avx2 = format!("simd/avx2/{kernel}");
                lines.push(floors.ratio("simd", &scalar, &avx2, 2.0..=f64::INFINITY)?);
            }
        } else {
            lines.push("simd: host/simd_avx2 is absent or 0 (speedup floor skipped)".into());
        }
        // 2. Below the sparse-walk break-even the pruned kernel streams
        // every key, so a 50 %-keep head must track the dense kernel
        // instead of paying the skip walk's branches.
        let (rate50, dense) = ("pruned/fused-rate50", "dense/fused");
        lines.push(floors.ratio("crossover", rate50, dense, 0.0..=1.05)?);
        lines.push(check_fault_sweep(&self.experiments)?);
        // 4. At about twice its capacity the server must shed, but not
        // nearly everything, and its bounded queues must keep the tail
        // of what it does serve bounded.
        let (shed, p99) = ("server/overload/shed_rate_ppm", "server/overload/p99_ns");
        lines.push(floors.value(shed, Unit::Ppm, 1_000..=950_000)?);
        lines.push(floors.value(p99, Unit::Ns, 0..=2_000_000_000)?);
        let (benches, experiments) = (rows.len(), self.experiments.len());
        lines.push(format!(
            "{benches} bench rows and {experiments} experiments ok"
        ));
        Ok(lines)
    }
}

/// The typed rows, as the floors read them. A floor returns the line to
/// print (also when it skips because its rows are absent) or the miss.
struct Floors<'a>(&'a [Row]);

impl Floors<'_> {
    /// The median of row `id`, which its floor reads in `unit`; `None`
    /// when the report has no such row.
    fn get(&self, id: &str, unit: Unit) -> Result<Option<u128>, String> {
        match self.0.iter().find(|r| r.id == id) {
            Some(row) if row.unit != unit => Err(format!(
                "bench '{id}': unit is {}, its floor reads {}",
                row.unit.name(),
                unit.name()
            )),
            row => Ok(row.map(|r| r.median)),
        }
    }

    /// Floor: the median of `id` lies in `range`.
    fn value(&self, id: &str, unit: Unit, range: RangeInclusive<u128>) -> Result<String, String> {
        let (unit_name, lo, hi) = (unit.name(), range.start(), range.end());
        match self.get(id, unit)? {
            None => Ok(format!("{id}: not in this report (skipped)")),
            Some(v) if range.contains(&v) => {
                Ok(format!("{id}: {v} {unit_name} inside [{lo}, {hi}]"))
            }
            Some(v) => Err(format!("{id}: {v} {unit_name} is outside [{lo}, {hi}]")),
        }
    }

    /// Floor: the median of `ns` row `num` over that of `den` lies in
    /// `range`.
    fn ratio(
        &self,
        floor: &str,
        num: &str,
        den: &str,
        range: RangeInclusive<f64>,
    ) -> Result<String, String> {
        let (Some(n), Some(d)) = (self.get(num, Unit::Ns)?, self.get(den, Unit::Ns)?) else {
            return Ok(format!(
                "{floor}: {num} and {den} not in this report (skipped)"
            ));
        };
        let (ratio, lo, hi) = (n as f64 / d.max(1) as f64, range.start(), range.end());
        let verdict = format!("{floor}: {num} is {ratio:.2}x {den}");
        if range.contains(&ratio) {
            Ok(format!("{verdict}, inside [{lo}, {hi}]"))
        } else {
            Err(format!("{verdict}, outside [{lo}, {hi}]"))
        }
    }
}

/// Floor 3, on the `fault_sweep` artifact whenever the report holds it:
/// the digital columns (Baseline, Runtime Pruning) never touch the
/// analog substrate, so their cells are identical across fault rates;
/// SPRINT's accuracy never rises with the rate and ends strictly below
/// the fault-free row (the fault sets nest); the detected-fault count
/// never shrinks.
fn check_fault_sweep(experiments: &[Json]) -> Result<String, String> {
    let is_sweep = |e: &&Json| e.str_field("id") == Some("fault_sweep");
    let Some(sweep) = experiments.iter().find(is_sweep) else {
        return Ok("fault_sweep: not among this report's experiments (skipped)".into());
    };
    // Per fault rate: both digital cells, SPRINT accuracy, detected count.
    fn parse(row: &Json) -> Option<([&str; 2], f64, f64)> {
        let Json::Arr(cells) = row else { return None };
        let cell = |col: usize| cells.get(col)?.as_str();
        let (sprint, detected) = (cell(4)?.parse().ok()?, cell(5)?.parse().ok()?);
        Some(([cell(1)?, cell(2)?], sprint, detected))
    }
    let rows: Option<Vec<_>> = match sweep.get("rows") {
        Some(Json::Arr(rows)) => rows.iter().map(parse).collect(),
        _ => None,
    };
    let rows = rows.ok_or("fault_sweep: a row is not six cells with numeric accuracy and count")?;
    for pair in rows.windows(2) {
        let ((digital0, sprint0, detected0), (digital1, sprint1, detected1)) = (pair[0], pair[1]);
        let broken = if digital1 != digital0 {
            "a digital column drifts with the fault rate (these modes are fault-immune)"
        } else if sprint1 > sprint0 + 1e-9 {
            "SPRINT accuracy rises with the fault rate"
        } else if detected1 < detected0 {
            "the detected-fault count shrinks as the rate grows"
        } else {
            continue;
        };
        return Err(format!(
            "fault_sweep: {broken}: {:?} -> {:?}",
            pair[0], pair[1]
        ));
    }
    match (rows.first(), rows.last()) {
        (Some(first), Some(last)) if last.1 < first.1 => Ok(format!(
            "fault_sweep: {} rows ok (digital columns flat, SPRINT degradation monotone)",
            rows.len()
        )),
        _ => Err("fault_sweep: SPRINT shows no degradation at the highest rate".into()),
    }
}

/// The target of `--bench-json [PATH]` / `--bench-json=PATH` on a
/// bench's command line, `None` when the flag is absent (`PATH`
/// defaults to [`Report::default_path`]).
pub fn bench_json_target<I: IntoIterator<Item = String>>(args: I) -> Option<PathBuf> {
    let mut target = None;
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--bench-json" {
            // A following flag (cargo's own --bench) is not a path.
            let path = iter.next_if(|next| !next.starts_with('-'));
            target = Some(path.map(PathBuf::from));
        } else if let Some(path) = arg.strip_prefix("--bench-json=") {
            target = Some(Some(PathBuf::from(path)));
        }
    }
    target.map(|path| path.unwrap_or_else(Report::default_path))
}

/// The tail of [`crate::bench_main!`]: when the command line asks for
/// `--bench-json`, merges every timing the criterion groups collected,
/// plus the bench's own `extra` rows, into the report. Exits non-zero
/// when the file cannot be read or written, so CI notices.
pub fn write_bench_json(extra: Vec<Row>) {
    let Some(path) = bench_json_target(std::env::args().skip(1)) else {
        return;
    };
    let timed = criterion::take_records().into_iter().map(Row::from);
    let rows: Vec<Row> = timed.chain(extra).collect();
    if let Err(e) = Report::merge_into(&path, &rows) {
        eprintln!("bench-json: {e}");
        std::process::exit(1);
    }
    println!(
        "bench-json: wrote {} row(s) to {}",
        rows.len(),
        path.display()
    );
}

/// `fn main` for a bench whose rows are committed: runs each
/// `criterion_group!`, then [`write_bench_json`](crate::report::write_bench_json)
/// with the `Vec<Row>` of an optional `; extra` expression beside the
/// timings.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+) => {
        $crate::bench_main!($($group),+; Vec::new());
    };
    ($($group:path),+; $extra:expr) => {
        fn main() {
            $( $group(); )+
            $crate::report::write_bench_json($extra);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(id: &str, median: u128) -> Row {
        Row::value(id, Unit::Ns, median, 10)
    }

    /// One fault-sweep row per fault rate: the digital accuracy (both
    /// digital columns), SPRINT's accuracy, the detected-fault count.
    type Sweep<'a> = &'a [(&'a str, &'a str, &'a str)];

    const SWEEP_OK: Sweep<'static> = &[
        ("0.9", "0.9", "0"),
        ("0.9", "0.9", "3"),
        ("0.9", "0.8", "9"),
    ];

    fn report(rows: &[Row], sweep: Sweep) -> Report {
        let mut result = ExperimentResult::new("fault_sweep", "t");
        for (digital, sprint, detected) in sweep {
            result.push_row(["rate", *digital, *digital, "0.9", *sprint, *detected]);
        }
        let mut report = Report::default();
        if !sweep.is_empty() {
            report.experiments.push(experiment_json(&result));
        }
        report.merge(rows);
        report
    }

    /// `expect` is part of a line `check` must print, or — after a
    /// `!` — of the error it must fail with.
    fn assert_outcome(report: &Report, expect: &str) {
        match (report.check(), expect.strip_prefix('!')) {
            (Ok(lines), None) => assert!(
                lines.iter().any(|l| l.contains(expect)),
                "{expect:?} not in {lines:?}"
            ),
            (Err(e), Some(needle)) => assert!(e.contains(needle), "{needle:?} not in {e:?}"),
            (outcome, _) => panic!("{expect:?}: got {outcome:?}"),
        }
    }

    #[test]
    fn each_row_floor_passes_and_fails_on_its_fixture() {
        let flag = |unit, value| Row::value("host/simd_avx2", unit, value, 1);
        let simd = |avx2, avx2_ns| {
            vec![
                flag(Unit::Flag, avx2),
                ns("simd/scalar/dense-fused", 400),
                ns("simd/avx2/dense-fused", avx2_ns),
                ns("simd/scalar/pruned-fused", 400),
                ns("simd/avx2/pruned-fused", 190),
            ]
        };
        let crossover = |rate50| vec![ns("dense/fused", 100), ns("pruned/fused-rate50", rate50)];
        let shed = |unit, ppm| Row::value("server/overload/shed_rate_ppm", unit, ppm, 400);
        let overload = |ppm, p99| vec![shed(Unit::Ppm, ppm), ns("server/overload/p99_ns", p99)];
        let unsampled = Row::value("dense/fused", Unit::Ns, 5, 0);
        let cases: Vec<(Vec<Row>, &str)> = vec![
            (simd(1, 200), "2.00x simd/avx2/dense-fused, inside"),
            (
                simd(1, 210),
                "!1.90x simd/avx2/dense-fused, outside [2, inf]",
            ),
            (simd(0, 210), "simd: host/simd_avx2 is absent or 0"),
            (crossover(105), "crossover: pruned/fused-rate50 is 1.05x"),
            (crossover(106), "!1.06x dense/fused, outside [0, 1.05]"),
            (overload(570_000, 9), "570000 ppm inside [1000, 950000]"),
            (overload(570_000, 9), "p99_ns: 9 ns inside [0, 2000000000]"),
            (overload(999, 9), "!shed_rate_ppm: 999 ppm is outside"),
            (overload(950_001, 9), "!950001 ppm is outside"),
            (overload(570_000, 2_000_000_001), "!p99_ns: 2000000001 ns"),
            (vec![unsampled], "!'dense/fused': missing or zero samples"),
            (
                vec![flag(Unit::Count, 1)],
                "!is count, its floor reads flag",
            ),
            (vec![shed(Unit::Ns, 5_000)], "!is ns, its floor reads ppm"),
            (vec![], "!\"benches\" is empty"),
        ];
        for (rows, expect) in cases {
            assert_outcome(&report(&rows, SWEEP_OK), expect);
        }
    }

    #[test]
    fn the_fault_sweep_floor_passes_and_fails_on_its_fixture() {
        let (ok, worse) = (("0.95", "0.9", "3"), ("0.95", "0.8", "9"));
        let cases: [(Sweep, &str); 7] = [
            (SWEEP_OK, "fault_sweep: 3 rows ok"),
            (&[], "fault_sweep: not among this report's experiments"),
            (&[ok, ("0.96", "0.8", "9")], "!digital column drifts"),
            (&[worse, ok], "!accuracy rises"),
            (&[ok, ("0.95", "0.8", "2")], "!count shrinks"),
            (&[ok, ok], "!no degradation"),
            (&[ok, ("0.95", "n/a", "9")], "!numeric accuracy"),
        ];
        for (sweep, expect) in cases {
            assert_outcome(&report(&[ns("dense/fused", 100)], sweep), expect);
        }
    }

    #[test]
    fn malformed_rows_and_older_schemas_are_refused() {
        let schema1 = r#"{"schema": 1, "benches": [{"id": "a", "median_ns": 1}]}"#;
        let err = Report::parse(schema1).unwrap_err();
        assert!(err.contains("is schema 1, this build reads only schema 2"));
        let err = Report::parse(r#"{"benches": []}"#).unwrap_err();
        assert!(err.contains("schema (none)"), "{err}");
        assert!(Report::parse(r#"{"schema": 2, "benches": {}}"#).is_err());
        let row = r#"{"id":"a","unit":"ns","median":1,"min":1,"max":1,"samples":1}"#;
        for (from, to, needle) in [
            (r#""id":"a","#, "", "no id"),
            (r#""ns""#, r#""qps""#, "unit qps"),
            (r#""median":1"#, r#""median":1.5"#, "median"),
            (r#""min":1"#, r#""min":-1"#, "min"),
        ] {
            let text = format!(r#"{{"schema": 2, "benches": [{}]}}"#, row.replace(from, to));
            let err = Report::parse(&text).unwrap().check().unwrap_err();
            assert!(err.contains(needle), "{needle:?} not in {err:?}");
        }
    }

    #[test]
    fn record_roundtrips_through_its_own_json() {
        let row = Row::from(criterion::BenchRecord {
            id: "g/\"f\"".into(),
            median_ns: 5,
            min_ns: 4,
            max_ns: 9,
            samples: 10,
        });
        assert_eq!(row.unit, Unit::Ns);
        let text = row.to_json().to_string();
        assert_eq!(Row::from_json(&Json::parse(&text).unwrap()), Ok(row));
    }

    #[test]
    fn merge_preserves_experiments_and_dedups_by_id() {
        let name = format!("sprint-bench-merge-{}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::remove_file(&path).ok();
        // No file yet: the merge starts from an empty report.
        Report::merge_into(&path, &[ns("old/one", 7), ns("old/kept", 1)]).unwrap();
        let fig11 = r#"{"id":"fig11","notes":["a \"q\" \\ b\n"]}"#;
        let mut seeded = Report::load(&path).unwrap();
        seeded.experiments.push(Json::parse(fig11).unwrap());
        seeded.save(&path).unwrap();
        // Re-report old/one and add new/two.
        Report::merge_into(&path, &[ns("old/one", 9), ns("new/two", 2)]).unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            after.contains(&format!("\n    {fig11}\n")),
            "the other writer's section survives byte for byte: {after}"
        );
        let merged = Report::parse(&after).unwrap();
        let rows: Result<Vec<Row>, _> = merged.benches.iter().map(Row::from_json).collect();
        let expected = [ns("old/kept", 1), ns("old/one", 9), ns("new/two", 2)];
        assert_eq!(rows.unwrap(), expected);
        assert_eq!(merged.to_string(), after, "parse -> write is the identity");
    }

    #[test]
    fn merge_keeps_entries_without_parseable_ids() {
        let hand_added = r#"{"schema": 2, "benches": [{"note": "hand-added"}]}"#;
        let mut merged = Report::parse(hand_added).unwrap();
        merged.merge(&[ns("new/one", 1)]);
        assert_eq!(merged.benches.len(), 2, "kept beside the fresh one");
        assert_eq!(merged.benches[0].str_field("note"), Some("hand-added"));
        // Merging never destroys what it does not own; check refuses it.
        assert!(merged.check().unwrap_err().contains("no id"));
    }

    #[test]
    fn bench_json_flag_parsing() {
        let target = |v: &[&str]| bench_json_target(v.iter().map(|s| s.to_string()));
        assert_eq!(target(&["--other"]), None);
        assert_eq!(target(&["--bench-json=a.json"]), Some("a.json".into()));
        assert_eq!(target(&["--bench-json", "b.json"]), Some("b.json".into()));
        // A following flag (cargo's --bench) is not mistaken for a path.
        let default = target(&["--bench-json", "--bench"]).unwrap();
        assert_eq!(default, Report::default_path());
        assert!(default.ends_with("BENCH_report.json"));
    }

    #[test]
    fn committed_snapshot_is_canonical_and_passes_its_floors() {
        let text = std::fs::read_to_string(Report::default_path()).expect("committed snapshot");
        let snapshot = Report::parse(&text).unwrap();
        assert_eq!(snapshot.to_string(), text, "written by this module");
        let lines = snapshot.check().unwrap();
        assert!(!lines.iter().any(|l| l.contains("skipped")), "{lines:?}");
    }
}
