//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run -p sprint-bench --bin report --release            # everything
//! cargo run -p sprint-bench --bin report --release fig11     # one artifact
//! cargo run -p sprint-bench --bin report --release -- --json # machine readable
//! cargo run -p sprint-bench --bin report --release -- --quick
//! cargo run -p sprint-bench --bin report -- --check [PATH]   # validate BENCH_report.json
//! ```
//!
//! A full-scale, unfiltered `--json` run also replaces the
//! `experiments` section of the committed report, leaving `benches` as
//! it is. `--check` validates a report file (the committed one by
//! default; CI also points it at the file a fresh `--bench-json` run
//! just wrote) and runs its floors. The format, the merge and the
//! floors live in [`sprint_bench::report`].

use sprint_bench::report::{array_lines, experiment_json, Report};
use sprint_core::experiments::{self, Scale};
use sprint_core::ExperimentResult;

fn run_one(id: &str, scale: &Scale) -> Result<Vec<ExperimentResult>, Box<dyn std::error::Error>> {
    Ok(match id {
        "tab1" => vec![experiments::tab1()],
        "tab2" => vec![experiments::tab2()],
        "tab3" => vec![experiments::tab3(scale)],
        "fig1" => vec![experiments::fig1(scale)],
        "fig2" => vec![experiments::fig2(scale)?],
        "fig3" => vec![experiments::fig3(scale)?],
        "fig5" => vec![experiments::fig5(scale)?],
        "fig8" => vec![experiments::fig8(scale)],
        "fig9" => vec![experiments::fig9(scale)?],
        "fig10" => vec![experiments::fig10(scale)],
        "fig11" => vec![experiments::fig11(scale)],
        "fig12" => vec![experiments::fig12(scale)],
        "fig13" => vec![experiments::fig13(scale)],
        "fig14" => vec![experiments::fig14()],
        "ffn" => vec![experiments::ffn_table(scale)],
        "extras" => vec![experiments::extras(scale)],
        "fault_sweep" => vec![experiments::fault_sweep(scale)?],
        "ablations" => sprint_core::ablations::all(scale)?,
        "all" => experiments::all(scale)?,
        other => return Err(format!("unknown experiment id: {other}").into()),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(pos + 1)
            .filter(|a| !a.starts_with("--"))
            .map_or_else(Report::default_path, std::path::PathBuf::from);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let lines = Report::parse(&text)
            .and_then(|report| report.check())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for line in lines {
            println!("{line}");
        }
        println!("{} ok", path.display());
        return Ok(());
    }
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut results = Vec::new();
    if ids.is_empty() {
        results.extend(run_one("all", &scale)?);
    } else {
        for id in &ids {
            results.extend(run_one(id, &scale)?);
        }
    }

    if json {
        let experiments: Vec<_> = results.iter().map(experiment_json).collect();
        println!("{}", array_lines(&experiments, ""));
        // Only a full-scale, unfiltered run may update the versioned
        // snapshot — partial or reduced-scale JSON stays on stdout.
        if quick || !ids.is_empty() {
            eprintln!("partial/quick run: the committed report is left untouched");
        } else {
            let path = Report::default_path();
            let mut report = Report::load(&path)?;
            report.experiments = experiments;
            report.save(&path)?;
            eprintln!("wrote experiments section to {}", path.display());
        }
    } else {
        for r in &results {
            println!("{r}");
            println!();
        }
    }
    Ok(())
}
