//! Runs the experiments E1–E14 of `lcg_bench::experiments::catalog()` and
//! prints a final summary; exit code 0 iff all shape verdicts passed.
//!
//! With `--only <id>` (e.g. `--only E9`) it runs that one experiment.
//!
//! With `--update-md <path>` it additionally rewrites the block between
//! the `GENERATED RESULTS` markers in the given markdown file (normally
//! `EXPERIMENTS.md`) with the freshly measured tables and verdicts, so
//! the committed data stays regenerable by one command. The block holds
//! every experiment, so `--update-md` does not combine with `--only`.
//!
//! With `--metrics-out <path>` it enables the `lcg-obs` observability
//! layer and writes one JSON `RunReport` per experiment run (span timings
//! and the migrated cache/delta/pruning counters) to the given file,
//! failing with a non-zero exit on any serialization or I/O error.

use lcg_bench::experiments::CatalogEntry;
use lcg_bench::report::ExperimentReport;

const USAGE: &str =
    "usage: all_experiments [--only <id>] [--update-md <path>] [--metrics-out <path>]";

const BEGIN_MARK: &str = "<!-- BEGIN GENERATED RESULTS (all_experiments) -->";
const END_MARK: &str = "<!-- END GENERATED RESULTS (all_experiments) -->";

fn generated_section(reports: &[ExperimentReport]) -> String {
    let mut out = String::new();
    out.push_str(
        "_This section is generated — edit nothing inside the markers.\n\
         Regenerate with `cargo run --release -p lcg-bench --bin all_experiments -- \
         --update-md EXPERIMENTS.md`._\n\n",
    );
    out.push_str("| id | experiment | verdicts | status |\n| --- | --- | --- | --- |\n");
    for r in reports {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            r.id,
            r.title,
            r.verdicts.len(),
            if r.all_passed() { "PASS" } else { "FAIL" }
        ));
    }
    for r in reports {
        out.push('\n');
        out.push_str(&r.to_markdown());
    }
    out
}

fn update_md(path: &str, reports: &[ExperimentReport]) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--update-md: cannot read {path}: {e}"));
    let begin = text
        .find(BEGIN_MARK)
        .unwrap_or_else(|| panic!("--update-md: {path} lacks the marker {BEGIN_MARK:?}"));
    let end = text
        .find(END_MARK)
        .unwrap_or_else(|| panic!("--update-md: {path} lacks the marker {END_MARK:?}"));
    assert!(begin < end, "--update-md: markers out of order in {path}");
    let mut next = String::with_capacity(text.len());
    next.push_str(&text[..begin + BEGIN_MARK.len()]);
    next.push_str("\n\n");
    next.push_str(&generated_section(reports));
    next.push('\n');
    next.push_str(&text[end..]);
    std::fs::write(path, next).unwrap_or_else(|e| panic!("--update-md: cannot write {path}: {e}"));
    println!("updated generated section of {path}");
}

/// Runs `catalog` with observability on, capturing one `RunReport` per
/// experiment, and writes the JSON document to `path`. Any serialization
/// or I/O failure exits non-zero — CI must not green-light a missing or
/// invalid artifact.
fn run_with_metrics(catalog: &[CatalogEntry], path: &str) -> Vec<ExperimentReport> {
    lcg_obs::set_enabled(true);
    let mut reports = Vec::new();
    let mut runs = Vec::new();
    for &(id, run) in catalog {
        lcg_obs::reset();
        reports.push(run());
        runs.push(lcg_obs::report::RunReport::capture(id).to_json());
    }
    lcg_obs::set_enabled(false);
    let doc = lcg_obs::json::Json::object([(
        "experiments".to_string(),
        lcg_obs::json::Json::Array(runs),
    )]);
    if let Err(e) = lcg_obs::json::write_file(path, &doc) {
        eprintln!("--metrics-out: {e}");
        std::process::exit(1);
    }
    println!("wrote per-experiment run reports to {path}");
    reports
}

/// Prints `why` and the usage line, and exits 2.
fn usage_error(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut only: Option<String> = None;
    let mut md_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let target = match flag.as_str() {
            "--only" => &mut only,
            "--update-md" => &mut md_path,
            "--metrics-out" => &mut metrics_path,
            _ => usage_error(&format!("unknown argument {flag:?}")),
        };
        let Some(value) = iter.next() else {
            usage_error(&format!("{flag} requires an argument"));
        };
        *target = Some(value.clone());
    }

    let mut catalog = lcg_bench::experiments::catalog();
    if let Some(id) = &only {
        if md_path.is_some() {
            usage_error("--update-md rewrites every experiment's results; drop --only");
        }
        catalog.retain(|&(entry, _)| entry == id);
        if catalog.is_empty() {
            usage_error(&format!("no experiment {id:?}; the ids are E1 to E14"));
        }
    }
    let reports = if let Some(path) = &metrics_path {
        run_with_metrics(&catalog, path)
    } else {
        catalog.iter().map(|(_, run)| run()).collect()
    };
    let mut failed = 0;
    for r in &reports {
        println!("{r}\n");
    }
    println!("==== summary ====");
    for r in &reports {
        let ok = r.all_passed();
        if !ok {
            failed += 1;
        }
        println!(
            "{:<4} {:<55} {}",
            r.id,
            r.title,
            if ok { "PASS" } else { "FAIL" }
        );
    }
    if let Some(path) = md_path {
        update_md(&path, &reports);
    }
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
