//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's deterministic outputs and digest on one line, then
//! the result line (`correct`, `attempted`, `failed`, `metrics`). Exits
//! non-zero when an output check fails. A traced run also writes its
//! spans to `perfbench/traces/<workload>-seed<n>.jsonl`.

use perfbench::workload::{Workload, NAMES};
use perfbench::{run, Args, USAGE};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload) else {
        eprintln!("unknown workload {}; expected one of {}", args.workload, NAMES.join(", "));
        return ExitCode::from(2);
    };
    let mut outcome = run(&workload, args.seed, args.seconds, args.trace);
    if let Some(spans) = &outcome.spans {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", workload.name, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            outcome.problems.push(format!("cannot write {}: {e}", path.display()));
            outcome.correct = false;
        }
    }
    if !outcome.passes.is_empty() {
        let passes: Vec<String> = outcome.passes.iter().map(|v| format!("{v:.1}")).collect();
        eprintln!("ops_per_s by pass: {}", passes.join(" "));
    }
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", outcome.outputs);
    println!("{}", outcome.result_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
