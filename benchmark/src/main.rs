//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     (end-to-end metrics with --trace 0, per-layer with --trace 1)
//! run.sh [--seed <n>] [--seconds <s>]
//!     every workload, untraced then traced; prints every metric and
//!     writes out/results.json
//! run.sh --smoke           one short untraced run per workload
//! run.sh --check-repeat    two full untraced sets; fails when an
//!                          end-to-end metric moves by more than its
//!                          bound; writes out/repeat.json
//! run.sh --print-spec      the text of BENCHMARK.json
//! ```

mod alloc;
mod echo;
mod host;
mod run;
mod spec;
mod stats;
mod sut;
mod trace;
mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use run::{Options, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

#[derive(Debug, PartialEq)]
enum Mode {
    Single(&'static Workload, bool),
    All,
    Smoke,
    CheckRepeat,
    PrintSpec,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::All,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.mode = Mode::Smoke,
            "--check-repeat" => args.mode = Mode::CheckRepeat,
            "--print-spec" => args.mode = Mode::PrintSpec,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = workload {
        if args.mode != Mode::All {
            return Err("--workload runs one workload; drop the mode flag".into());
        }
        args.mode = Mode::Single(w, trace);
    }
    Ok(args)
}

fn options(args: &Args, workload: &'static Workload, trace: bool) -> Options {
    let smoke = args.mode == Mode::Smoke;
    Options {
        workload,
        seed: args.seed,
        seconds: if smoke { 0.1 } else { args.seconds },
        trace,
        // A traced run reports no set-up time, so it builds once.
        setup_reps: if smoke || trace { 1 } else { 3 },
        out_dir: args.out_dir.clone(),
    }
}

fn print_table(workload: &Workload, trace: bool, outcome: &Outcome) {
    println!(
        "\n== {} ({}) — correct {}, attempted {}, failed {}",
        workload.name,
        if trace { "traced" } else { "untraced" },
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!("  {:<46} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for n in &outcome.notes {
        println!("  # {n}");
    }
}

/// One untraced (and, unless `untraced_only`, one traced) run of every
/// workload, as `(workload, traced, outcome)` rows.
fn run_all(
    args: &Args,
    untraced_only: bool,
) -> std::io::Result<Vec<(&'static Workload, bool, Outcome)>> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && untraced_only {
                continue;
            }
            let outcome = run::run(&options(args, w, trace))?;
            print_table(w, trace, &outcome);
            rows.push((w, trace, outcome));
        }
    }
    Ok(rows)
}

fn rows_json(rows: &[(&'static Workload, bool, Outcome)]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|(w, trace, o)| {
            format!(
                "  {{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                w.name,
                u8::from(*trace),
                o.to_json()
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

fn all_correct(rows: &[(&'static Workload, bool, Outcome)]) -> bool {
    rows.iter().all(|(_, _, o)| o.correct)
}

/// Two untraced sets of the same code must agree within every
/// end-to-end metric's bound.
fn check_repeat(args: &Args) -> std::io::Result<bool> {
    let first = run_all(args, true)?;
    let second = run_all(args, true)?;
    let mut ok = all_correct(&first) && all_correct(&second);
    let mut lines = Vec::new();
    println!("\n== repeat check: second set against the first");
    for ((w, _, a), (_, _, b)) in first.iter().zip(&second) {
        for m in &spec::END_TO_END {
            let (va, vb) = (
                a.value(m.name).unwrap_or(0.0),
                b.value(m.name).unwrap_or(0.0),
            );
            let worse = m.better.worsening(va, vb).abs();
            let within = worse <= m.bound;
            ok &= within;
            println!(
                "  {:<14} {:<24} {:>14.4} {:>14.4}  moved {:>6.3} of bound {:.2} {}",
                w.name,
                m.name,
                va,
                vb,
                worse,
                m.bound,
                if within { "ok" } else { "OUTSIDE" }
            );
            lines.push(format!(
                "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"first\": {va}, \"second\": {vb}, \"moved\": {worse}, \"bound\": {}, \"within\": {within}}}",
                w.name, m.name, m.bound
            ));
        }
    }
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(
        args.out_dir.join("repeat.json"),
        format!("[\n{}\n]\n", lines.join(",\n")),
    )?;
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.mode {
        Mode::PrintSpec => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Mode::Single(w, trace) => run::run(&options(&args, w, *trace)).map(|outcome| {
            for n in &outcome.notes {
                eprintln!("# {n}");
            }
            println!("{}", outcome.to_json());
            outcome.correct
        }),
        Mode::Smoke => run_all(&args, true).map(|rows| all_correct(&rows)),
        Mode::All => run_all(&args, false).and_then(|rows| {
            std::fs::create_dir_all(&args.out_dir)?;
            std::fs::write(args.out_dir.join("results.json"), rows_json(&rows))?;
            Ok(all_correct(&rows))
        }),
        Mode::CheckRepeat => check_repeat(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fc-benchmark: a check failed (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("fc-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv(
            "--workload jump-churn --seed 42 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a.mode,
            Mode::Single(workload::find("jump-churn").unwrap(), true)
        );
        assert_eq!((a.seed, a.seconds), (42, 3.0));
        let a = parse(&argv(
            "--workload study-wire --seed 1 --seconds 8 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            a.mode,
            Mode::Single(workload::find("study-wire").unwrap(), false)
        );
    }

    #[test]
    fn defaults_to_every_workload_and_rejects_nonsense() {
        assert_eq!(parse(&[]).unwrap().mode, Mode::All);
        assert_eq!(parse(&argv("--smoke")).unwrap().mode, Mode::Smoke);
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--trace 2")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--seed")).is_err());
        assert!(parse(&argv("--smoke --workload study-wire")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![run::Metric {
                name: "lat_p50_us",
                value: 12.5,
                unit: "us",
            }],
            notes: vec!["ignored".into()],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"lat_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }
}
