//! Runs every experiment against one shared dataset build and writes the
//! combined report to `EXPERIMENTS-report.txt`. The report is a function
//! of the scale alone — timings go to stderr — so CI diffs the `small`
//! one against its committed twin (`docs/EXPERIMENTS-report.small.txt`).
//!
//! `run_all <id>` runs one experiment of `fc_bench::experiments::all()`
//! instead, prints its section and writes no file; an unknown id exits
//! non-zero and lists the ids.
use std::io::Write;

fn main() {
    if let Some(id) = std::env::args().nth(1) {
        let Some(f) = fc_bench::experiments::by_name(&id) else {
            let ids: Vec<&str> = fc_bench::experiments::all()
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            eprintln!("unknown experiment `{id}`; ids: {}", ids.join(" "));
            std::process::exit(2);
        };
        print!("{}", f(&fc_bench::ExpContext::load()));
        return;
    }
    let started = std::time::Instant::now();
    let ctx = fc_bench::ExpContext::load();
    let mut report = String::new();
    report.push_str("ForeCache reproduction — combined experiment report\n");
    report.push_str(&format!(
        "scale: FC_EXP_SIZE={}\n",
        std::env::var("FC_EXP_SIZE").unwrap_or_else(|_| "full".into())
    ));
    for (name, f) in fc_bench::experiments::all() {
        eprintln!("[run_all] {name} …");
        let t = std::time::Instant::now();
        let section = f(&ctx);
        report.push_str(&section);
        print!("{section}");
        eprintln!("[{name} took {:.1}s]", t.elapsed().as_secs_f64());
    }
    eprintln!("total wall time: {:.1}s", started.elapsed().as_secs_f64());
    let path = "EXPERIMENTS-report.txt";
    let mut file = std::fs::File::create(path).expect("create report file");
    file.write_all(report.as_bytes()).expect("write report");
    eprintln!("[run_all] wrote {path}");
}
