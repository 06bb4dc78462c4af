//! Regenerates the paper's `phase_acc` experiment (docs/BENCHMARKS.md, "`run_all`").
fn main() {
    let ctx = fc_bench::ExpContext::load();
    let f = fc_bench::experiments::by_name("phase_acc").expect("known experiment");
    print!("{}", f(&ctx));
}
