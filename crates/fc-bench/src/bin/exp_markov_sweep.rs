//! Regenerates the paper's `markov_sweep` experiment (docs/BENCHMARKS.md, "`run_all`").
fn main() {
    let ctx = fc_bench::ExpContext::load();
    let f = fc_bench::experiments::by_name("markov_sweep").expect("known experiment");
    print!("{}", f(&ctx));
}
