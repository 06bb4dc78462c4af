//! Regenerates the paper's `headline` experiment (docs/BENCHMARKS.md, "`run_all`").
fn main() {
    let ctx = fc_bench::ExpContext::load();
    let f = fc_bench::experiments::by_name("headline").expect("known experiment");
    print!("{}", f(&ctx));
}
