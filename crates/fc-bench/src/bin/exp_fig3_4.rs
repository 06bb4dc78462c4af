//! Regenerates the paper's `fig3_4` experiment (docs/BENCHMARKS.md, "`run_all`").
fn main() {
    let ctx = fc_bench::ExpContext::load();
    let f = fc_bench::experiments::by_name("fig3_4").expect("known experiment");
    print!("{}", f(&ctx));
}
