//! Regenerates the paper's `ablation_alloc` experiment (docs/BENCHMARKS.md, "`run_all`").
fn main() {
    let ctx = fc_bench::ExpContext::load();
    let f = fc_bench::experiments::by_name("ablation_alloc").expect("known experiment");
    print!("{}", f(&ctx));
}
