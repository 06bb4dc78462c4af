//! Regenerates the `auto_weights` extension experiment (docs/BENCHMARKS.md, "`run_all`").
fn main() {
    let ctx = fc_bench::ExpContext::load();
    let f = fc_bench::experiments::by_name("auto_weights").expect("known experiment");
    print!("{}", f(&ctx));
}
