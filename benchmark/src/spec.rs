//! The benchmark's contract: every metric's name, unit, direction and
//! regression bound, and the `BENCHMARK.json` that states them. The
//! JSON at the repo root is generated from these tables
//! (`--print-spec`), and a test keeps the two equal.

use crate::workload::WORKLOADS;

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` `value` is worse (negative: better).
    pub fn worsening(self, base: f64, value: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (value - base) / base.abs(),
            Better::Higher => (base - value) / base.abs(),
        }
    }
}

/// A metric a user of the system would see. `bound` is the share of
/// the parent's median by which it may worsen before a change counts
/// as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of a single layer; never gating.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("first_tile_p50_us", "us", Lower, 0.25),
    e2e("hit_rate", "ratio", Higher, 0.10),
    e2e("sim_latency_ms", "ms", Lower, 0.25),
    e2e("backend_reads_per_req", "1/req", Lower, 0.15),
    e2e("heap_peak_mb", "MiB", Lower, 0.10),
];

pub const PER_LAYER: [PerLayer; 47] = [
    // → setup_s, every workload.
    layer("fc-array.ndsi_build_ms", "ms", Lower),
    layer("fc-tiles.pyramid_build_ms", "ms", Lower),
    layer("fc-vision.attach_signatures_ms", "ms", Lower),
    layer("fc-sim.study_generate_ms", "ms", Lower),
    layer("fc-ml.classifier_train_ms", "ms", Lower),
    layer("fc-ngram.ab_train_ms", "ms", Lower),
    // → first_tile_p50_us, wire workloads.
    layer("fc-server.session.open_p50_us", "us", Lower),
    layer("fc-tiles.sigindex_build_us", "us", Lower),
    // → lat_p50_us on payload-wire.
    layer("fc-server.protocol.encode_request_ns", "ns", Lower),
    layer("fc-server.protocol.decode_request_ns", "ns", Lower),
    layer("fc-server.protocol.encode_reply_ns", "ns", Lower),
    layer("fc-server.protocol.decode_reply_ns", "ns", Lower),
    layer("fc-server.protocol.reply_bytes_per_req", "B/req", Lower),
    layer("fc-server.transport.echo_rtt_p50_us", "us", Lower),
    layer("fc-server.reactor.self_p50_us", "us", Lower),
    // → lat_p50_us on predict-deep.
    layer("fc-core.engine.predict_p50_us", "us", Lower),
    layer("fc-core.engine.predict_share", "ratio", Lower),
    layer("fc-core.ab.rank_p50_us", "us", Lower),
    layer("fc-core.sb.rank_p50_us", "us", Lower),
    layer("fc-core.sb.candidates_per_req", "1/req", Lower),
    layer("fc-core.phase.classify_p50_us", "us", Lower),
    layer("fc-core.paircache.hit_rate", "ratio", Higher),
    layer("fc-core.paircache.chi2_pairs_per_req", "1/req", Lower),
    layer("fc-simd.chi2_ns_per_pair", "ns", Lower),
    layer("fc-tiles.geometry.candidates_ns", "ns", Lower),
    layer("fc-core.batch.rendezvous_overhead_ns", "ns", Lower),
    layer("fc-core.batch.largest_batch", "count", Higher),
    // → lat_p50_us, backend_reads_per_req and hit_rate on jump-churn.
    layer("fc-core.middleware.request_p50_us", "us", Lower),
    layer("fc-core.middleware.self_p50_us", "us", Lower),
    layer("fc-core.middleware.prefetch_issued_per_req", "1/req", Lower),
    layer("fc-core.middleware.prefetch_efficiency", "ratio", Higher),
    layer("fc-core.cache.private_hit_rate", "ratio", Higher),
    layer("fc-tiles.store.fetch_backend_p50_us", "us", Lower),
    layer("fc-core.multiuser.lookup_ns", "ns", Lower),
    layer("fc-core.multiuser.install_ns", "ns", Lower),
    layer("fc-core.multiuser.shared_hit_rate", "ratio", Higher),
    layer(
        "fc-core.multiuser.cross_session_hits_per_req",
        "1/req",
        Higher,
    ),
    layer("fc-core.multiuser.evictions_per_req", "1/req", Lower),
    // Driver and host health.
    layer("driver.samples", "count", Higher),
    layer("driver.lat_p99_us", "us", Lower),
    layer("driver.lat_mean_us", "us", Lower),
    layer("driver.round_spread", "ratio", Lower),
    layer("driver.trace_overhead_share", "ratio", Lower),
    layer("host.steal_share", "ratio", Lower),
    layer("host.speed_factor", "ratio", Higher),
    layer("host.cores", "count", Higher),
    layer("host.simd_level", "count", Higher),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&format!("  \"workloads\": {},\n", list(workloads)));
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out.push_str(&format!("  \"end_to_end\": {},\n", list(e2e)));
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&format!("  \"per_layer\": {}\n}}\n", list(layers)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json());
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(0.8, 0.72) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(100.0, 90.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), 0.0);
    }
}
