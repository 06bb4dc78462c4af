//! One run of one workload: set-up, burn-in, as many whole laps as fit
//! in the measuring window, the correctness checks, and the metrics.
//!
//! An untraced run reports the end-to-end metrics and nothing else
//! runs beside the system. A traced run alternates plain laps with
//! laps in which every request is replayed on the shadow replica under
//! timers; it reports the per-layer metrics, and the gap between its
//! two kinds of lap is the tracing overhead.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile, spread, tail};
use crate::sut::{simd_level, Context, Harness, Session, Shadow, Step};
use crate::trace::{Recorder, NONE};
use crate::workload::{Pair, Workload};
use crate::{echo, host};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Spans the traced run may record before it starts dropping them.
const SPAN_CAPACITY: usize = 1 << 21;
/// Echo round trips behind `fc-server.transport.echo_rtt_p50_us`.
const ECHO_ROUNDS: usize = 2000;
/// The driver probes the host's speed between requests whenever this
/// long has passed since the last probe (a duty of under a tenth).
const PROBE_EVERY: Duration = Duration::from_micros(500);

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Context builds behind `setup_s` (the median is reported).
    pub setup_reps: usize,
    /// Where `trace.jsonl` goes.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context that is not a metric: lap counts, host, oddities.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line of the benchmark contract.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The counts of one lap that must repeat exactly from lap to lap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Books {
    requests: u64,
    hits: u64,
    sim_latency_ns: u64,
    backend_reads: u64,
    prefetch_issued: u64,
    prefetch_used: u64,
}

#[derive(Debug, Default)]
struct Lap {
    latencies_us: Vec<f64>,
    first_tile_us: Vec<f64>,
    open_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    books: Books,
    /// Calibration probes run during the lap, and their total time.
    probes: u64,
    probe_ns: u64,
}

impl Lap {
    /// How much faster than the reference host this lap's host ran
    /// (1.0 when no probe ran).
    fn speed(&self) -> f64 {
        if self.probe_ns == 0 {
            return 1.0;
        }
        host::PROBE_REFERENCE_NS * self.probes as f64 / self.probe_ns as f64
    }

    /// The lap's median request latency as measured.
    fn raw_p50_us(&self) -> f64 {
        median(&mut self.latencies_us.clone())
    }

    /// The lap's median request latency at the reference host speed.
    fn p50_us(&self) -> f64 {
        self.raw_p50_us() * self.speed()
    }

    /// The lap's median time to a session's first tile, likewise.
    fn first_tile_p50_us(&self) -> f64 {
        median(&mut self.first_tile_us.clone()) * self.speed()
    }
}

/// The shadow replica and its span buffer.
struct Tracer<'a> {
    shadow: Shadow<'a>,
    rec: Recorder,
    next_request: u32,
    /// Requests on which the replica and the server disagreed.
    diverged: u64,
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Serves one lap's plan against a fresh serving side.
fn run_lap(
    ctx: &Context,
    workload: &Workload,
    plan: &[Pair],
    mut tracer: Option<&mut Tracer<'_>>,
) -> io::Result<Lap> {
    struct Active<'w> {
        slot: usize,
        session: Session,
        walk: &'w [Step],
    }
    let mut lap = Lap::default();
    let mut calibrator = host::Calibrator::new();
    let mut last_probe = Instant::now();
    let reads_before = ctx.backend_reads();
    let harness = Harness::start(ctx, workload.serving)?;
    if let Some(t) = tracer.as_deref_mut() {
        t.shadow.start_lap();
    }
    // One request through the server, timed, checked against the
    // oracle, and (traced) replayed on the replica.
    let mut serve = |lap: &mut Lap,
                     tracer: &mut Option<&mut Tracer<'_>>,
                     a: &mut Active<'_>,
                     step: Step,
                     opened: Option<Instant>| {
        lap.attempted += 1;
        let t0 = Instant::now();
        let answer = a.session.request(step);
        let t1 = Instant::now();
        lap.latencies_us.push(micros(t1 - t0));
        if let Some(opened) = opened {
            lap.first_tile_us.push(micros(t1 - opened));
        }
        let Some(answer) = answer.filter(|ans| ctx.verify(step.tile, ans)) else {
            lap.failed += 1;
            return;
        };
        lap.books.requests += 1;
        lap.books.hits += u64::from(answer.hit);
        lap.books.sim_latency_ns += answer.sim_latency.as_nanos() as u64;
        if t1.duration_since(last_probe) >= PROBE_EVERY {
            lap.probes += 1;
            lap.probe_ns += calibrator.probe();
            last_probe = Instant::now();
        }
        if let Some(t) = tracer.as_deref_mut() {
            let request = t.next_request;
            t.next_request += 1;
            let parent = t.rec.span(NONE, request, "driver.request", t0, t1);
            let agreed = t
                .shadow
                .request(a.slot, step, answer.hit, &mut t.rec, parent, request);
            t.diverged += u64::from(!agreed);
        }
    };
    for pair in plan {
        let mut active: Vec<Active<'_>> = Vec::with_capacity(2);
        // Each session opens and takes its first tile before the next
        // one connects, so `first_tile` times one session's start.
        for (slot, walk) in pair.iter().enumerate() {
            let Some(&first) = walk.first() else {
                continue;
            };
            lap.attempted += 1;
            let t0 = Instant::now();
            let session = harness.open()?;
            let t1 = Instant::now();
            lap.open_us.push(micros(t1 - t0));
            if let Some(t) = tracer.as_deref_mut() {
                t.rec.span(NONE, t.next_request, "session.open", t0, t1);
                t.shadow.open(slot);
            }
            let mut a = Active {
                slot,
                session,
                walk,
            };
            serve(&mut lap, &mut tracer, &mut a, first, Some(t0));
            active.push(a);
        }
        // Closed loop, one request in flight: A, B, A, B, …
        let longest = active.iter().map(|a| a.walk.len()).max().unwrap_or(0);
        for i in 1..longest {
            for a in &mut active {
                if let Some(&step) = a.walk.get(i) {
                    serve(&mut lap, &mut tracer, a, step, None);
                }
            }
        }
        // Stats, Bye — and each close is awaited, so that the order in
        // which the server releases the sessions' holds is fixed.
        let mut open = active.len();
        for mut a in active {
            lap.attempted += 1;
            match a.session.totals() {
                Some(t) if t.requests == a.walk.len() as u64 => {
                    lap.books.prefetch_issued += t.prefetch_issued;
                    lap.books.prefetch_used += t.prefetch_used;
                }
                _ => lap.failed += 1,
            }
            open -= 1;
            if !(a.session.close() && harness.wait_sessions(open)) {
                lap.failed += 1;
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.shadow.close(a.slot);
            }
        }
    }
    drop(harness);
    if let Some(t) = tracer {
        t.shadow.finish_lap();
    }
    lap.books.backend_reads = ctx.backend_reads() - reads_before;
    Ok(lap)
}

/// What the measuring window produced.
struct Measured {
    burn_in: Lap,
    plain: Vec<Lap>,
    traced: Vec<Lap>,
    /// Whether every lap's books equalled the burn-in lap's.
    exact: bool,
    elapsed: Duration,
    steal: f64,
    heap_peak_mib: f64,
    /// Median bare-echo round trip of the workload's frame sizes
    /// (traced wire runs; else 0).
    echo_p50_us: f64,
    notes: Vec<String>,
}

impl Measured {
    fn laps(&self) -> impl Iterator<Item = &Lap> + Clone {
        std::iter::once(&self.burn_in)
            .chain(&self.plain)
            .chain(&self.traced)
    }

    /// Median over the plain laps of `f`.
    fn over_laps(&self, f: impl Fn(&Lap) -> f64) -> f64 {
        median(&mut self.plain.iter().map(f).collect::<Vec<_>>())
    }
}

/// Burn-in and the measuring window, pinned to one CPU throughout.
fn measure(
    ctx: &Context,
    w: &Workload,
    plan: &[Pair],
    seconds: f64,
    mut tracer: Option<&mut Tracer<'_>>,
) -> io::Result<Measured> {
    let mut notes = Vec::new();
    let pinned = host::Pinned::to_current_cpu();
    match &pinned {
        Some(p) => notes.push(format!("serving pinned to cpu {}", p.cpu)),
        None => notes.push("could not pin: driver and reactor may cross CPUs".into()),
    }
    // Burn-in: one unmeasured lap, so that lazy set-up is done and the
    // host is in its sustained regime when measuring starts. Its books
    // are the reference every measured lap must reproduce.
    let burn_in = run_lap(ctx, w, plan, None)?;
    let reference = burn_in.books;
    crate::alloc::reset_peak();
    let rss_reset = host::reset_peak_rss();
    let jiffies_before = host::cpu_jiffies();

    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut exact = true;
    while plain.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let lap = run_lap(ctx, w, plan, None)?;
        exact &= lap.books == reference;
        plain.push(lap);
        if let Some(t) = tracer.as_deref_mut() {
            let lap = run_lap(ctx, w, plan, Some(t))?;
            // The replica shares the store, so a traced lap's backend
            // reads are not the server's alone.
            let books = Books {
                backend_reads: reference.backend_reads,
                ..lap.books
            };
            exact &= books == reference;
            traced.push(lap);
        }
    }
    let elapsed = started.elapsed();
    let steal = host::steal_share(jiffies_before, host::cpu_jiffies());
    let heap_peak_mib = crate::alloc::peak_mib();
    notes.push(format!(
        "resident set while serving: peak {:.1} MiB ({})",
        host::rss_mib(rss_reset).unwrap_or(0.0),
        if rss_reset {
            "VmHWM"
        } else {
            "VmRSS at the end; the watermark could not be reset"
        }
    ));
    // The transport floor is measured where the laps ran: still pinned.
    let echo_p50_us = match tracer {
        Some(t) if w.serving.wire => {
            let c = t.shadow.counts;
            let per_request = |bytes: u64| (bytes / c.requests.max(1)) as usize;
            median(&mut echo::round_trips(
                per_request(c.request_bytes),
                per_request(c.reply_bytes),
                ECHO_ROUNDS,
            )?)
        }
        _ => 0.0,
    };
    Ok(Measured {
        burn_in,
        plain,
        traced,
        exact,
        elapsed,
        steal,
        heap_peak_mib,
        echo_p50_us,
        notes,
    })
}

pub fn run(opts: &Options) -> io::Result<Outcome> {
    // Created before set-up so that set-up spans carry real offsets.
    let rec = opts.trace.then(|| Recorder::with_capacity(SPAN_CAPACITY));
    let w = opts.workload;
    let mut ctx = Context::build(w.context);
    let mut setup_times = vec![ctx.setup_time().as_secs_f64()];
    ctx.build_oracle();
    let ctx = ctx;
    let plan = w.plan(&ctx.heldout, opts.seed);
    let mut notes = vec![format!(
        "{}: {} ({} tiles), {} session pairs and {} requests per lap, seed {}",
        w.name,
        ctx.spec.name,
        ctx.tile_count(),
        plan.len(),
        plan.iter().flatten().map(Vec::len).sum::<usize>(),
        opts.seed
    )];
    notes.push(format!(
        "cores {}, simd_level {}",
        host::cores(),
        simd_level().1
    ));

    let sigindex_build = opts.trace.then(|| ctx.time_sigindex_rebuild());
    let mut tracer = rec.map(|mut rec| {
        for t in &ctx.setup {
            rec.span(NONE, 0, t.name, t.start, t.end);
        }
        Tracer {
            shadow: Shadow::new(&ctx, w.serving),
            rec,
            next_request: 1,
            diverged: 0,
        }
    });
    let mut m = measure(&ctx, w, &plan, opts.seconds, tracer.as_mut())?;
    notes.append(&mut m.notes);
    // The further set-up builds come after serving, so that the memory
    // serving ran in is what one build leaves behind.
    for _ in 1..opts.setup_reps {
        setup_times.push(Context::build(w.context).setup_time().as_secs_f64());
    }

    let attempted = m.laps().map(|l| l.attempted).sum();
    let failed = m.laps().map(|l| l.failed).sum();
    let diverged = tracer.as_ref().map_or(0, |t| t.diverged);
    if !m.exact {
        notes.push("exact counts differed between laps".into());
    }
    if diverged > 0 {
        notes.push(format!("shadow replica diverged on {diverged} requests"));
    }
    notes.push(format!(
        "{} plain + {} traced laps in {:.2} s, steal {:.4}",
        m.plain.len(),
        m.traced.len(),
        m.elapsed.as_secs_f64(),
        m.steal
    ));
    let mut at_reference: Vec<f64> = m.plain.iter().map(Lap::p50_us).collect();
    let mut as_measured: Vec<f64> = m.plain.iter().map(Lap::raw_p50_us).collect();
    notes.push(format!(
        "lap medians spread {:.3} at reference speed; as measured: median {:.1} us, spread {:.3}; host speed {:.3} of reference",
        spread(&mut at_reference),
        median(&mut as_measured),
        spread(&mut as_measured),
        m.over_laps(Lap::speed)
    ));

    let values = match &tracer {
        Some(t) => {
            if t.rec.dropped() > 0 {
                notes.push(format!(
                    "span buffer full: {} spans dropped",
                    t.rec.dropped()
                ));
            }
            std::fs::create_dir_all(&opts.out_dir)?;
            let path = opts.out_dir.join("trace.jsonl");
            t.rec
                .write_jsonl(io::BufWriter::new(std::fs::File::create(&path)?))?;
            notes.push(format!(
                "{} spans written to {}",
                t.rec.spans().len(),
                path.display()
            ));
            per_layer(&ctx, w, t, &m, sigindex_build.unwrap_or_default())
        }
        None => {
            notes.push(format!("set-up builds {setup_times:.3?} s"));
            end_to_end(&m, &mut setup_times)
        }
    };
    let metric = |name: &'static str, unit: &'static str| Metric {
        name,
        value: values.get(name).copied().unwrap_or(0.0),
        unit,
    };
    let metrics = if opts.trace {
        PER_LAYER.iter().map(|m| metric(m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| metric(m.name, m.unit)).collect()
    };
    Ok(Outcome {
        correct: failed == 0 && m.exact && diverged == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

type Values = HashMap<&'static str, f64>;

/// The end-to-end metrics of an untraced run. Timings are medians over
/// the laps of each lap's median at the reference host speed; counts
/// are the reference lap's, which every lap reproduced.
fn end_to_end(m: &Measured, setup_times: &mut [f64]) -> Values {
    let books = m.burn_in.books;
    let requests = books.requests.max(1) as f64;
    HashMap::from([
        ("setup_s", median(setup_times)),
        ("lat_p50_us", m.over_laps(Lap::p50_us)),
        ("first_tile_p50_us", m.over_laps(Lap::first_tile_p50_us)),
        ("hit_rate", books.hits as f64 / requests),
        (
            "sim_latency_ms",
            books.sim_latency_ns as f64 / requests / 1e6,
        ),
        (
            "backend_reads_per_req",
            (books.backend_reads + books.prefetch_issued) as f64 / requests,
        ),
        ("heap_peak_mb", m.heap_peak_mib),
    ])
}

/// The per-layer metrics of a traced run, from the recorded spans and
/// the replica's counters. Span timings are as measured, not scaled to
/// the reference host speed.
fn per_layer(
    ctx: &Context,
    w: &Workload,
    t: &Tracer<'_>,
    m: &Measured,
    sigindex_build: Duration,
) -> Values {
    let rec = &t.rec;
    let c = t.shadow.counts;
    let requests = c.requests.max(1) as f64;
    let sorted = |mut v: Vec<u64>| {
        v.sort_unstable();
        v.into_iter().map(|ns| ns as f64).collect::<Vec<f64>>()
    };
    let p50_ns = |name: &str| percentile(&sorted(rec.durations_ns(name)), 0.5);
    let self_p50_ns = |name: &str| percentile(&sorted(rec.self_times_ns(name)), 0.5);
    let sum_ns = |name: &str| rec.durations_ns(name).iter().sum::<u64>() as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut values = Values::new();

    // Set-up: each timed call is a span named after its metric.
    for s in &ctx.setup {
        let ms = s.end.duration_since(s.start).as_secs_f64() * 1e3;
        if let Some(m) = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix("_ms") == Some(s.name))
        {
            values.insert(m.name, ms);
        }
    }
    values.insert("fc-tiles.sigindex_build_us", micros(sigindex_build));
    values.insert("fc-simd.chi2_ns_per_pair", ctx.chi2_ns_per_pair());

    // Wire: session open, codec, transport floor, and what is left.
    if w.serving.wire {
        let mut opens: Vec<f64> = m.plain.iter().flat_map(|l| l.open_us.clone()).collect();
        values.insert("fc-server.session.open_p50_us", median(&mut opens));
        for (metric, span) in [
            (
                "fc-server.protocol.encode_request_ns",
                "protocol.encode_request",
            ),
            (
                "fc-server.protocol.decode_request_ns",
                "protocol.decode_request",
            ),
            (
                "fc-server.protocol.encode_reply_ns",
                "protocol.encode_reply",
            ),
            (
                "fc-server.protocol.decode_reply_ns",
                "protocol.decode_reply",
            ),
        ] {
            values.insert(metric, p50_ns(span));
        }
        values.insert(
            "fc-server.protocol.reply_bytes_per_req",
            c.reply_bytes as f64 / requests,
        );
        values.insert("fc-server.transport.echo_rtt_p50_us", m.echo_p50_us);
        // A wire request's self time is its round trip minus the codec
        // and middleware work replayed under it: transport + reactor.
        values.insert(
            "fc-server.reactor.self_p50_us",
            self_p50_ns("driver.request") / 1e3 - m.echo_p50_us,
        );
    }
    if w.serving.shared() {
        values.insert("fc-core.multiuser.lookup_ns", p50_ns("multiuser.lookup"));
        values.insert("fc-core.multiuser.install_ns", p50_ns("multiuser.install"));
        values.insert(
            "fc-core.multiuser.shared_hit_rate",
            ratio(c.shared_hits, c.shared_hits + c.shared_misses),
        );
        values.insert(
            "fc-core.multiuser.cross_session_hits_per_req",
            c.cross_session_hits as f64 / requests,
        );
        values.insert(
            "fc-core.multiuser.evictions_per_req",
            c.evictions as f64 / requests,
        );
        values.insert("fc-core.batch.largest_batch", c.largest_batch as f64);
    }

    // Predictor.
    values.insert(
        "fc-core.engine.predict_p50_us",
        p50_ns("engine.predict") / 1e3,
    );
    // Of the client's time over the wire; in process the client's call
    // and the replica's are two runs of the same work, so the share is
    // taken within the replica's.
    let whole = if w.serving.wire {
        "driver.request"
    } else {
        "middleware.request"
    };
    values.insert(
        "fc-core.engine.predict_share",
        sum_ns("engine.predict") / sum_ns(whole).max(1.0),
    );
    values.insert("fc-core.ab.rank_p50_us", p50_ns("ab.rank") / 1e3);
    values.insert("fc-core.sb.rank_p50_us", p50_ns("sb.rank") / 1e3);
    values.insert(
        "fc-core.sb.candidates_per_req",
        c.candidates as f64 / requests,
    );
    values.insert(
        "fc-core.phase.classify_p50_us",
        p50_ns("phase.classify") / 1e3,
    );
    values.insert(
        "fc-core.paircache.hit_rate",
        ratio(c.pair_hits, c.pair_hits + c.pair_misses),
    );
    values.insert(
        "fc-core.paircache.chi2_pairs_per_req",
        c.pair_misses as f64 / requests,
    );
    values.insert(
        "fc-tiles.geometry.candidates_ns",
        p50_ns("geometry.candidates"),
    );
    values.insert(
        "fc-core.batch.rendezvous_overhead_ns",
        p50_ns("batch.scheduler_rank") - p50_ns("sb.rank"),
    );

    // Middleware and caches.
    values.insert(
        "fc-core.middleware.request_p50_us",
        p50_ns("middleware.request") / 1e3,
    );
    values.insert(
        "fc-core.middleware.self_p50_us",
        self_p50_ns("middleware.request") / 1e3,
    );
    values.insert(
        "fc-core.middleware.prefetch_issued_per_req",
        c.prefetch_issued as f64 / requests,
    );
    values.insert(
        "fc-core.middleware.prefetch_efficiency",
        ratio(c.prefetch_used, c.prefetch_issued),
    );
    values.insert(
        "fc-core.cache.private_hit_rate",
        c.hits.saturating_sub(c.shared_hits) as f64 / requests,
    );
    values.insert(
        "fc-tiles.store.fetch_backend_p50_us",
        p50_ns("store.fetch_backend") / 1e3,
    );

    // Driver and host: the plain laps pooled, as measured.
    let mut pooled: Vec<f64> = m
        .plain
        .iter()
        .flat_map(|l| l.latencies_us.clone())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let traced_samples: usize = m.traced.iter().map(|l| l.latencies_us.len()).sum();
    values.insert("driver.samples", (pooled.len() + traced_samples) as f64);
    values.insert("driver.lat_p99_us", tail(&pooled).map_or(0.0, |(_, v)| v));
    values.insert("driver.lat_mean_us", mean(&pooled));
    let mut lap_p50s: Vec<f64> = m.plain.iter().map(Lap::p50_us).collect();
    values.insert("driver.round_spread", spread(&mut lap_p50s));
    let traced_p50 = median(&mut m.traced.iter().map(Lap::p50_us).collect::<Vec<_>>());
    values.insert(
        "driver.trace_overhead_share",
        traced_p50 / m.over_laps(Lap::p50_us) - 1.0,
    );
    values.insert("host.steal_share", m.steal);
    values.insert("host.speed_factor", m.over_laps(Lap::speed));
    values.insert("host.cores", host::cores() as f64);
    values.insert("host.simd_level", f64::from(simd_level().0));
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lap(latencies_us: &[f64], probes: u64, probe_ns: u64) -> Lap {
        Lap {
            latencies_us: latencies_us.to_vec(),
            first_tile_us: vec![400.0, 200.0, 300.0],
            probes,
            probe_ns,
            ..Lap::default()
        }
    }

    #[test]
    fn lap_timings_scale_to_the_reference_host_speed() {
        // Probes took twice the reference: the host ran at half speed,
        // so the same work would have taken half as long on it.
        let slow = lap(
            &[30.0, 10.0, 20.0],
            4,
            4 * 2 * host::PROBE_REFERENCE_NS as u64,
        );
        assert_eq!(slow.speed(), 0.5);
        assert_eq!(slow.raw_p50_us(), 20.0);
        assert_eq!(slow.p50_us(), 10.0);
        assert_eq!(slow.first_tile_p50_us(), 150.0);
        // No probe ran (a lap shorter than the probe interval): as measured.
        let bare = lap(&[30.0, 10.0, 20.0], 0, 0);
        assert_eq!((bare.speed(), bare.p50_us()), (1.0, 20.0));
    }

    #[test]
    fn end_to_end_reports_every_contract_metric() {
        let burn_in = Lap {
            books: Books {
                requests: 100,
                hits: 90,
                sim_latency_ns: 100 * 50_000_000,
                backend_reads: 10,
                prefetch_issued: 140,
                prefetch_used: 30,
            },
            ..Lap::default()
        };
        let m = Measured {
            burn_in,
            plain: vec![lap(&[10.0], 0, 0), lap(&[30.0], 0, 0), lap(&[20.0], 0, 0)],
            traced: Vec::new(),
            exact: true,
            elapsed: Duration::ZERO,
            steal: 0.0,
            heap_peak_mib: 64.0,
            echo_p50_us: 0.0,
            notes: Vec::new(),
        };
        let v = end_to_end(&m, &mut [3.0, 1.0, 2.0]);
        assert_eq!(v.len(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|e| v.contains_key(e.name)));
        assert_eq!(v["setup_s"], 2.0);
        assert_eq!(v["lat_p50_us"], 20.0);
        assert_eq!(v["first_tile_p50_us"], 300.0);
        assert_eq!(v["hit_rate"], 0.9);
        assert_eq!(v["sim_latency_ms"], 50.0);
        assert_eq!(v["backend_reads_per_req"], 1.5);
        assert_eq!(v["heap_peak_mb"], 64.0);
    }
}
