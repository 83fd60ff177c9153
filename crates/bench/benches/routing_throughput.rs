//! Routing throughput: the ISSUE 3 perf trajectory benchmark.
//!
//! Two layers:
//!
//! * **Matcher matrix** — naive vs counting engine × single-tuple
//!   `matches` vs `matches_batch`, on one stream with a mixed
//!   equality/range subscription population.
//! * **End-to-end** — source datagrams through the full 64-node stack in
//!   three modes: `single` (per-tuple publish), `batched` (`run_batched` over block-wise
//!   stream-homogeneous input runs, metrics recording on — the default
//!   production path), and `batched_nometrics` (same with metrics
//!   recording off, isolating the observability overhead).
//!
//! Not a criterion harness: the binary parses `--smoke` (tiny workload
//! for CI), `--json` (write machine-readable results), `--out PATH`
//! (default `BENCH_routing.json` at the repo root) so the perf
//! trajectory is recorded per commit, and `--max-metrics-overhead PCT`
//! (exit 1 if metrics-on batched throughput regresses more than PCT%
//! versus metrics-off — the CI observability-overhead gate).
//!
//! Run: `cargo bench --bench routing_throughput -- --json`

use cosmos::{Cosmos, CosmosConfig};
use cosmos_cbn::{Conjunction, CountingMatcher, MatchEngine, NaiveMatcher, Profile, Projection};
use cosmos_types::{NodeId, StreamName, Tuple};
use cosmos_workload::sensor::{sensor_catalog, stream_name, SensorGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 64;
const STREAMS: usize = 4;
const QUERIES: usize = 32;
const BLOCK: usize = 256;

struct Config {
    smoke: bool,
    json: bool,
    out: String,
    /// Fail (exit 1) if metrics-on batched throughput is more than this
    /// many percent below metrics-off.
    max_metrics_overhead: Option<f64>,
}

fn parse_args() -> Config {
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routing.json");
    let mut cfg = Config {
        smoke: false,
        json: false,
        out: default_out.to_string(),
        max_metrics_overhead: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--json" => cfg.json = true,
            "--out" => cfg.out = args.next().expect("--out requires a path"),
            "--max-metrics-overhead" => {
                cfg.max_metrics_overhead = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-metrics-overhead requires a percentage"),
                )
            }
            // ignore cargo-bench plumbing (--bench, filter strings, ...)
            _ => {}
        }
    }
    cfg
}

#[derive(Debug)]
struct Measurement {
    layer: &'static str,
    name: String,
    tuples: usize,
    tuples_per_sec: f64,
}

/// Best-of-`reps` throughput of `f` over `tuples` tuples.
fn measure(reps: usize, tuples: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    tuples as f64 / best
}

// ---------------------------------------------------------------- matcher

/// A mixed subscription population on one stream: a third key-equality
/// profiles (the eq fast path), a third range filters, a third
/// whole-stream.
fn matcher_profiles() -> Vec<Profile> {
    let mut out = Vec::new();
    for i in 0..48i64 {
        let mut p = Profile::new();
        match i % 3 {
            0 => {
                let mut f = Conjunction::always();
                f.equals("node_id", i % 16);
                p.add_interest("S", Projection::All, f);
            }
            1 => {
                let mut f = Conjunction::always();
                f.between("ambient_temp", -30.0 + i as f64, 10.0 + i as f64);
                p.add_interest("S", Projection::All, f);
            }
            _ => p = Profile::whole_stream("S"),
        }
        out.push(p);
    }
    out
}

fn matcher_inputs(n: usize) -> Vec<Tuple> {
    let mut g = SensorGenerator::new(0, 77);
    (0..n)
        .map(|_| {
            let t = g.next_tuple();
            Tuple::new("S", t.timestamp, t.values().to_vec())
        })
        .collect()
}

fn bench_matchers(smoke: bool, results: &mut Vec<Measurement>) {
    let n = if smoke { 20_000 } else { 200_000 };
    let reps = if smoke { 1 } else { 3 };
    let schema = cosmos_workload::sensor::sensor_schema();
    let inputs = matcher_inputs(n);
    let mut naive = NaiveMatcher::new();
    let mut counting = CountingMatcher::new();
    for (i, p) in matcher_profiles().into_iter().enumerate() {
        naive.insert(i as u32, p.clone());
        counting.insert(i as u32, p);
    }
    let single = |eng: &dyn MatchEngine<u32>| -> u64 {
        let mut hits = 0u64;
        for t in &inputs {
            hits += eng.matches(t, &schema).len() as u64;
        }
        hits
    };
    let batched = |eng: &dyn MatchEngine<u32>| -> u64 {
        let mut hits = 0u64;
        for chunk in inputs.chunks(BLOCK) {
            hits += eng
                .matches_batch(chunk, &schema)
                .iter()
                .map(Vec::len)
                .sum::<usize>() as u64;
        }
        hits
    };
    for (engine, eng) in [
        ("naive", &naive as &dyn MatchEngine<u32>),
        ("counting", &counting as &dyn MatchEngine<u32>),
    ] {
        for (mode, f) in [
            ("single", &single as &dyn Fn(&dyn MatchEngine<u32>) -> u64),
            ("batched", &batched),
        ] {
            let tps = measure(reps, n, || f(eng));
            results.push(Measurement {
                layer: "matcher",
                name: format!("{engine}/{mode}"),
                tuples: n,
                tuples_per_sec: tps,
            });
        }
    }
}

// ------------------------------------------------------------ end-to-end

fn deploy() -> Cosmos {
    let mut sys = Cosmos::new(CosmosConfig {
        nodes: NODES,
        seed: 5,
        processor_fraction: 0.1,
        ..CosmosConfig::default()
    })
    .unwrap();
    let cat = sensor_catalog();
    let mut rng = StdRng::seed_from_u64(6);
    for i in 0..STREAMS {
        let key = StreamName::from(stream_name(i).as_str());
        sys.register_stream(
            stream_name(i).as_str(),
            cat.schema(&key).unwrap().clone(),
            cat.stats(&key).unwrap().clone(),
            NodeId(rng.gen_range(0..NODES as u32)),
        )
        .unwrap();
    }
    for i in 0..QUERIES {
        let s = stream_name(i % STREAMS);
        let threshold = -10.0 + (i % 8) as f64 * 5.0;
        let user = NodeId(rng.gen_range(0..NODES as u32));
        sys.submit_query(
            &format!(
                "SELECT node_id, ambient_temp FROM {s} [Now] \
                 WHERE ambient_temp > {threshold:.1}"
            ),
            user,
        )
        .unwrap();
    }
    sys
}

/// Inputs in stream-homogeneous blocks of [`BLOCK`]: per-stream order is
/// timestamp order, blocks round-robin across streams. The same sequence
/// feeds every mode, so single and batched runs do identical work.
fn blocked_inputs(per_stream: usize) -> Vec<Tuple> {
    let mut gens: Vec<SensorGenerator> =
        (0..STREAMS).map(|i| SensorGenerator::new(i, 77)).collect();
    let mut per: Vec<Vec<Tuple>> = gens
        .iter_mut()
        .map(|g| (0..per_stream).map(|_| g.next_tuple()).collect())
        .collect();
    let mut out = Vec::with_capacity(per_stream * STREAMS);
    let mut offset = 0;
    while offset < per_stream {
        let take = BLOCK.min(per_stream - offset);
        for stream in &mut per {
            out.extend(stream.drain(..take));
        }
        offset += take;
    }
    out
}

fn bench_end_to_end(smoke: bool, results: &mut Vec<Measurement>) {
    let per_stream = if smoke { 10_000 } else { 50_000 };
    // Enough work and repetitions that the metrics-overhead gate is
    // stable against scheduler noise even in smoke mode.
    let reps = if smoke { 5 } else { 3 };
    let data = blocked_inputs(per_stream);
    let n = data.len();
    type Mode = fn(&mut Cosmos, &[Tuple]);
    let modes: [(&str, Mode); 3] = [
        ("single", |sys, data| {
            for t in data {
                sys.publish(t).unwrap();
            }
        }),
        ("batched", |sys, data| {
            sys.run_batched(data.iter().cloned()).unwrap();
        }),
        ("batched_nometrics", |sys, data| {
            sys.set_metrics_enabled(false);
            sys.run_batched(data.iter().cloned()).unwrap();
        }),
    ];
    for (mode, f) in modes {
        // Deployment (graph build, MST, query optimization) happens
        // outside the timed region: only the data path is measured.
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let mut sys = deploy();
            let start = Instant::now();
            f(&mut sys, &data);
            black_box(sys.total_bytes());
            best = best.min(start.elapsed().as_secs_f64());
        }
        results.push(Measurement {
            layer: "end_to_end",
            name: mode.to_string(),
            tuples: n,
            tuples_per_sec: n as f64 / best,
        });
    }
}

/// Percent throughput lost to metrics recording on the batched path.
///
/// Measured from alternating metrics-on / metrics-off reps over fresh
/// deployments (deployment untimed), comparing best-of times — the
/// alternation cancels slow machine drift that would otherwise swamp a
/// single-digit overhead.
fn measure_metrics_overhead(smoke: bool, data: &[Tuple]) -> f64 {
    let reps = if smoke { 15 } else { 7 };
    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    for _ in 0..reps {
        for metrics_on in [true, false] {
            let mut sys = deploy();
            sys.set_metrics_enabled(metrics_on);
            let start = Instant::now();
            sys.run_batched(data.iter().cloned()).unwrap();
            black_box(sys.total_bytes());
            let t = start.elapsed().as_secs_f64();
            if metrics_on {
                best_on = best_on.min(t);
            } else {
                best_off = best_off.min(t);
            }
        }
    }
    (best_on / best_off - 1.0) * 100.0
}

// ---------------------------------------------------------------- output

fn write_json(cfg: &Config, results: &[Measurement], metrics_overhead_pct: f64) {
    let available = std::thread::available_parallelism().map_or(0, usize::from);
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"routing_throughput\",\n");
    s.push_str(&format!("  \"smoke\": {},\n", cfg.smoke));
    s.push_str(&format!("  \"hardware_threads\": {available},\n"));
    s.push_str(&format!(
        "  \"metrics_overhead_pct\": {metrics_overhead_pct:.2},\n"
    ));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"layer\": \"{}\", \"name\": \"{}\", \"tuples\": {}, \
             \"tuples_per_sec\": {:.1}}}{}\n",
            m.layer,
            m.name,
            m.tuples,
            m.tuples_per_sec,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&cfg.out, s).expect("write bench json");
    println!("wrote {}", cfg.out);
}

fn main() {
    let cfg = parse_args();
    let mut results = Vec::new();
    bench_matchers(cfg.smoke, &mut results);
    bench_end_to_end(cfg.smoke, &mut results);

    let per_stream = if cfg.smoke { 10_000 } else { 50_000 };
    let data = blocked_inputs(per_stream);
    let metrics_overhead_pct = measure_metrics_overhead(cfg.smoke, &data);

    for m in &results {
        println!(
            "{:>10} {:24} {:>9} tuples  {:>12.0} tuples/s",
            m.layer, m.name, m.tuples, m.tuples_per_sec
        );
    }
    println!("metrics overhead on the batched path: {metrics_overhead_pct:.2}%");
    if cfg.json {
        write_json(&cfg, &results, metrics_overhead_pct);
    }
    if let Some(max) = cfg.max_metrics_overhead {
        if metrics_overhead_pct.is_nan() || metrics_overhead_pct > max {
            eprintln!(
                "FAIL: metrics overhead {metrics_overhead_pct:.2}% exceeds the {max:.2}% budget"
            );
            std::process::exit(1);
        }
    }
}
