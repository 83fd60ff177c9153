//! The three workloads: deployment, source inputs, publish batches and,
//! for `churn`, the control schedule.
//!
//! Everything here is generated before timing starts. The deployment of
//! a workload (topology, stream origins, the query population and, on
//! `churn`, which queries arrive and leave when) is fixed, so every seed
//! measures the same network doing the same control work; the seed
//! drives the source data.

use cosmos::CosmosConfig;
use cosmos_types::{NodeId, Timestamp, Tuple, Value};
use cosmos_workload::sensor::{stream_name, stream_rate, SensorGenerator, SENSOR_STREAMS};
use cosmos_workload::{Popularity, QueryGenConfig, QueryGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Overlay size of every workload.
const NODES: usize = 64;
/// Topology and processor-placement seed of every deployment.
const TOPOLOGY_SEED: u64 = 5;
/// Seed of the stream origins and of the initial query population.
const DEPLOYMENT_SEED: u64 = 6;

/// `fanout`: streams, `[Now]` selections, tuples and block size.
const FANOUT_STREAMS: usize = 4;
const FANOUT_QUERIES: usize = 32;
const FANOUT_TUPLES: usize = 200_000;
const FANOUT_BLOCK: usize = 256;
const FANOUT_SEGMENTS: usize = 16;

/// `sensor-mix`: initial queries and virtual minutes of sensor data.
const MIX_QUERIES: usize = 200;
const MIX_VIRTUAL_MS: i64 = 8 * 60_000;
/// Virtual length of one independently seeded segment of a sensor
/// stream (see [`stitched`]).
const SEGMENT_MS: i64 = 5_000;

/// `churn`: live population, the share of it that never leaves (the
/// queries the reference check covers), virtual minutes of data, and
/// the cadences of the control calls.
const CHURN_LIVE: usize = 100;
const CHURN_PINNED: usize = 30;
const CHURN_VIRTUAL_MS: i64 = 6 * 60_000;
const CHURN_SUBMIT_EVERY: usize = 200;
/// Turnovers per retune. The first retune (publish 10,000) falls after
/// the open-loop window, so churn's latency figures carry submit and
/// unsubscribe stalls only: a retune inside the window made `latency_p99_us`
/// follow the one retune's stall (p99 is about the stall minus the 50
/// arrivals behind it) and doubled its spread across seeds.
const CHURN_RETUNE_EVERY: usize = 50;

/// The workloads, by the names `BENCHMARK.json` and later issues use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fanout,
    SensorMix,
    Churn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fanout" => Some(Kind::Fanout),
            "sensor-mix" => Some(Kind::SensorMix),
            "churn" => Some(Kind::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fanout => "fanout",
            Kind::SensorMix => "sensor-mix",
            Kind::Churn => "churn",
        }
    }

    /// Open-loop arrival rate in source tuples per second: a third of
    /// the closed-loop throughput on `fanout`, a tenth on `sensor-mix` and
    /// a sixth on `churn` (reference-host figures at the commit that
    /// introduced the benchmark), so queueing appears only at stalls. At
    /// half the throughput, the backlog behind the 10–60 ms control calls
    /// due every 200 publishes reached the median tuple on `churn`.
    pub fn open_loop_rate(self) -> f64 {
        match self {
            Kind::Fanout => 120_000.0,
            Kind::SensorMix => 5_000.0,
            Kind::Churn => 2_500.0,
        }
    }

    /// How a run of `seconds` is spent: fixed counts, so every run takes
    /// each per-index minimum over the same number of samples whatever
    /// the code's speed. They are sized to fill a 20-second run on the
    /// reference host; other run lengths scale the counts.
    pub fn repetitions(self, seconds: u64) -> Repetitions {
        let (closed, open, open_seconds, setups) = match self {
            Kind::Fanout => (14, 4, 2.0, 64),
            Kind::SensorMix => (5, 6, 3.0, 11),
            Kind::Churn => (6, 4, 2.0, 20),
        };
        let scale = |n: usize| (n * seconds as usize).div_ceil(20).max(2);
        Repetitions {
            closed: scale(closed),
            open: scale(open),
            open_seconds,
            setups: scale(setups),
        }
    }
}

/// The repetitions of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct Repetitions {
    /// Closed-loop repetitions, each on a fresh deployment.
    pub closed: usize,
    /// Open-loop repetitions, each on a fresh deployment.
    pub open: usize,
    /// Length of the open-loop schedule of one repetition: the leading
    /// batches whose tuples fall due within it are published.
    pub open_seconds: f64,
    /// Deployments set up in all, counting the repetitions' own; the
    /// rest are set up and dropped.
    pub setups: usize,
}

/// A control call of the `churn` schedule.
#[derive(Debug, Clone)]
pub enum Control {
    /// Submit query text at a user node; the query takes `slot`.
    Submit {
        slot: usize,
        text: String,
        user: NodeId,
    },
    /// Withdraw the query holding `slot`.
    Unsubscribe { slot: usize },
    /// `reoptimize_groups` followed by `autotune`.
    Retune,
}

/// One workload instance: everything a run needs, generated up front.
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub config: CosmosConfig,
    /// Source streams and their origins.
    pub streams: Vec<(String, NodeId)>,
    /// Queries submitted during setup; query `i` takes slot `i`.
    pub setup_queries: Vec<(String, NodeId)>,
    /// Source tuples, in publish order.
    pub inputs: Vec<Tuple>,
    /// Publish batches: same-stream ranges of `inputs`.
    pub batches: Vec<Range<usize>>,
    /// `(batch index, call)`: the call runs before that batch is
    /// published. Sorted by batch index.
    pub controls: Vec<(usize, Control)>,
    /// Slots whose queries stay subscribed for the whole run.
    pub pinned: Vec<usize>,
}

impl Plan {
    pub fn new(kind: Kind, seed: u64) -> Plan {
        match kind {
            Kind::Fanout => fanout(seed),
            Kind::SensorMix => sensor_mix(seed, MIX_VIRTUAL_MS),
            Kind::Churn => churn(seed),
        }
    }

    /// Consecutive batch ranges of about `len / count` source tuples
    /// each: the units the closed-loop phase times.
    pub fn chunks(&self, count: usize) -> Vec<Range<usize>> {
        let per = self.inputs.len().div_ceil(count.max(1)).max(1);
        let mut out = Vec::new();
        let mut start = 0;
        for (b, r) in self.batches.iter().enumerate() {
            if r.end >= (out.len() + 1) * per || b + 1 == self.batches.len() {
                out.push(start..b + 1);
                start = b + 1;
            }
        }
        out
    }

    /// How many leading batches the open-loop phase publishes: those
    /// whose tuples all fall due within `seconds` at `rate`.
    pub fn open_loop_batches(&self, rate: f64, seconds: f64) -> usize {
        let due = (rate * seconds) as usize;
        self.batches
            .iter()
            .take_while(|r| r.end <= due)
            .count()
            .max(1)
    }

    /// The control calls due before batch `b`, in order.
    pub fn controls_at(&self, b: usize) -> impl Iterator<Item = &Control> {
        let start = self.controls.partition_point(|(at, _)| *at < b);
        self.controls[start..]
            .iter()
            .take_while(move |(at, _)| *at == b)
            .map(|(_, c)| c)
    }

    /// Total number of query slots (setup queries plus churn submits).
    pub fn slots(&self) -> usize {
        self.setup_queries.len()
            + self
                .controls
                .iter()
                .filter(|(_, c)| matches!(c, Control::Submit { .. }))
                .count()
    }
}

fn config() -> CosmosConfig {
    CosmosConfig {
        nodes: NODES,
        seed: TOPOLOGY_SEED,
        processor_fraction: 0.1,
        ..CosmosConfig::default()
    }
}

fn origins(count: usize, rng: &mut StdRng) -> Vec<(String, NodeId)> {
    (0..count)
        .map(|i| (stream_name(i), NodeId(rng.gen_range(0..NODES as u32))))
        .collect()
}

/// Maximal consecutive same-stream runs, as `Cosmos::run_batched` cuts
/// them.
fn same_stream_runs(inputs: &[Tuple]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=inputs.len() {
        if i == inputs.len() || inputs[i].stream != inputs[start].stream {
            out.push(start..i);
            start = i;
        }
    }
    out
}

/// The `routing_throughput` deployment: 4 streams, 32 stateless `[Now]`
/// selections, 200k tuples in 256-tuple same-stream blocks.
fn fanout(seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED);
    let streams = origins(FANOUT_STREAMS, &mut rng);
    let setup_queries = (0..FANOUT_QUERIES)
        .map(|i| {
            let s = stream_name(i % FANOUT_STREAMS);
            let threshold = -10.0 + (i % 8) as f64 * 5.0;
            let user = NodeId(rng.gen_range(0..NODES as u32));
            (
                format!(
                    "SELECT node_id, ambient_temp FROM {s} [Now] \
                     WHERE ambient_temp > {threshold:.1}"
                ),
                user,
            )
        })
        .collect();
    let per_stream = FANOUT_TUPLES / FANOUT_STREAMS;
    let mut per: Vec<Vec<Tuple>> = (0..FANOUT_STREAMS)
        .map(|i| stitched(i, seed, per_stream, FANOUT_SEGMENTS))
        .collect();
    let mut inputs = Vec::with_capacity(FANOUT_TUPLES);
    let mut batches = Vec::new();
    let mut offset = 0;
    while offset < per_stream {
        let take = FANOUT_BLOCK.min(per_stream - offset);
        for stream in &mut per {
            let start = inputs.len();
            inputs.extend(stream.drain(..take));
            batches.push(start..inputs.len());
        }
        offset += take;
    }
    Plan {
        kind: Kind::Fanout,
        seed,
        config: config(),
        streams,
        setup_queries,
        inputs,
        batches,
        controls: Vec::new(),
        pinned: (0..FANOUT_QUERIES).collect(),
    }
}

/// `len` tuples of sensor stream `i` at its rate, stitched from
/// `segments` runs of independently seeded generators and re-stamped to
/// continue one another.
///
/// A sensor's random walk mixes slowly: over a few virtual minutes it
/// stays near where it started, so one generator's selectivity — and so
/// the routing and SPE work per tuple — depends on the seed's starting
/// points far more than on anything the system does. Averaging many
/// independent starts keeps the work per tuple close to the same on
/// every seed.
fn stitched(i: usize, seed: u64, len: usize, segments: usize) -> Vec<Tuple> {
    let period = (1000.0 / stream_rate(i)) as i64;
    let seg = len.div_ceil(segments.max(1));
    let mut out = Vec::with_capacity(len);
    let mut j = 0u64;
    while out.len() < len {
        let mut g = SensorGenerator::new(i, seed.wrapping_mul(1 << 20).wrapping_add(j));
        j += 1;
        for _ in 0..seg.min(len - out.len()) {
            let t = g.next_tuple();
            let ts = out.len() as i64 * period;
            let mut values = t.values().to_vec();
            *values
                .last_mut()
                .expect("sensor tuples end with a timestamp") = Value::Int(ts);
            out.push(Tuple::new(t.stream.clone(), Timestamp(ts), values));
        }
    }
    out
}

fn mix_queries() -> QueryGenerator {
    QueryGenerator::new(
        QueryGenConfig {
            popularity: Popularity::Zipf(1.0),
            ..QueryGenConfig::default()
        },
        DEPLOYMENT_SEED,
    )
}

/// Every sensor stream up to `until_ms`, stitched from segments of
/// [`SEGMENT_MS`], merged in timestamp order (ties in stream order).
fn sensor_inputs(seed: u64, until_ms: i64) -> Vec<Tuple> {
    let segments = (until_ms / SEGMENT_MS).max(1) as usize;
    let mut all: Vec<Tuple> = (0..SENSOR_STREAMS)
        .flat_map(|i| {
            let period = (1000.0 / stream_rate(i)) as i64;
            let len = (until_ms + period - 1) / period;
            stitched(i, seed, len as usize, segments)
        })
        .collect();
    all.sort_by_key(|t| t.timestamp);
    all
}

/// The paper's §5 setting: all 63 sensor streams and 200 Zipf-popular
/// generated queries (windowed selections, `node_id` joins, grouped
/// aggregates), tuples merged in timestamp order.
fn sensor_mix(seed: u64, until_ms: i64) -> Plan {
    let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED);
    let streams = origins(SENSOR_STREAMS, &mut rng);
    let mut gen = mix_queries();
    let setup_queries = (0..MIX_QUERIES)
        .map(|_| (gen.next_query(), NodeId(rng.gen_range(0..NODES as u32))))
        .collect();
    let inputs = sensor_inputs(seed, until_ms);
    let batches = same_stream_runs(&inputs);
    Plan {
        kind: Kind::SensorMix,
        seed,
        config: config(),
        streams,
        setup_queries,
        inputs,
        batches,
        controls: Vec::new(),
        pinned: (0..MIX_QUERIES).collect(),
    }
}

/// The `sensor-mix` deployment with a live population of 100 queries
/// that turns over: every 200 publishes one query is submitted and a
/// random unpinned live one withdrawn; every 50th such turnover is
/// followed by `reoptimize_groups` and `autotune`.
fn churn(seed: u64) -> Plan {
    let mut base = sensor_mix(seed, CHURN_VIRTUAL_MS);
    base.kind = Kind::Churn;
    base.setup_queries.truncate(CHURN_LIVE);
    // Arrivals continue the deployment's own query sequence (after the
    // 200 `sensor-mix` queries).
    let mut gen = mix_queries();
    for _ in 0..MIX_QUERIES {
        gen.next_query();
    }
    let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED);
    let mut live: Vec<usize> = (CHURN_PINNED..CHURN_LIVE).collect();
    let mut controls = Vec::new();
    let turnovers = (CHURN_SUBMIT_EVERY..base.batches.len()).step_by(CHURN_SUBMIT_EVERY);
    for (n, (b, slot)) in turnovers.zip(CHURN_LIVE..).enumerate() {
        let user = NodeId(rng.gen_range(0..NODES as u32));
        let text = gen.next_query();
        controls.push((b, Control::Submit { slot, text, user }));
        live.push(slot);
        // Any live unpinned query but the one just submitted leaves.
        let leave = live.swap_remove(rng.gen_range(0..live.len() - 1));
        controls.push((b, Control::Unsubscribe { slot: leave }));
        if (n + 1).is_multiple_of(CHURN_RETUNE_EVERY) {
            controls.push((b, Control::Retune));
        }
    }
    base.controls = controls;
    base.pinned = (0..CHURN_PINNED).collect();
    base
}
