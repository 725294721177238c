//! The three service workloads: a `tm-server` instance driven closed-loop
//! by one thread over two connections, all on one pinned core.
//!
//! A spin-polling driver starves the server when both share a core, so the
//! driver only ever blocks: the throughput phase sends a window of 32 per
//! connection and then blocking-receives it; the latency phase keeps one
//! request of one class in flight.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_harness::driver::warmup_seed;
use tm_ownership::ConcurrentTaglessTable;
use tm_server::protocol::{Request, Response};
use tm_server::server::{start, ServerConfig, ServerHandle};
use tm_server::transport::{serve_tcp, ChannelConn, TcpConn};
use tm_shard::{ShardedStm, ShardedStmBuilder};
use tm_stm::{Stm, StmBuilder, TmEngine};

use crate::spec::{chunk_percentiles_us, percentile_us};
use crate::workload::{
    ratio, Edge, EngineCounts, Meter, Round, RoundArgs, Window, Workload, HEAP_WORDS,
};

/// Keys the store exposes: one per heap word.
pub const KEYS: u64 = HEAP_WORDS as u64;
/// Ownership-table entries behind the service (total, over all tables).
const TABLE_ENTRIES: usize = 1 << 14;
/// Connections the driver holds.
pub const CONNS: usize = 2;
/// Requests in flight per connection in the throughput phase.
pub const WINDOW: usize = 32;
/// Keys per `MultiGet` / `MultiAdd`.
const MULTI: usize = 4;
/// Requests per chunk of the latency phase; each chunk gives one median and
/// one 99th percentile (25 samples beyond it: chunks of 1000 made the best
/// chunk's percentile three times less steady).
const LATENCY_CHUNK: usize = 2_500;
/// How long the driver waits for one response before calling it lost.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Percent of each request class in a stream.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u32,
    pub multi_get: u32,
    pub add: u32,
    pub multi_add: u32,
}

impl Mix {
    const NONE: Mix = Mix {
        get: 0,
        multi_get: 0,
        add: 0,
        multi_add: 0,
    };
    pub const GET: Mix = Mix {
        get: 100,
        ..Mix::NONE
    };
    pub const ADD: Mix = Mix {
        add: 100,
        ..Mix::NONE
    };
}

/// A seeded request stream: the same seed gives the same requests.
///
/// Read keys are uniform. Write keys are uniform too, but distinct within
/// one pass of the driver (a window on every connection): two writes to
/// one key cannot share a group, so a chance collision seals a group early
/// and strands the last one, which then sits out the whole flush budget
/// because a closed loop sends nothing more to fill it. That stall is the
/// driver's doing, not the service's, and it made throughput noisy.
///
/// For the same reason a stream that mixes reads with writes ends every
/// window with a `Get`: the read flushes the session's pending writes, where
/// writes at the end of a window would sit out the flush budget (a pass in
/// two or three did, so throughput followed the seed's window endings).
pub struct Stream {
    rng: StdRng,
    mix: Mix,
    /// Whether the last request of every window is a `Get`.
    reads_close_windows: bool,
    /// Draw the keys of a `MultiAdd` one from each quarter of the key
    /// space, so that on a 4-table engine every `MultiAdd` spans tables.
    spread: bool,
    /// Requests issued so far.
    issued: u64,
    /// This pass's first write key, and how many it has handed out.
    pass_base: u64,
    pass_keys: u64,
}

/// Requests in one pass of the throughput driver.
pub const PASS: u64 = (CONNS * WINDOW) as u64;
/// Odd, so `base + j * STRIDE` is distinct modulo any power of two for
/// distinct `j` below it.
const STRIDE: u64 = 0x9E37;

impl Stream {
    pub fn new(seed: u64, mix: Mix, spread: bool) -> Self {
        assert_eq!(mix.get + mix.multi_get + mix.add + mix.multi_add, 100);
        Self {
            rng: StdRng::seed_from_u64(seed),
            mix,
            reads_close_windows: mix.get > 0 && mix.add + mix.multi_add > 0,
            spread,
            issued: 0,
            pass_base: 0,
            pass_keys: 0,
        }
    }

    /// The next write key among `span` keys (a power of two).
    fn write_key(&mut self, span: u64) -> u64 {
        self.pass_keys += 1;
        (self.pass_base + self.pass_keys * STRIDE) % span
    }

    pub fn next(&mut self) -> Request {
        if self.issued.is_multiple_of(PASS) {
            self.pass_base = self.rng.gen_range(0..KEYS);
            self.pass_keys = 0;
        }
        self.issued += 1;
        let Mix {
            get,
            multi_get,
            add,
            ..
        } = self.mix;
        let closes_window = self.issued.is_multiple_of(WINDOW as u64);
        let class = if self.reads_close_windows && closes_window {
            0
        } else {
            self.rng.gen_range(0..100u32)
        };
        if class < get {
            Request::Get {
                key: self.rng.gen_range(0..KEYS),
            }
        } else if class < get + multi_get {
            Request::MultiGet {
                keys: (0..MULTI).map(|_| self.rng.gen_range(0..KEYS)).collect(),
            }
        } else if class < get + multi_get + add {
            Request::Add {
                key: self.write_key(KEYS),
                delta: 1,
            }
        } else {
            let quarter = KEYS / MULTI as u64;
            let keys = (0..MULTI as u64)
                .map(|q| match self.spread {
                    true => q * quarter + self.write_key(quarter),
                    false => self.write_key(KEYS),
                })
                .collect();
            Request::MultiAdd { keys, delta: 1 }
        }
    }
}

/// The two client connection types behind one blocking interface.
trait Conn {
    fn send(&mut self, request: Request) -> bool;
    fn recv(&mut self) -> Option<Response>;
}

impl Conn for ChannelConn {
    fn send(&mut self, request: Request) -> bool {
        ChannelConn::send(self, request);
        true
    }

    fn recv(&mut self) -> Option<Response> {
        self.recv_timeout(RECV_TIMEOUT).map(|f| f.response)
    }
}

impl Conn for TcpConn {
    fn send(&mut self, request: Request) -> bool {
        TcpConn::send(self, request).is_ok()
    }

    fn recv(&mut self) -> Option<Response> {
        self.recv_timeout(RECV_TIMEOUT)
            .ok()
            .flatten()
            .map(|f| f.response)
    }
}

/// The answer a request must get, and the increment it applies.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Pong,
    Value,
    Values(usize),
    Added,
    MultiAdded(u32),
}

impl Expect {
    fn of(request: &Request) -> Self {
        match request {
            Request::Ping => Expect::Pong,
            Request::Get { .. } => Expect::Value,
            Request::MultiGet { keys } => Expect::Values(keys.len()),
            Request::Add { .. } => Expect::Added,
            Request::MultiAdd { keys, .. } => Expect::MultiAdded(keys.len() as u32),
            other => unreachable!("streams never issue {other:?}"),
        }
    }

    /// The increment `response` acknowledges, `None` if it is not the
    /// answer this request must get (`Busy` and `Error` included).
    fn acked(self, response: &Response) -> Option<u64> {
        match (self, response) {
            (Expect::Pong, Response::Pong) | (Expect::Value, Response::Value(_)) => Some(0),
            (Expect::Values(n), Response::Values(v)) if v.len() == n => Some(0),
            // Every stream adds 1 per key.
            (Expect::Added, Response::Added(_)) => Some(1),
            (Expect::MultiAdded(n), Response::MultiAdded { applied }) if *applied == n => {
                Some(n as u64)
            }
            _ => None,
        }
    }
}

/// The closed-loop driver and its tallies.
struct Client {
    conns: Vec<Box<dyn Conn>>,
    pending: Vec<VecDeque<Expect>>,
    attempted: u64,
    failed: u64,
    /// Increments the server acknowledged: what the heap must sum to.
    acked_delta: u64,
}

impl Client {
    fn new(conns: Vec<Box<dyn Conn>>) -> Self {
        Self {
            pending: conns.iter().map(|_| VecDeque::new()).collect(),
            conns,
            attempted: 0,
            failed: 0,
            acked_delta: 0,
        }
    }

    fn send(&mut self, conn: usize, request: Request) {
        self.attempted += 1;
        let expect = Expect::of(&request);
        if self.conns[conn].send(request) {
            self.pending[conn].push_back(expect);
        } else {
            self.failed += 1;
        }
    }

    /// Blocking-receive the oldest outstanding answer on `conn`. `false`
    /// once the connection stops answering.
    fn recv(&mut self, conn: usize) -> bool {
        let Some(expect) = self.pending[conn].pop_front() else {
            return true;
        };
        let response = self.conns[conn].recv();
        match response.as_ref().and_then(|r| expect.acked(r)) {
            Some(delta) => self.acked_delta += delta,
            None => self.failed += 1,
        }
        if response.is_none() {
            // Lost: everything queued behind it is lost too.
            self.failed += self.pending[conn].len() as u64;
            self.pending[conn].clear();
        }
        response.is_some()
    }

    /// `requests` from `stream`, a window of [`WINDOW`] per connection at
    /// a time.
    fn pipelined(&mut self, stream: &mut Stream, requests: u64) {
        for _ in 0..requests / PASS {
            for conn in 0..CONNS {
                for _ in 0..WINDOW {
                    self.send(conn, stream.next());
                }
            }
            for conn in 0..CONNS {
                for _ in 0..WINDOW {
                    if !self.recv(conn) {
                        return;
                    }
                }
            }
        }
    }

    /// `requests` one at a time on the first connection; returns each round
    /// trip in nanoseconds.
    fn one_at_a_time(&mut self, requests: impl Iterator<Item = Request>) -> Vec<u64> {
        let mut ns = Vec::with_capacity(requests.size_hint().0);
        for request in requests {
            let t0 = Instant::now();
            self.send(0, request);
            if !self.recv(0) {
                break;
            }
            ns.push(t0.elapsed().as_nanos() as u64);
        }
        ns
    }
}

/// Stack, mix and per-round op counts of one service workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub mix: Mix,
    pub spread: bool,
    pub tcp: bool,
    /// Commit worker threads (`ServerConfig::shards`).
    pub workers: u32,
    warmup: u64,
    pub throughput: u64,
    /// Requests per separately timed slice of the throughput phase: 20 to
    /// 30 ms of work.
    slice: u64,
    read_latency: u64,
    write_latency: u64,
    /// Which class `p50_us` / `p99_us` report.
    primary_is_write: bool,
}

pub fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::SvcRead => Plan {
            mix: Mix {
                get: 90,
                multi_get: 10,
                add: 0,
                multi_add: 0,
            },
            spread: false,
            tcp: false,
            workers: 1,
            warmup: 64_000,
            throughput: 640_000,
            slice: 32_000,
            read_latency: 30_000,
            write_latency: 0,
            primary_is_write: false,
        },
        Workload::SvcWrite => Plan {
            mix: Mix {
                get: 0,
                multi_get: 0,
                add: 75,
                multi_add: 25,
            },
            spread: false,
            tcp: false,
            workers: 1,
            warmup: 32_000,
            throughput: 320_000,
            slice: 16_000,
            read_latency: 0,
            write_latency: 1_000,
            primary_is_write: true,
        },
        Workload::SvcMixedTcp => Plan {
            mix: Mix {
                get: 45,
                multi_get: 5,
                add: 40,
                multi_add: 10,
            },
            spread: true,
            tcp: true,
            // One, not `ServerConfig::new`'s four: the whole server shares a
            // core, and three more workers add nothing but their idle ticks
            // (coalescing, CPU split and latencies are the same; throughput
            // is a tenth higher and steadier).
            workers: 1,
            warmup: 6_400,
            throughput: 96_000,
            slice: 3_840,
            read_latency: 10_000,
            write_latency: 1_000,
            primary_is_write: false,
        },
        other => unreachable!("{} is not a service workload", other.name()),
    }
}

fn builder() -> StmBuilder {
    StmBuilder::new()
        .heap_words(HEAP_WORDS)
        .table_entries(TABLE_ENTRIES)
}

/// The engine behind the two channel workloads.
pub fn tagless_engine() -> Stm<ConcurrentTaglessTable> {
    builder().build_tagless()
}

/// The engine behind `svc-mixed-tcp`: four ownership tables.
pub fn sharded_engine() -> ShardedStm<ConcurrentTaglessTable> {
    builder().shards(4).build_sharded_tagless()
}

pub fn start_server<E: TmEngine + Send + Sync + 'static>(
    engine: &Arc<E>,
    plan: &Plan,
) -> ServerHandle {
    let mut config = ServerConfig::new(KEYS);
    config.shards = plan.workers;
    start(Arc::clone(engine), config)
}

pub fn round(workload: Workload, args: RoundArgs) -> Round {
    let plan = plan(workload);
    if plan.tcp {
        round_on(sharded_engine, &plan, args)
    } else {
        round_on(tagless_engine, &plan, args)
    }
}

fn round_on<E: EngineCounts + Send + Sync + 'static>(
    build_engine: fn() -> E,
    plan: &Plan,
    args: RoundArgs,
) -> Round {
    let RoundArgs {
        seed, scale, trace, ..
    } = args;

    // Set-up: engine, server, transport, connections, warm-up.
    let t_setup = Instant::now();
    let engine = Arc::new(build_engine());
    let server = start_server(&engine, plan);
    let tcp = plan
        .tcp
        .then(|| serve_tcp(&server, "127.0.0.1:0").expect("bind a loopback port"));
    let conns = (0..CONNS)
        .map(|_| match &tcp {
            Some(tcp) => {
                Box::new(TcpConn::connect(tcp.local_addr()).expect("connect over loopback"))
                    as Box<dyn Conn>
            }
            None => Box::new(server.connect()),
        })
        .collect();
    let mut client = Client::new(conns);
    client.pipelined(
        &mut Stream::new(warmup_seed(seed), plan.mix, plan.spread),
        scale.ops(plan.warmup, PASS),
    );
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Throughput phase, in slices.
    let slice = scale.ops(plan.slice, PASS);
    let slices = (scale.ops(plan.throughput, PASS) / slice).max(1);
    let requests = slices * slice;
    let mut stream = Stream::new(seed, plan.mix, plan.spread);
    let stats_open = server.stats();
    let open = Edge::open(&*engine);
    let mut meter = Meter::start();
    for _ in 0..slices {
        client.pipelined(&mut stream, slice);
        meter.lap(slice);
    }
    let close = Edge::close(&*engine);
    let stats_close = server.stats();
    let w = Window::between(&open, &close, requests);

    let server_cpu = w.os.sum("tm-server-", |t| t.run_ns) as f64;
    let writes = (stats_close.writes_enqueued - stats_open.writes_enqueued) as f64;
    let busy = (stats_close.busy - stats_open.busy) as f64;
    let mut values = w.common_metrics();
    values.extend(meter.values);
    values.extend([
        ("setup_s", setup_s),
        (
            "server.router_cpu_ns_per_op",
            w.os.sum("tm-server-router", |t| t.run_ns) as f64 / w.ops,
        ),
        (
            "server.worker_cpu_ns_per_op",
            w.os.sum("tm-server-shard-", |t| t.run_ns) as f64 / w.ops,
        ),
        (
            "transport.tcp_cpu_ns_per_op",
            w.os.sum("tm-server-tcp-", |t| t.run_ns) as f64 / w.ops,
        ),
        (
            "server.runq_wait_ns_per_op",
            w.os.sum("tm-server-", |t| t.wait_ns) as f64 / w.ops,
        ),
        (
            "server.ctx_switches_per_op",
            w.os.sum("", |t| t.ctx_switches) as f64 / w.ops,
        ),
        ("server.allocs_per_op", w.allocs / w.ops),
        (
            "transport.rw_syscalls_per_op",
            w.os.rw_syscalls as f64 / w.ops,
        ),
        // Whatever the server's threads did not burn, the driver did.
        (
            "loadgen.client_cpu_ns_per_op",
            (w.cpu_ns - server_cpu).max(0.0) / w.ops,
        ),
        (
            "batch.coalescing_factor",
            ratio(
                (stats_close.ops_committed - stats_open.ops_committed) as f64,
                (stats_close.groups_committed - stats_open.groups_committed) as f64,
            ),
        ),
        ("backpressure.shed_share", ratio(busy, writes + busy)),
    ]);

    // Latency phase: one class at a time, one request in flight, a median
    // and a 99th percentile per chunk.
    let mut latency = |mix: Mix, count: u64, salt: u64| {
        let mut stream = Stream::new(seed ^ salt, mix, false);
        let mut ns = client.one_at_a_time((0..scale.ops(count, 1)).map(|_| stream.next()));
        chunk_percentiles_us(&mut ns, LATENCY_CHUNK)
    };
    let mut read = Vec::new();
    let mut write = Vec::new();
    if plan.read_latency > 0 {
        read = latency(Mix::GET, plan.read_latency, 0x5245_4144);
    }
    if plan.write_latency > 0 && (trace || plan.primary_is_write) {
        write = latency(Mix::ADD, plan.write_latency, 0x5752_4954);
    }
    let primary = if plan.primary_is_write { &write } else { &read };
    for (p50, p99) in primary {
        values.extend([("p50_us", *p50), ("p99_us", *p99)]);
    }
    for (p50_name, p99_name, chunks) in [
        ("latency.read_p50_us", "latency.read_p99_us", &read),
        ("latency.write_p50_us", "latency.write_p99_us", &write),
    ] {
        // A class the workload does not issue reads 0.
        if chunks.is_empty() {
            values.extend([(p50_name, 0.0), (p99_name, 0.0)]);
        }
        for (p50, p99) in chunks {
            values.extend([(p50_name, *p50), (p99_name, *p99)]);
        }
    }
    if trace {
        let mut ns = client.one_at_a_time((0..scale.ops(2_000, 1)).map(|_| Request::Ping));
        let name = if plan.tcp {
            "transport.tcp_ping_us"
        } else {
            "transport.chan_ping_us"
        };
        values.push((name, percentile_us(&mut ns, 0.50)));
    }

    // Tear down, then check that every acknowledged increment is in the
    // heap exactly once, by the client's count and by the server's.
    let Client {
        conns,
        attempted,
        mut failed,
        acked_delta,
        ..
    } = client;
    drop(conns);
    if let Some(tcp) = tcp {
        failed += u64::from(!tcp.join_connections(RECV_TIMEOUT));
        tcp.stop();
    }
    let served = server.shutdown();
    let expected = acked_delta + u64::from(args.corrupt);
    failed += u64::from(engine.heap_sum(HEAP_WORDS) != expected);
    failed += u64::from(served.applied_delta != expected);

    Round {
        values,
        attempted: attempted + 2,
        failed,
    }
}
