//! The `serve_hot` workload: a `dagmap serve` daemon (default
//! `ServeConfig`, libraries `lib2_like` and `44_3_like`) in a child
//! process, driven over its TCP socket protocol by a closed loop of
//! pipelined connections.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use dagmap_benchgen::{request_stream, RequestStreamSpec, ServeRequest};
use dagmap_core::MapOptions;
use dagmap_genlib::Library;
use dagmap_netlist::blif;
use dagmap_obs::json::{parse, Value};
use dagmap_serve::{map_request, Client, Endpoint, Endpoints, MapCall, ServeConfig, Server};

use crate::ledger::{json_num as num, median_of, ratio, Metrics, PassCounters};
use crate::oneshot::{fits, independent_check, Pipeline};
use crate::stats::{child_cpu_s, geomean, median, peak_rss_mb, quantile, Fnv};
use crate::trace::{Span, Tracer, ROOT};
use crate::{Args, RunResult};

/// Requests each connection keeps outstanding (as `dagmap client --repeat`).
pub const WINDOW: usize = 4;
/// Seeded request streams per run; each pass serves one of them to a fresh
/// daemon. Several streams average out how much work a single draw holds.
const STREAMS: usize = 4;
/// Daemon starts timed for `setup_s` before the first pass.
const SETUP_STARTS: usize = 5;
/// In traced passes, connection 0 samples the `metrics` frame after every
/// this many replies.
const METRICS_EVERY: usize = 16;

/// Workers and connections: one per CPU, and at least two, so that replies
/// can overtake each other and id pairing is exercised on every host.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2)
}

/// The daemon side: what `dagmap serve --libs lib2,44-3 --tcp 127.0.0.1:0
/// --workers <n>` runs, with `workers()` workers. Prints the bound address,
/// then serves until a `shutdown` frame, or exits when its parent closes
/// stdin.
pub fn daemon_main() -> Result<(), String> {
    let config = ServeConfig {
        workers: workers(),
        ..ServeConfig::default()
    };
    let endpoints = Endpoints {
        tcp: Some("127.0.0.1:0".to_owned()),
        ..Endpoints::default()
    };
    let server = Server::start(
        &config,
        vec![Library::lib2_like(), Library::lib_44_3_like()],
        &endpoints,
    )
    .map_err(|e| format!("daemon start: {e}"))?;
    let addr = server.tcp_addr().ok_or("daemon has no TCP address")?;
    println!("listening {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // A parent that dies without shutting the daemon down closes this pipe.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    server.wait().map_err(|e| format!("daemon: {e}"))
}

/// A running daemon child; killed and reaped on drop unless stopped.
struct Daemon {
    child: Option<Child>,
    _stdin: Option<ChildStdin>,
    addr: String,
    pid: u32,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers a ping; returns it
    /// with the seconds that took.
    fn start() -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let pid = child.id();
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("daemon stdout")?;
        let mut daemon = Daemon {
            child: Some(child),
            _stdin: stdin,
            addr: String::new(),
            pid,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("daemon did not start: `{}`", line.trim()))?
            .to_owned();
        daemon
            .connect()?
            .ping()
            .map_err(|e| format!("daemon ping: {e}"))?;
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&Endpoint::Tcp(self.addr.clone())).map_err(|e| format!("connect: {e}"))
    }

    /// Graceful shutdown through the protocol, then reap the process.
    fn stop(mut self) -> Result<(), String> {
        let reply = self
            .connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut child = self.child.take().expect("stop runs once");
        let status = child.wait().map_err(|e| e.to_string())?;
        if reply.get("ok") != Some(&Value::Bool(true)) || !status.success() {
            return Err(format!("daemon shutdown: reply {reply:?}, exit {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One answered request, as its connection saw it.
struct Answer {
    index: usize,
    sent: Instant,
    got: Instant,
    reply: Value,
}

/// What one connection did during a pass.
struct ConnRun {
    start: Instant,
    end: Instant,
    answers: Vec<Answer>,
    out_of_order: u64,
    busy_samples: Vec<f64>,
}

fn request_index(reply: &Value) -> Option<usize> {
    reply.get("id")?.as_str()?.strip_prefix('r')?.parse().ok()
}

fn gauge(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// Drives one connection through its share of the stream with `WINDOW`
/// requests outstanding, pairing each reply with its request by `id`.
fn drive(
    addr: &str,
    payloads: &[(usize, String)],
    sample_metrics: bool,
) -> Result<ConnRun, String> {
    let io = |e: std::io::Error| format!("connection: {e}");
    let mut client = Client::connect(&Endpoint::Tcp(addr.to_owned())).map_err(io)?;
    let start = Instant::now();
    let mut outstanding: Vec<(usize, Instant)> = Vec::with_capacity(WINDOW);
    let mut run = ConnRun {
        start,
        end: start,
        answers: Vec::with_capacity(payloads.len()),
        out_of_order: 0,
        busy_samples: Vec::new(),
    };
    let (mut next, mut pending_metrics) = (0, 0usize);
    while next < payloads.len() || !outstanding.is_empty() || pending_metrics > 0 {
        while next < payloads.len() && outstanding.len() < WINDOW {
            let (index, payload) = &payloads[next];
            let sent = Instant::now();
            client.send(payload).map_err(io)?;
            outstanding.push((*index, sent));
            next += 1;
        }
        let raw = client.recv_raw().map_err(io)?;
        let got = Instant::now();
        let reply = parse(&raw).map_err(|e| format!("reply is not JSON: {e}"))?;
        if reply.get("op").and_then(Value::as_str) == Some("metrics") {
            pending_metrics -= 1;
            let exposition = reply
                .get("exposition")
                .and_then(Value::as_str)
                .unwrap_or("");
            let busy = gauge(exposition, "dagmap_workers_busy").ok_or("no busy gauge")?;
            run.busy_samples.push(busy);
            continue;
        }
        let index = request_index(&reply)
            .ok_or_else(|| format!("reply without a request id: {raw:.200}"))?;
        let pos = outstanding
            .iter()
            .position(|&(i, _)| i == index)
            .ok_or_else(|| format!("reply for request r{index}, which is not outstanding"))?;
        if pos != 0 {
            run.out_of_order += 1;
        }
        let (_, sent) = outstanding.remove(pos);
        run.answers.push(Answer {
            index,
            sent,
            got,
            reply,
        });
        if sample_metrics && run.answers.len().is_multiple_of(METRICS_EVERY) {
            client.send("{\"op\":\"metrics\"}").map_err(io)?;
            pending_metrics += 1;
        }
    }
    run.end = Instant::now();
    Ok(run)
}

/// One pass: a fresh daemon serves the whole stream.
struct Pass {
    setup_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    conns: Vec<ConnRun>,
    stats: Value,
    start: Instant,
    end: Instant,
}

fn run_pass(payloads: &[Vec<(usize, String)>], traced: bool) -> Result<Pass, String> {
    let (daemon, setup_s) = Daemon::start()?;
    let cpu0 = child_cpu_s(daemon.pid)?;
    let start = Instant::now();
    let conns: Vec<Result<ConnRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(c, mine)| {
                let addr = daemon.addr.as_str();
                s.spawn(move || drive(addr, mine, traced && c == 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });
    let end = Instant::now();
    let cpu_s = child_cpu_s(daemon.pid)? - cpu0;
    let rss_mb = peak_rss_mb(Some(daemon.pid))?;
    let conns = conns.into_iter().collect::<Result<Vec<_>, _>>()?;
    let stats = daemon
        .connect()?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    daemon.stop()?;
    Ok(Pass {
        setup_s,
        cpu_s,
        rss_mb,
        conns,
        stats,
        start,
        end,
    })
}

impl Pass {
    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

fn phases_ms(reply: &Value) -> f64 {
    [
        "decompose_seconds",
        "label_seconds",
        "cover_seconds",
        "area_recovery_seconds",
    ]
    .iter()
    .map(|k| num(reply, &["phases", k]))
    .sum::<f64>()
        * 1e3
}

/// Requests whose BLIF text is larger than this are left out of the stream.
pub const MAX_REQUEST_BYTES: usize = 16 << 10;

/// The first `len` requests of `request_stream(seed)` (hot set 6, 80% hot)
/// whose BLIF is at most `MAX_REQUEST_BYTES`.
fn stream(seed: u64, len: usize, num_libs: usize) -> Vec<ServeRequest> {
    let all = request_stream(&RequestStreamSpec {
        seed,
        num_requests: len * 2,
        num_libs,
        hot_set: 6,
        hot_fraction: 0.8,
    });
    let kept: Vec<ServeRequest> = all
        .into_iter()
        .filter(|r| r.blif.len() <= MAX_REQUEST_BYTES)
        .take(len)
        .collect();
    assert_eq!(kept.len(), len, "the stream holds enough small requests");
    kept
}

/// Runs `serve_hot` for `args.seconds`.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let libs = [Library::lib2_like(), Library::lib_44_3_like()];
    let len = if args.quick { 96 } else { 1000 };
    let streams: Vec<Vec<ServeRequest>> = (0..STREAMS as u64)
        .map(|s| {
            stream(
                args.seed.wrapping_mul(STREAMS as u64).wrapping_add(s),
                len,
                libs.len(),
            )
        })
        .collect();
    let workers = workers();
    let mut res = RunResult::default();

    // One-shot references, each checked independently of the mapper.
    let mut refs: HashMap<(usize, String), String> = HashMap::new();
    for (i, req) in streams.iter().flatten().enumerate() {
        let key = (req.lib_index, req.circuit.clone());
        if refs.contains_key(&key) {
            continue;
        }
        let pipeline = Pipeline {
            lib: &libs[req.lib_index],
            hybrid: false,
            opts: MapOptions::dag(),
        };
        let checked = pipeline
            .map(&req.blif, &mut Tracer::new(false), i)
            .and_then(|m| {
                let input = blif::parse(&req.blif).map_err(|e| format!("input: {e}"))?;
                independent_check(&input, &m.blif, args.seed ^ i as u64)?;
                Ok(m.blif)
            })
            .map_err(|e| format!("reference map of {}: {e}", req.circuit))?;
        refs.insert(key, checked);
    }

    // Request payloads of each stream, dealt round-robin to the connections.
    let payloads: Vec<Vec<Vec<(usize, String)>>> = streams
        .iter()
        .map(|stream| {
            let mut conns = vec![Vec::new(); workers];
            for (i, req) in stream.iter().enumerate() {
                let id = format!("r{i}");
                let call = MapCall {
                    id: Some(&id),
                    lib: Some(libs[req.lib_index].name()),
                    algo: "dag",
                    ..MapCall::default()
                };
                conns[i % workers].push((i, map_request(&req.blif, &call)));
            }
            conns
        })
        .collect();

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_STARTS {
        let (daemon, s) = Daemon::start()?;
        setup_s.push(s);
        daemon.stop()?;
    }

    let mut traced = Tracer::new(true);
    let (mut walls, mut cpus, mut rss, mut latencies) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut traced_walls = Vec::new();
    let mut layer_passes: Vec<Metrics> = Vec::new();
    let mut out_of_order = 0;
    // Per stream: the digest of its untraced and traced replies, and the
    // delay and area of each reply.
    let mut digests: [Vec<Option<String>>; 2] = [vec![None; STREAMS], vec![None; STREAMS]];
    let mut quality: Vec<Vec<(f64, f64)>> = vec![Vec::new(); STREAMS];
    // Traced runs serve each stream untraced, then traced.
    let per_stream = if args.trace { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut longest = 0.0f64;
    for k in 0.. {
        let unit_start = k % per_stream == 0;
        if k >= STREAMS * per_stream && unit_start && !fits(deadline, longest * per_stream as f64) {
            break;
        }
        let s = (k / per_stream) % STREAMS;
        let trace_this = k % per_stream == 1;
        let stream = &streams[s];
        res.attempted += stream.len() as u64;
        let pass = match run_pass(&payloads[s], trace_this) {
            Ok(p) => p,
            Err(e) => {
                res.fail(stream.len() as u64, e);
                continue;
            }
        };
        setup_s.push(pass.setup_s);
        longest = longest.max(pass.wall_s() + pass.setup_s);

        // Check every reply against its one-shot reference.
        let mut by_index: Vec<Option<&Answer>> = vec![None; stream.len()];
        for a in pass.conns.iter().flat_map(|c| &c.answers) {
            by_index[a.index] = Some(a);
        }
        let mut digest = Fnv::default();
        let mut pass_quality = Vec::with_capacity(stream.len());
        for (i, req) in stream.iter().enumerate() {
            let Some(a) = by_index[i] else {
                res.fail(1, format!("r{i}: no reply"));
                continue;
            };
            if a.reply.get("ok") != Some(&Value::Bool(true)) {
                res.fail(1, format!("r{i}: error reply {:?}", a.reply.get("error")));
                continue;
            }
            let served = a.reply.get("blif").and_then(Value::as_str).unwrap_or("");
            if served != refs[&(req.lib_index, req.circuit.clone())] {
                res.fail(
                    1,
                    format!("r{i} ({}): served BLIF differs from one-shot", req.circuit),
                );
            }
            digest.write(served.as_bytes());
            pass_quality.push((num(&a.reply, &["delay"]), num(&a.reply, &["area"])));
            let threads = num(&a.reply, &["phases", "label_threads"]) as usize;
            res.label_threads = res.label_threads.max(threads);
        }
        let digest = digest.hex();
        match &digests[usize::from(trace_this)][s] {
            Some(first) if *first != digest => {
                res.fail(1, format!("stream {s}: replies differ between passes"));
            }
            _ => digests[usize::from(trace_this)][s] = Some(digest),
        }
        if quality[s].is_empty() {
            quality[s] = pass_quality;
        }
        let pass_out_of_order: u64 = pass.conns.iter().map(|c| c.out_of_order).sum();
        out_of_order += pass_out_of_order;

        if trace_this {
            traced_walls.push(pass.wall_s());
            layer_passes.push(layer_metrics(
                &mut traced,
                &pass,
                stream,
                k,
                workers,
                pass_out_of_order,
            ));
        } else {
            walls.push(pass.wall_s());
            cpus.push(pass.cpu_s);
            rss.push(pass.rss_mb);
            latencies.extend(
                pass.conns
                    .iter()
                    .flat_map(|c| &c.answers)
                    .map(|a| (a.got - a.sent).as_secs_f64()),
            );
        }
    }
    if out_of_order == 0 {
        res.fail(
            1,
            "no reply overtook another: id pairing was never exercised".to_owned(),
        );
    }
    let combine = |per_stream: &[Option<String>]| {
        let mut h = Fnv::default();
        for d in per_stream {
            h.write(d.as_deref().unwrap_or("missing").as_bytes());
        }
        h.hex()
    };
    res.digest = combine(&digests[0]);
    if args.trace {
        res.traced_digest = Some(combine(&digests[1]));
    }

    if args.trace {
        let mut m = median_of(&layer_passes);
        m.insert(
            "obs.trace_overhead_pct",
            (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
        );
        res.metrics = m;
        res.tracer = Some(traced);
    } else {
        let (delays, areas): (Vec<f64>, Vec<f64>) = quality.iter().flatten().copied().unzip();
        let wall_s = median(&walls);
        res.metrics = Metrics::from([
            ("setup_s", median(&setup_s)),
            ("wall_s", wall_s),
            ("cpu_s", median(&cpus)),
            ("throughput_rps", len as f64 / wall_s),
            ("latency_p50_ms", median(&latencies) * 1e3),
            ("latency_p99_ms", quantile(&latencies, 0.99) * 1e3),
            ("delay_geomean", geomean(&delays)),
            ("area_geomean", geomean(&areas)),
            ("peak_rss_mb", median(&rss)),
        ]);
    }
    res.notes = format!(
        "\"streams\":{STREAMS},\"requests_per_stream\":{len},\"repeats\":{},\"distinct_pairs\":{},\
         \"passes\":{},\"latency_samples\":{},\"out_of_order\":{out_of_order}",
        streams.iter().flatten().filter(|r| r.repeat).count(),
        refs.len(),
        walls.len(),
        latencies.len()
    );
    Ok(res)
}

/// Per-layer metrics of one traced pass; also records its spans.
fn layer_metrics(
    tr: &mut Tracer,
    pass: &Pass,
    stream: &[ServeRequest],
    pass_no: usize,
    workers: usize,
    out_of_order: u64,
) -> Metrics {
    let root = tr.record(Span {
        name: "pass",
        id: pass_no,
        parent: ROOT,
        track: 0,
        start: pass.start,
        end: pass.end,
    });
    let mut conn_self = 0.0;
    let mut counters = PassCounters::default();
    let (mut first, mut repeat, mut phases, mut rest) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (c, conn) in pass.conns.iter().enumerate() {
        let span = tr.record(Span {
            name: "conn",
            id: c,
            parent: root,
            track: 1 + c,
            start: conn.start,
            end: conn.end,
        });
        for a in &conn.answers {
            tr.record(Span {
                name: "serve.request",
                id: a.index,
                parent: span,
                track: 1 + c,
                start: a.sent,
                end: a.got,
            });
            let latency_ms = (a.got - a.sent).as_secs_f64() * 1e3;
            let p = phases_ms(&a.reply);
            if stream[a.index].repeat {
                repeat.push(latency_ms);
            } else {
                first.push(latency_ms);
            }
            phases.push(p);
            rest.push(latency_ms - p);
            counters.add_reply(&a.reply);
        }
        conn_self += tr.self_ms(span);
    }
    let busy: Vec<f64> = pass
        .conns
        .iter()
        .flat_map(|c| c.busy_samples.iter().copied())
        .collect();
    let hits = num(&pass.stats, &["memo", "hits"]);
    let misses = num(&pass.stats, &["memo", "misses"]);
    let mut m = counters.metrics();
    m.insert("serve.first_p50_ms", median(&first));
    m.insert("serve.repeat_p50_ms", median(&repeat));
    m.insert("serve.phases_ms", median(&phases));
    m.insert("serve.unattributed_ms", median(&rest));
    m.insert("serve.memo_hit_rate", ratio(hits, hits + misses));
    m.insert(
        "serve.workers_busy_share",
        busy.iter().sum::<f64>() / busy.len().max(1) as f64 / workers as f64,
    );
    m.insert("serve.busy_rejects", num(&pass.stats, &["busy_rejects"]));
    m.insert("serve.out_of_order", out_of_order as f64);
    m.insert(
        "unattributed_ms",
        tr.self_ms(root) + conn_self / pass.conns.len().max(1) as f64,
    );
    m
}
