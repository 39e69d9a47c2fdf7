//! Traffic-driven latency benchmark for the `dagmap serve` daemon.
//!
//! Starts an in-process server on a temp unix socket serving two libraries,
//! replays a seeded hot-set-skewed request stream (see
//! `dagmap_benchgen::request_stream`) from several pipelined client
//! connections, and reports throughput, server-side latency percentiles and
//! shared-cache effectiveness to `BENCH_serve.json`.
//!
//! The stream is replayed against three server configurations so the price
//! of live telemetry is measured, not guessed:
//!
//! * `base` — metrics registry off (`--no-metrics`),
//! * `metrics` — the product default: registry on, plus an HTTP
//!   `/metrics` listener scraped concurrently while traffic runs,
//! * `full` — metrics plus `--log-requests` JSONL logging and tail-based
//!   trace sampling.
//!
//! Usage: `serveperf [--quick] [--requests N] [--clients N] [--workers N]
//! [--out PATH] [--profile]`
//!
//! Invariants asserted every run:
//! * zero error frames and zero busy rejects (admission is unlimited here),
//! * the cross-request memo serves hits (> 0) on the repeated circuits,
//! * the `/metrics` endpoint answers live mid-traffic and its final
//!   `dagmap_requests_total` equals the stream length,
//! * the request log holds exactly one JSONL line per request,
//! * a spot check of one reply per distinct (circuit, library) pair is
//!   byte-identical to a one-shot `Mapper::map` — under every telemetry
//!   configuration,
//! * replies are paired with requests by id, and with two or more workers
//!   some replies actually arrived out of order.

#[cfg(unix)]
mod imp {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    use std::io::{Read as _, Write as _};
    use std::net::SocketAddr;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use dagmap_benchgen::{request_stream, RequestStreamSpec};
    use dagmap_core::{MapOptions, Mapper};
    use dagmap_genlib::Library;
    use dagmap_netlist::{blif, SubjectGraph};
    use dagmap_serve::{
        dash, map_request, Client, Endpoint, Endpoints, MapCall, ServeConfig, Server, TailConfig,
    };

    /// Max in-flight frames per client connection before reading replies.
    const PIPELINE_WINDOW: usize = 16;

    struct Args {
        quick: bool,
        requests: Option<usize>,
        clients: usize,
        workers: Option<usize>,
        out: String,
        profile: bool,
    }

    fn parse_args() -> Args {
        let mut parsed = Args {
            quick: false,
            requests: None,
            clients: 4,
            workers: None,
            out: String::from("BENCH_serve.json"),
            profile: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut num = |flag: &str| {
                args.next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("{flag} needs a positive integer"))
            };
            match a.as_str() {
                "--quick" => parsed.quick = true,
                "--requests" => parsed.requests = Some(num("--requests")),
                "--clients" => parsed.clients = num("--clients").max(1),
                "--workers" => parsed.workers = Some(num("--workers").max(1)),
                "--out" => parsed.out = args.next().expect("--out needs a path"),
                "--profile" => parsed.profile = true,
                other => panic!("unknown argument `{other}`"),
            }
        }
        parsed
    }

    /// Which telemetry layers a pass switches on.
    #[derive(Clone, Copy, PartialEq)]
    enum Telemetry {
        /// Registry disabled: the zero-telemetry floor.
        Off,
        /// Registry plus HTTP `/metrics` listener (the product default).
        Metrics,
        /// Metrics plus JSONL request logging and tail trace sampling.
        Full,
    }

    /// Everything one replay of the stream produced.
    struct PassResult {
        wall_s: f64,
        /// First reply BLIF per distinct (circuit, lib) pair.
        kept: BTreeMap<(String, usize), String>,
        lat_first: Vec<u64>,
        lat_repeat: Vec<u64>,
        stats: dagmap_obs::json::Value,
        trace: dagmap_obs::Trace,
        /// Successful mid-traffic HTTP scrapes (metrics passes only).
        scrapes: usize,
        log_lines: usize,
        tail_files: usize,
        /// Replies that overtook an earlier request of their connection.
        out_of_order: usize,
    }

    /// What one client connection saw, every reply paired with its
    /// request by id.
    #[derive(Default)]
    struct ClientResult {
        /// First reply BLIF per distinct (circuit, lib) pair.
        kept: BTreeMap<(String, usize), String>,
        errors: usize,
        /// Per-request server-side map time (the sum of the reply's phase
        /// seconds — free of client pipelining and queueing), split into
        /// first-seen circuits (cold caches) and repeats of the hot set
        /// (warm caches).
        lat_first: Vec<u64>,
        lat_repeat: Vec<u64>,
        out_of_order: usize,
    }

    impl ClientResult {
        fn record(&mut self, req: &dagmap_benchgen::ServeRequest, reply: &dagmap_obs::json::Value) {
            if let Some(phases) = reply.get("phases") {
                let sec = |k: &str| phases.get(k).and_then(|v| v.as_num()).unwrap_or(0.0);
                let us = ((sec("decompose_seconds")
                    + sec("label_seconds")
                    + sec("cover_seconds")
                    + sec("area_recovery_seconds"))
                    * 1e6) as u64;
                if req.repeat {
                    self.lat_repeat.push(us);
                } else {
                    self.lat_first.push(us);
                }
            }
            if reply.get("error").is_some() {
                self.errors += 1;
                return;
            }
            self.kept
                .entry((req.circuit.clone(), req.lib_index))
                .or_insert_with(|| {
                    reply
                        .get("blif")
                        .and_then(|b| b.as_str())
                        .expect("ok reply carries blif")
                        .to_owned()
                });
        }
    }

    /// One plain-HTTP GET against the daemon's metrics listener; returns
    /// the response body.
    fn http_get_metrics(addr: SocketAddr) -> std::io::Result<String> {
        let mut stream = std::net::TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: serveperf\r\nConnection: close\r\n\r\n")?;
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        text.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_owned())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))
    }

    /// Replays `stream` once against a fresh server under `telemetry` and
    /// tears everything down again.
    #[allow(clippy::too_many_lines)]
    fn run_pass(
        label: &str,
        telemetry: Telemetry,
        workers: usize,
        clients: usize,
        libraries: &[Library],
        lib_names: &[String],
        stream: &[dagmap_benchgen::ServeRequest],
        profile: bool,
    ) -> PassResult {
        let scratch = PathBuf::from(std::env::temp_dir()).join(format!(
            "dagmap-serveperf-{}-{label}",
            std::process::id()
        ));
        let socket = scratch.with_extension("sock");
        let log_path = scratch.with_extension("jsonl");
        let tail_dir = scratch.with_extension("tail");
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(&log_path);
        let _ = std::fs::remove_dir_all(&tail_dir);

        let config = ServeConfig {
            workers,
            // Unlimited admission: this bench measures the mapping pipeline,
            // not the backpressure path, and asserts zero busy rejects.
            max_inflight: 0,
            metrics: telemetry != Telemetry::Off,
            metrics_addr: (telemetry != Telemetry::Off).then(|| "127.0.0.1:0".to_owned()),
            log_requests: (telemetry == Telemetry::Full).then(|| log_path.clone()),
            tail: (telemetry == Telemetry::Full).then(|| TailConfig::new(tail_dir.clone())),
            ..ServeConfig::default()
        };
        let endpoints = Endpoints {
            unix: Some(socket.clone()),
            ..Endpoints::default()
        };

        // Global obs session: workers flush per-request latency samples into
        // it; finished only after the server fully drains.
        let session = dagmap_obs::start();
        let server = Server::start(&config, libraries.to_vec(), &endpoints).expect("server starts");
        let endpoint = Endpoint::Unix(socket.clone());

        // Scrape the HTTP endpoint concurrently with the traffic: the
        // counter sequence must be non-decreasing and reach the stream
        // length by the final (post-drain, pre-shutdown) scrape.
        let http_addr = server.metrics_http_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = http_addr.map(|addr| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen: Vec<f64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(body) = http_get_metrics(addr) {
                        if let Ok(samples) = dash::parse_exposition(&body) {
                            if let Some(v) = dash::find(&samples, "dagmap_requests_total", &[]) {
                                seen.push(v);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                seen
            })
        });

        // Partition the stream round-robin across client threads. Each
        // client pipelines up to PIPELINE_WINDOW frames, tags each with an
        // id, and pairs every reply with its request by that id: with more
        // than one worker, replies arrive out of order. It keeps the first
        // reply BLIF per distinct (circuit, lib) pair for the bit-identity
        // spot check.
        let t0 = Instant::now();
        let replies: Vec<ClientResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let my: Vec<_> = stream.iter().skip(c).step_by(clients).collect();
                    let endpoint = endpoint.clone();
                    s.spawn(move || {
                        let mut client = Client::connect(&endpoint).expect("client connects");
                        let mut out = ClientResult::default();
                        // Requests in flight, oldest first, by index into `my`.
                        let mut outstanding: Vec<usize> = Vec::new();
                        let mut drain = |client: &mut Client, outstanding: &mut Vec<usize>| {
                            let reply = client.recv().expect("reply");
                            let pos = reply
                                .get("id")
                                .and_then(|v| v.as_str())
                                .and_then(|id| id.parse::<usize>().ok())
                                .and_then(|i| outstanding.iter().position(|&o| o == i))
                                .expect("reply id names an outstanding request");
                            out.out_of_order += usize::from(pos != 0);
                            out.record(my[outstanding.remove(pos)], &reply);
                        };
                        for (i, req) in my.iter().enumerate() {
                            if outstanding.len() >= PIPELINE_WINDOW {
                                drain(&mut client, &mut outstanding);
                            }
                            let id = i.to_string();
                            let payload = map_request(
                                &req.blif,
                                &MapCall {
                                    id: Some(&id),
                                    lib: Some(&lib_names[req.lib_index]),
                                    ..MapCall::default()
                                },
                            );
                            client.send(&payload).expect("send");
                            outstanding.push(i);
                        }
                        while !outstanding.is_empty() {
                            drain(&mut client, &mut outstanding);
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();

        // Every reply is in: the endpoint must already account for the
        // whole stream while the server is still up.
        let mut scrapes = 0usize;
        if let Some(handle) = scraper {
            stop.store(true, Ordering::Relaxed);
            let seen = handle.join().expect("scraper thread");
            assert!(
                seen.windows(2).all(|w| w[0] <= w[1]),
                "{label}: scraped requests_total went backwards: {seen:?}"
            );
            scrapes = seen.len();
            let addr = http_addr.expect("scraper implies an address");
            let body = http_get_metrics(addr).expect("final http scrape");
            let samples = dash::parse_exposition(&body).expect("exposition parses");
            let total = dash::find(&samples, "dagmap_requests_total", &[]).unwrap_or(-1.0);
            assert_eq!(
                total as usize,
                stream.len(),
                "{label}: live endpoint disagrees with the stream length"
            );
        }

        // Server-side counters before shutdown; the metrics frame must
        // agree with the stats frame.
        let mut control = Client::connect(&endpoint).expect("control client");
        let stats = control.stats().expect("stats");
        if telemetry != Telemetry::Off {
            let exposition = control.metrics().expect("metrics frame");
            let samples = dash::parse_exposition(&exposition).expect("frame exposition parses");
            let total = dash::find(&samples, "dagmap_requests_total", &[]).unwrap_or(-1.0);
            assert_eq!(total as usize, stream.len(), "{label}: metrics frame total");
        }
        control.shutdown().expect("shutdown ack");
        server.wait().expect("clean drain");
        let trace = session.finish();
        if profile {
            // Aggregate server-side phase report over the whole stream:
            // shows where worker time went (parse, decompose, label, export)
            // across all requests, not just the percentile summary.
            eprint!("{}", dagmap_obs::report::render(&trace));
        }

        let log_lines = std::fs::read_to_string(&log_path)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        let tail_files = std::fs::read_dir(&tail_dir).map_or(0, |d| d.count());
        let _ = std::fs::remove_file(&log_path);
        let _ = std::fs::remove_dir_all(&tail_dir);

        let client_errors: usize = replies.iter().map(|r| r.errors).sum();
        assert_eq!(client_errors, 0, "{label}: client observed error frames");
        let out_of_order = replies.iter().map(|r| r.out_of_order).sum();

        let mut kept: BTreeMap<(String, usize), String> = BTreeMap::new();
        let mut lat_first = Vec::new();
        let mut lat_repeat = Vec::new();
        for r in replies {
            for (key, text) in r.kept {
                kept.entry(key).or_insert(text);
            }
            lat_first.extend(r.lat_first);
            lat_repeat.extend(r.lat_repeat);
        }
        lat_first.sort_unstable();
        lat_repeat.sort_unstable();
        PassResult {
            wall_s,
            kept,
            lat_first,
            lat_repeat,
            stats,
            trace,
            scrapes,
            log_lines,
            tail_files,
            out_of_order,
        }
    }

    /// Process CPU time (user + system, summed over all threads) in
    /// seconds, from `/proc/self/stat`. `None` where /proc is absent;
    /// callers fall back to wall clock there.
    fn proc_cpu_s() -> Option<f64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // comm (field 2) may contain spaces; everything after the closing
        // paren is whitespace-delimited, starting at field 3 (state).
        let rest = stat.get(stat.rfind(')')? + 2..)?;
        let mut fields = rest.split_ascii_whitespace();
        let utime: u64 = fields.nth(11)?.parse().ok()?; // field 14
        let stime: u64 = fields.next()?.parse().ok()?; // field 15
        // USER_HZ is 100 on every Linux ABI this bench runs on.
        Some((utime + stime) as f64 / 100.0)
    }

    /// Minimum cost of *serial, warm* replays of `slice` against a
    /// metrics-off and a metrics-on server — one client each, one request
    /// in flight, every request already resident in the shared memo from
    /// an unmeasured warming replay.
    ///
    /// This is the configuration where the per-request telemetry cost is
    /// actually attributable: the pipelined multi-client passes measure
    /// scheduler behavior as much as work on a small host (their walls
    /// routinely differ by double-digit percent in either direction). Even
    /// serially, wall clock per round trip is dominated by cross-thread
    /// wake-up latency (milliseconds against sub-millisecond warm maps),
    /// so the replays are costed in **process CPU time** where available:
    /// client, dispatcher and worker all live in this process, scheduler
    /// wait accrues no CPU, and the telemetry work does. Both servers stay
    /// alive for the whole comparison and the measured replays run as
    /// back-to-back off/on pairs with alternating order, so drift on a
    /// shared host hits both sides of each pair equally. Returns
    /// `(median off, median on, median per-pair on/off ratio,
    /// "cpu"|"wall")`.
    fn serial_pair(
        workers: usize,
        libraries: &[Library],
        lib_names: &[String],
        slice: &[dagmap_benchgen::ServeRequest],
        reps: usize,
    ) -> (f64, f64, f64, &'static str) {
        let rig = |metrics: bool| {
            let socket = PathBuf::from(std::env::temp_dir()).join(format!(
                "dagmap-serveperf-{}-serial-{}.sock",
                std::process::id(),
                if metrics { "on" } else { "off" }
            ));
            let _ = std::fs::remove_file(&socket);
            let config = ServeConfig {
                workers,
                max_inflight: 0,
                metrics,
                ..ServeConfig::default()
            };
            let endpoints = Endpoints {
                unix: Some(socket.clone()),
                ..Endpoints::default()
            };
            let server =
                Server::start(&config, libraries.to_vec(), &endpoints).expect("server starts");
            let client = Client::connect(&Endpoint::Unix(socket)).expect("client connects");
            (server, client)
        };
        let (server_off, mut client_off) = rig(false);
        let (server_on, mut client_on) = rig(true);
        let use_cpu = proc_cpu_s().is_some();
        let replay = |client: &mut Client, measured: bool| -> f64 {
            let cpu0 = proc_cpu_s();
            let t0 = Instant::now();
            for req in slice {
                let payload = map_request(
                    &req.blif,
                    &MapCall {
                        lib: Some(&lib_names[req.lib_index]),
                        ..MapCall::default()
                    },
                );
                let reply = client.call(&payload).expect("reply");
                if measured {
                    assert!(reply.get("error").is_none(), "serial replay errored");
                }
            }
            match (cpu0, proc_cpu_s()) {
                (Some(a), Some(b)) => b - a,
                _ => t0.elapsed().as_secs_f64(),
            }
        };
        let _ = replay(&mut client_off, false);
        let _ = replay(&mut client_on, false);
        // Each rep is a back-to-back off/on pair (order alternating), and
        // the committed overhead is the MEDIAN of the per-rep on/off
        // ratios: pairing cancels host drift at the seconds timescale the
        // way a min over unpaired runs cannot, and the median discards
        // reps a noisy neighbor interrupted.
        let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..reps {
            let (off, on) = if rep % 2 == 0 {
                let off = replay(&mut client_off, true);
                (off, replay(&mut client_on, true))
            } else {
                let on = replay(&mut client_on, true);
                (replay(&mut client_off, true), on)
            };
            offs.push(off);
            ons.push(on);
            ratios.push(on / off);
        }
        client_off.shutdown().expect("shutdown ack");
        server_off.wait().expect("clean drain");
        client_on.shutdown().expect("shutdown ack");
        server_on.wait().expect("clean drain");
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        (
            median(&mut offs),
            median(&mut ons),
            median(&mut ratios),
            if use_cpu { "cpu" } else { "wall" },
        )
    }

    fn stat(stats: &dagmap_obs::json::Value, path: &[&str]) -> f64 {
        let mut v = stats;
        for key in path {
            v = v.get(key).unwrap_or(&dagmap_obs::json::Value::Null);
        }
        v.as_num().unwrap_or(0.0)
    }

    pub fn main() {
        let args = parse_args();
        let libraries = vec![Library::lib2_like(), Library::lib_44_3_like()];
        let lib_names: Vec<String> = libraries.iter().map(|l| l.name().to_owned()).collect();
        let num_requests = args
            .requests
            .unwrap_or(if args.quick { 120 } else { 1000 });
        let spec = RequestStreamSpec {
            num_requests,
            num_libs: libraries.len(),
            ..RequestStreamSpec::default()
        };
        let stream = request_stream(&spec);
        let repeats = stream.iter().filter(|r| r.repeat).count();

        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = args.workers.unwrap_or(nproc);

        println!(
            "serveperf: {} requests ({} repeats) over {} libraries, {} workers, {} clients",
            stream.len(),
            repeats,
            libraries.len(),
            workers,
            args.clients
        );

        // One unmeasured warmup slice first: the very first pass pays
        // one-time costs (page cache, allocator growth, CPU ramp) that
        // would otherwise be billed to whichever configuration runs first
        // and swamp the telemetry-overhead comparison.
        let warmup_len = stream.len().min(100);
        let _ = run_pass(
            "warmup",
            Telemetry::Off,
            workers,
            args.clients,
            &libraries,
            &lib_names,
            &stream[..warmup_len],
            false,
        );

        // Replay the stream under each telemetry level.
        let run = |label: &str, telemetry: Telemetry, profile: bool| {
            let r = run_pass(
                label,
                telemetry,
                workers,
                args.clients,
                &libraries,
                &lib_names,
                &stream,
                profile,
            );
            println!(
                "  pass {label:8} {:.2} s ({:.1} req/s)",
                r.wall_s,
                stream.len() as f64 / r.wall_s
            );
            r
        };
        let base_a = run("base", Telemetry::Off, false);
        let metrics_a = run("metrics", Telemetry::Metrics, args.profile);
        let full = run("full", Telemetry::Full, false);
        let wall_base = base_a.wall_s;
        let wall_metrics = metrics_a.wall_s;

        // The attributable metrics cost: serial warm replays against a
        // live off/on server pair, alternating per rep, best wall each.
        // Serial traffic of warm hot-set requests is the worst case for
        // per-request telemetry cost (nothing amortizes it) and the least
        // scheduler-sensitive.
        let serial_len = stream.len().min(if args.quick { 60 } else { 300 });
        let serial = &stream[..serial_len];
        let serial_reps = if args.quick { 3 } else { 7 };
        let (serial_off, serial_on, serial_ratio, serial_measure) =
            serial_pair(workers, &libraries, &lib_names, serial, serial_reps);
        let metrics_overhead_pct = 100.0 * (serial_ratio - 1.0);
        println!(
            "  serial {serial_len}-request warm replay ({serial_reps} paired reps, {serial_measure}): \
             metrics off {serial_off:.3} s, on {serial_on:.3} s \
             (median paired overhead {metrics_overhead_pct:+.2}%)"
        );

        // Per-pass server-side invariants.
        for (label, pass) in [("base", &base_a), ("metrics", &metrics_a), ("full", &full)] {
            let served = stat(&pass.stats, &["requests"]);
            let busy = stat(&pass.stats, &["busy_rejects"]);
            let errors = stat(&pass.stats, &["errors"]);
            let hits = stat(&pass.stats, &["memo", "hits"]);
            assert_eq!(errors as u64, 0, "{label}: server counted error frames");
            assert_eq!(busy as u64, 0, "{label}: busy rejects with unlimited admission");
            assert_eq!(served as usize, stream.len(), "{label}: server served every request");
            assert!(hits > 0.0, "{label}: repeated circuits produced no memo hits");
        }
        assert!(metrics_a.scrapes > 0, "no live HTTP scrape succeeded mid-traffic");
        // With two or more workers a short request overtakes a long one on
        // the same connection; the id pairing above must have been needed.
        let out_of_order: usize = [&base_a, &metrics_a, &full]
            .iter()
            .map(|p| p.out_of_order)
            .sum();
        if workers >= 2 {
            assert!(
                out_of_order > 0,
                "{workers} workers never reordered a reply: the id pairing went unexercised"
            );
        }
        assert_eq!(
            full.log_lines,
            stream.len(),
            "request log must hold one line per request"
        );

        // Headline numbers come from the product-default configuration.
        let headline = &metrics_a;
        let served = stat(&headline.stats, &["requests"]);
        let busy = stat(&headline.stats, &["busy_rejects"]);
        let server_errors = stat(&headline.stats, &["errors"]);
        let memo_hits = stat(&headline.stats, &["memo", "hits"]);
        let memo_misses = stat(&headline.stats, &["memo", "misses"]);
        let hit_rate = if memo_hits + memo_misses > 0.0 {
            memo_hits / (memo_hits + memo_misses)
        } else {
            0.0
        };

        // Bit-identity spot check: one served reply per distinct
        // (circuit, lib) pair vs a one-shot mapping of the same BLIF text —
        // and the replies of every telemetry level against each other.
        let mut checked = 0usize;
        let mut identical = true;
        for ((circuit, lib_index), served_blif) in &headline.kept {
            let req = stream
                .iter()
                .find(|r| &r.circuit == circuit && r.lib_index == *lib_index)
                .expect("pair came from the stream");
            let net = blif::parse(&req.blif).expect("stream blif parses");
            let subject = SubjectGraph::from_network(&net).expect("decomposes");
            let mapped = Mapper::new(&libraries[*lib_index])
                .map(&subject, MapOptions::dag())
                .expect("one-shot maps");
            let reference =
                blif::to_string(&mapped.to_network().expect("netlist exports")).expect("blif");
            checked += 1;
            if *served_blif != reference {
                identical = false;
                eprintln!("MISMATCH: {circuit} under {}", lib_names[*lib_index]);
            }
            for (label, pass) in [("base", &base_a), ("full", &full)] {
                if pass.kept.get(&(circuit.clone(), *lib_index)) != Some(served_blif) {
                    identical = false;
                    eprintln!(
                        "MISMATCH vs {label} pass: {circuit} under {}",
                        lib_names[*lib_index]
                    );
                }
            }
        }

        let hist = headline.trace.histograms.get("serve.latency_us");
        let (p50, p95, p99) = hist.map_or((0, 0, 0), |h| {
            (
                h.quantile_upper(0.5),
                h.quantile_upper(0.95),
                h.quantile_upper(0.99),
            )
        });
        let pct = |sorted: &[u64], q: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        };
        let lat_first = &headline.lat_first;
        let lat_repeat = &headline.lat_repeat;
        let (first_p50, first_p99) = (pct(lat_first, 0.5), pct(lat_first, 0.99));
        let (rep_p50, rep_p99) = (pct(lat_repeat, 0.5), pct(lat_repeat, 0.99));
        let throughput = stream.len() as f64 / wall_metrics;
        println!(
            "  {:.1} req/s over {:.2} s; latency p50 <= {} us, p95 <= {} us, p99 <= {} us",
            throughput, wall_metrics, p50, p95, p99
        );
        println!(
            "  per-request map time: first-seen p50 {first_p50} us / p99 {first_p99} us ({} reqs), \
             repeated p50 {rep_p50} us / p99 {rep_p99} us ({} reqs)",
            lat_first.len(),
            lat_repeat.len(),
        );
        println!(
            "  memo: {memo_hits:.0} hits / {memo_misses:.0} misses (hit rate {:.1}%); \
             errors {server_errors:.0}, busy {busy:.0}; bit-identity {checked} pairs identical={identical}; \
             {out_of_order} replies out of order",
            hit_rate * 100.0
        );
        println!(
            "  telemetry: pipelined walls base {wall_base:.2} s / metrics {wall_metrics:.2} s / \
             full {:.2} s; serial warm overhead {metrics_overhead_pct:+.2}%; \
             {} live scrapes, {} log lines, {} tail traces",
            full.wall_s, metrics_a.scrapes, full.log_lines, full.tail_files,
        );

        let mut json = String::new();
        json.push_str("{\n");
        let _ = writeln!(json, "  \"bench\": \"serveperf\",");
        let _ = writeln!(json, "  \"quick\": {},", args.quick);
        let _ = writeln!(json, "  \"requests\": {},", stream.len());
        let _ = writeln!(json, "  \"repeats\": {repeats},");
        let _ = writeln!(
            json,
            "  \"libraries\": [{}],",
            lib_names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(json, "  \"nproc\": {nproc},");
        let _ = writeln!(json, "  \"workers\": {workers},");
        // False on 1-CPU hosts where one worker serializes the pool; lets
        // consumers (tier1.sh) skip parallel-shape assertions.
        let _ = writeln!(json, "  \"parallel_engaged\": {},", workers > 1);
        let _ = writeln!(json, "  \"clients\": {},", args.clients);
        let _ = writeln!(json, "  \"pipeline_window\": {PIPELINE_WINDOW},");
        let _ = writeln!(json, "  \"wall_s\": {wall_metrics:.6},");
        let _ = writeln!(json, "  \"throughput_rps\": {throughput:.2},");
        let _ = writeln!(json, "  \"latency_us\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}},");
        let _ = writeln!(
            json,
            "  \"latency_split_us\": {{\"first_seen\": {{\"p50\": {first_p50}, \"p99\": {first_p99}, \
             \"n\": {}}}, \"repeated\": {{\"p50\": {rep_p50}, \"p99\": {rep_p99}, \"n\": {}}}}},",
            lat_first.len(),
            lat_repeat.len(),
        );
        let _ = writeln!(
            json,
            "  \"memo\": {{\"hits\": {memo_hits:.0}, \"misses\": {memo_misses:.0}, \"hit_rate\": {hit_rate:.4}}},"
        );
        let _ = writeln!(
            json,
            "  \"telemetry\": {{\"wall_base_s\": {wall_base:.6}, \"wall_metrics_s\": {wall_metrics:.6}, \
             \"wall_full_s\": {:.6}, \"serial_requests\": {serial_len}, \
             \"serial_measure\": \"{serial_measure}\", \
             \"serial_off_s\": {serial_off:.6}, \"serial_on_s\": {serial_on:.6}, \
             \"metrics_overhead_pct\": {metrics_overhead_pct:.3}, \"http_scrapes\": {}, \
             \"request_log_lines\": {}, \"tail_traces_kept\": {}}},",
            full.wall_s, metrics_a.scrapes, full.log_lines, full.tail_files,
        );
        let _ = writeln!(json, "  \"served\": {served:.0},");
        let _ = writeln!(json, "  \"errors\": {:.0},", server_errors);
        let _ = writeln!(json, "  \"busy_rejects\": {busy:.0},");
        let _ = writeln!(json, "  \"out_of_order_replies\": {out_of_order},");
        let _ = writeln!(json, "  \"bit_identity_pairs\": {checked},");
        let _ = writeln!(json, "  \"bit_identical\": {identical}");
        json.push_str("}\n");
        std::fs::write(&args.out, &json).expect("write BENCH_serve.json");
        println!("wrote {}", args.out);

        assert!(checked > 0 && identical, "served BLIF diverged from one-shot mapping");
    }
}

#[cfg(unix)]
fn main() {
    imp::main();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("serveperf requires unix sockets; skipping");
}
