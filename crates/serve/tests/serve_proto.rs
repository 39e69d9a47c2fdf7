//! Integration tests of the serve daemon over real sockets: roundtrips,
//! bit-identity against one-shot mapping, error isolation, backpressure,
//! per-request trace isolation, and drain-on-shutdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use dagmap_core::{MapOptions, Mapper};
use dagmap_genlib::Library;
use dagmap_netlist::{blif, Network, SubjectGraph};
use dagmap_serve::{map_request, Client, Endpoint, Endpoints, MapCall, ServeConfig, Server};

#[cfg(unix)]
fn unique_socket_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-{tag}-{seq}.sock",
        std::process::id()
    ))
}

#[cfg(unix)]
fn start_unix(tag: &str, config: &ServeConfig) -> (Server, Endpoint) {
    let path = unique_socket_path(tag);
    let endpoints = Endpoints {
        tcp: None,
        unix: Some(path.clone()),
    };
    let server = Server::start(
        config,
        vec![Library::lib2_like(), Library::lib_44_3_like()],
        &endpoints,
    )
    .expect("server starts");
    (server, Endpoint::Unix(path))
}

/// What one-shot `dagmap map` would produce for this BLIF text and library
/// (default options: delay-objective DAG cover, no forced memo — the
/// daemon's forced shared memo must not change a byte of this). Starts
/// from the same BLIF text the daemon receives, because parsing BLIF is
/// part of the pipeline whose output must be byte-identical.
fn one_shot_blif(input: &str, library: &Library) -> String {
    let net = blif::parse(input).unwrap();
    let subject = SubjectGraph::from_network(&net).unwrap();
    let mapped = Mapper::new(library)
        .map(&subject, MapOptions::dag())
        .unwrap();
    blif::to_string(&mapped.to_network().unwrap()).unwrap()
}

#[cfg(unix)]
#[test]
fn roundtrip_is_bit_identical_to_one_shot_mapping() {
    let (server, endpoint) = start_unix("roundtrip", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();

    for (lib, libname) in [
        (Library::lib2_like(), "lib2"),
        (Library::lib_44_3_like(), "44-3"),
    ] {
        let net = dagmap_benchgen::ripple_adder(4);
        let input = blif::to_string(&net).unwrap();
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some("r"),
                    lib: Some(lib.name()),
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(
            reply.get("error"),
            None,
            "map failed for {libname}: {reply:?}"
        );
        let served = reply.get("blif").unwrap().as_str().unwrap();
        assert_eq!(served, one_shot_blif(&input, &lib), "library {libname}");
        assert!(reply.get("delay").unwrap().as_num().unwrap() > 0.0);
        assert!(reply.get("phases").unwrap().get("label_seconds").is_some());
        assert!(reply
            .get("counters")
            .unwrap()
            .get("matches_enumerated")
            .is_some());
    }

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn malformed_requests_answer_with_errors_and_spare_the_connection() {
    let (server, endpoint) = start_unix("malformed", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    // Payload-level garbage: the frame parses, the JSON does not. The
    // connection must answer and stay alive.
    for bad in [
        "this is not json",
        "{\"op\":\"transmogrify\"}",
        "{\"op\":\"map\"}",
        "{\"op\":\"map\",\"blif\":\"x\",\"options\":{\"algo\":\"magic\"}}",
    ] {
        let reply = client.call(bad).unwrap();
        let kind = reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str())
            .unwrap_or_else(|| panic!("expected an error reply for `{bad}`, got {reply:?}"));
        assert_eq!(kind, "bad_request");
    }
    client.ping().expect("connection survives bad payloads");

    // A BLIF body the mapper rejects is also a per-request error: `z` is
    // driven by an undefined signal.
    let broken = ".model broken\n.inputs a\n.outputs z\n.names a ghost z\n11 1\n.end\n";
    let reply = client
        .call(&map_request(broken, &MapCall::default()))
        .unwrap();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("bad_request")
    );
    client.ping().expect("connection survives a failed map");

    // Workers must also survive: a good request after the failures works.
    let net = dagmap_benchgen::parity_tree(5);
    let input = blif::to_string(&net).unwrap();
    let reply = client.call(&map_request(&input, &MapCall::default())).unwrap();
    assert_eq!(
        reply.get("blif").unwrap().as_str().unwrap(),
        one_shot_blif(&input, &Library::lib2_like())
    );

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn concurrent_clients_all_get_bit_identical_results() {
    let (server, endpoint) = start_unix(
        "concurrent",
        &ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );

    // Expected outputs computed one-shot, up front.
    let circuits: Vec<Network> = vec![
        dagmap_benchgen::ripple_adder(3),
        dagmap_benchgen::comparator(4),
        dagmap_benchgen::parity_tree(6),
        dagmap_benchgen::mux_tree(2),
    ];
    let libs = [Library::lib2_like(), Library::lib_44_3_like()];
    let inputs: Vec<String> = circuits
        .iter()
        .map(|net| blif::to_string(net).unwrap())
        .collect();
    let expected: Vec<Vec<String>> = inputs
        .iter()
        .map(|input| libs.iter().map(|l| one_shot_blif(input, l)).collect())
        .collect();

    thread::scope(|scope| {
        for worker in 0..4 {
            let endpoint = endpoint.clone();
            let inputs = &inputs;
            let expected = &expected;
            let libs = &libs;
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                // Each client walks the circuit x library matrix several
                // times from a different offset, so the shared memo serves
                // all of them warm and cold interleaved.
                for round in 0..3 {
                    for i in 0..inputs.len() {
                        let c = (i + worker) % inputs.len();
                        let l = (i + round) % libs.len();
                        let id = format!("w{worker}-r{round}-{c}-{l}");
                        let reply = client
                            .call(&map_request(
                                &inputs[c],
                                &MapCall {
                                    id: Some(&id),
                                    lib: Some(libs[l].name()),
                                    ..MapCall::default()
                                },
                            ))
                            .unwrap();
                        assert_eq!(
                            reply.get("id").unwrap().as_str(),
                            Some(id.as_str()),
                            "reply correlates to its request"
                        );
                        assert_eq!(
                            reply.get("blif").unwrap().as_str().unwrap(),
                            expected[c][l],
                            "request {id} must be bit-identical to one-shot"
                        );
                    }
                }
            });
        }
    });

    // The repeated circuits above must have hit the shared memo.
    let mut client = Client::connect(&endpoint).unwrap();
    let stats = client.stats().unwrap();
    let hits = stats
        .get("memo")
        .unwrap()
        .get("hits")
        .unwrap()
        .as_num()
        .unwrap();
    assert!(hits > 0.0, "repeated circuits should hit the shared memo");
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn shutdown_drains_admitted_requests_before_exit() {
    let (server, endpoint) = start_unix(
        "drain",
        &ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let net = dagmap_benchgen::array_multiplier(6);
    let input = blif::to_string(&net).unwrap();

    // Pipeline several requests without reading any reply...
    let mut pipelined = Client::connect(&endpoint).unwrap();
    const N: usize = 5;
    for i in 0..N {
        let id = format!("drain-{i}");
        pipelined
            .send(&map_request(
                &input,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
    }

    // ...wait until the daemon has admitted all of them...
    let mut control = Client::connect(&endpoint).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = control.stats().unwrap();
        let admitted = stats.get("requests").unwrap().as_num().unwrap() as usize;
        if admitted >= N {
            break;
        }
        assert!(Instant::now() < deadline, "requests were never admitted");
        thread::sleep(Duration::from_millis(5));
    }

    // ...then shut down. Every admitted request must still be answered
    // with a real result, not an error.
    control.shutdown().unwrap();
    for _ in 0..N {
        let reply = pipelined.recv().expect("drained reply");
        assert_eq!(reply.get("error"), None, "drained requests map normally");
        assert!(reply.get("blif").is_some());
    }
    server.wait().unwrap();

    // New connections are refused once the daemon is gone.
    assert!(Client::connect(&endpoint).is_err());
}

#[cfg(unix)]
#[test]
fn backpressure_rejects_with_busy_frames_past_max_inflight() {
    let (server, endpoint) = start_unix(
        "busy",
        &ServeConfig {
            workers: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        },
    );
    // One request big enough to hold the single worker for a while...
    let big = blif::to_string(&dagmap_benchgen::array_multiplier(10)).unwrap();
    let small = blif::to_string(&dagmap_benchgen::ripple_adder(2)).unwrap();

    let mut client = Client::connect(&endpoint).unwrap();
    client
        .send(&map_request(
            &big,
            &MapCall {
                id: Some("big"),
                ..MapCall::default()
            },
        ))
        .unwrap();
    // ...then a burst past the inflight limit while it runs. The reader
    // thread rejects these inline, long before the worker finishes.
    const BURST: usize = 10;
    for i in 0..BURST {
        let id = format!("burst-{i}");
        client
            .send(&map_request(
                &small,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
    }

    let (mut ok, mut busy) = (0, 0);
    for _ in 0..(1 + BURST) {
        let reply = client.recv().unwrap();
        match reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str())
        {
            None => ok += 1,
            Some("busy") => busy += 1,
            Some(other) => panic!("unexpected error kind {other}"),
        }
    }
    assert!(ok >= 1, "the admitted request completes");
    assert!(busy >= 1, "the burst past the limit is refused as busy");
    assert_eq!(ok + busy, 1 + BURST);

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn per_request_traces_are_isolated_between_concurrent_requests() {
    let (server, endpoint) = start_unix(
        "trace",
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let input = blif::to_string(&dagmap_benchgen::array_multiplier(6)).unwrap();

    // Two concurrent traced requests: each reply must carry a valid Chrome
    // trace containing exactly its own mapping run (one "map" span), even
    // though both workers record simultaneously.
    thread::scope(|scope| {
        for worker in 0..2 {
            let endpoint = endpoint.clone();
            let input = &input;
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                let id = format!("traced-{worker}");
                let reply = client
                    .call(&map_request(
                        input,
                        &MapCall {
                            id: Some(&id),
                            trace: true,
                            ..MapCall::default()
                        },
                    ))
                    .unwrap();
                assert_eq!(reply.get("error"), None, "{reply:?}");
                let trace = reply.get("trace").unwrap().as_str().unwrap();
                let summary = dagmap_obs::trace::validate_chrome(trace)
                    .expect("per-request trace is a valid Chrome trace");
                assert!(summary.spans > 0);
                let doc = dagmap_obs::json::parse(trace).unwrap();
                let map_spans = doc
                    .get("traceEvents")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .iter()
                    .filter(|e| {
                        e.get("name").and_then(|n| n.as_str()) == Some("map")
                            && e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    })
                    .count();
                assert_eq!(
                    map_spans, 1,
                    "each trace holds exactly its own request's map span"
                );
            });
        }
    });

    let mut client = Client::connect(&endpoint).unwrap();
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn tcp_endpoint_serves_the_same_protocol() {
    let endpoints = Endpoints {
        tcp: Some("127.0.0.1:0".to_owned()),
        ..Endpoints::default()
    };
    let server = Server::start(
        &ServeConfig::default(),
        vec![Library::lib2_like()],
        &endpoints,
    )
    .unwrap();
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
    client.ping().unwrap();
    let net = dagmap_benchgen::ripple_adder(3);
    let input = blif::to_string(&net).unwrap();
    let reply = client.call(&map_request(&input, &MapCall::default())).unwrap();
    assert_eq!(
        reply.get("blif").unwrap().as_str().unwrap(),
        one_shot_blif(&input, &Library::lib2_like())
    );
    client.shutdown().unwrap();
    server.wait().unwrap();
}

/// Applies a small local edit to a parsed network: a fresh input XORed
/// into one primary output's driver. Mirrors the edit used by the core
/// incremental tests so most strash signatures survive.
#[cfg(unix)]
fn edited_blif(input: &str) -> String {
    use dagmap_netlist::{NetEdit, NodeFn};
    let mut net = blif::parse(input).unwrap();
    let out_name = net.outputs().first().unwrap().name.clone();
    let old_driver = net.outputs().first().unwrap().driver;
    let created = net
        .apply_edits(vec![
            NetEdit::AddInput {
                name: "serve_patch".into(),
            },
            NetEdit::AddNode {
                func: NodeFn::Xor,
                fanins: vec![old_driver, old_driver],
                name: None,
            },
        ])
        .unwrap();
    let (patch_in, xor) = (created[0].unwrap(), created[1].unwrap());
    net.replace_fanin(xor, 1, patch_in).unwrap();
    net.apply_edits(vec![NetEdit::SetOutputDriver {
        output: out_name,
        driver: xor,
    }])
    .unwrap();
    blif::to_string(&net).unwrap()
}

#[cfg(unix)]
#[test]
fn retain_then_remap_is_bit_identical_and_reuses_labels() {
    let (server, endpoint) = start_unix("remap", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    let lib = Library::lib_44_3_like();
    let input = blif::to_string(&dagmap_benchgen::alu(6)).unwrap();
    let reply = client
        .call(&dagmap_serve::map_request(
            &input,
            &MapCall {
                id: Some("base"),
                lib: Some(lib.name()),
                retain: true,
                ..MapCall::default()
            },
        ))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");
    let handle = reply
        .get("handle")
        .and_then(|h| h.as_str())
        .expect("retaining map returns a handle")
        .to_owned();

    // Remap the edited circuit through the retained labels: byte-identical
    // to a cold one-shot of the edited BLIF, with most labels reused.
    let edited = edited_blif(&input);
    let reply = client
        .call(&dagmap_serve::remap_request(&edited, &handle, Some("e1"), false))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");
    assert_eq!(reply.get("op").and_then(|o| o.as_str()), Some("remap"));
    assert_eq!(
        reply.get("blif").unwrap().as_str().unwrap(),
        one_shot_blif(&edited, &lib),
        "incremental remap diverged from a cold map of the edited netlist"
    );
    let reused = reply
        .get("counters")
        .and_then(|c| c.get("labels_reused"))
        .and_then(|v| v.as_num())
        .unwrap();
    assert!(reused > 0.0, "a local edit must leave labels reusable");

    // The refreshed snapshot chains: a second edit remaps against the
    // first edit's labels, still bit-identical.
    let edited2 = edited_blif(&edited);
    let reply = client
        .call(&dagmap_serve::remap_request(&edited2, &handle, Some("e2"), false))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");
    assert_eq!(
        reply.get("blif").unwrap().as_str().unwrap(),
        one_shot_blif(&edited2, &lib)
    );

    // Unknown handles answer with a per-request error, not a dead worker.
    let reply = client
        .call(&dagmap_serve::remap_request(&edited, "no-such-handle", None, false))
        .unwrap();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("bad_request")
    );
    client.ping().unwrap();

    // Daemon stats expose the remap traffic.
    let stats = client.stats().unwrap();
    assert!(stats.get("remaps").unwrap().as_num().unwrap() >= 2.0);
    assert!(stats.get("retained").unwrap().as_num().unwrap() >= 1.0);

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn metrics_frame_exposes_live_counters_and_stays_byte_neutral() {
    let (server, endpoint) = start_unix("metrics", &ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    let net = dagmap_benchgen::ripple_adder(4);
    let input = blif::to_string(&net).unwrap();
    let mut served = Vec::new();
    for i in 0..3 {
        let id = format!("m{i}");
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(reply.get("error"), None, "{reply:?}");
        served.push(reply.get("blif").unwrap().as_str().unwrap().to_owned());
    }
    // Telemetry enabled (the default) must not move a byte.
    let oneshot = one_shot_blif(&input, &Library::lib2_like());
    for blif in &served {
        assert_eq!(blif, &oneshot);
    }

    let exposition = client.metrics().unwrap();
    let samples = dagmap_serve::dash::parse_exposition(&exposition)
        .unwrap_or_else(|e| panic!("exposition must parse: {e}\n{exposition}"));
    let find = |name: &str| dagmap_serve::dash::find(&samples, name, &[]);
    assert_eq!(find("dagmap_requests_total"), Some(3.0));
    assert_eq!(find("dagmap_errors_total"), Some(0.0));
    // Every served mapping was verified (the default), and none failed.
    assert_eq!(find("dagmap_verify_failures_total"), Some(0.0));
    assert!(find("dagmap_workers").unwrap() >= 1.0);
    // First request was first-seen, the two repeats split into the repeat
    // class.
    assert_eq!(
        dagmap_serve::dash::find(
            &samples,
            "dagmap_request_latency_us_count",
            &[("kind", "first")]
        ),
        Some(1.0)
    );
    assert_eq!(
        dagmap_serve::dash::find(
            &samples,
            "dagmap_request_latency_us_count",
            &[("kind", "repeat")]
        ),
        Some(2.0)
    );
    // Per-library series carry the registered library name.
    assert_eq!(
        dagmap_serve::dash::find(&samples, "dagmap_lib_requests_total", &[("lib", "lib2_like")]),
        Some(3.0)
    );
    assert!(
        dagmap_serve::dash::find(&samples, "dagmap_memo_hits_total", &[("lib", "lib2_like")])
            .unwrap()
            > 0.0,
        "repeats must hit the shared memo"
    );

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn metrics_disabled_answers_an_error_frame() {
    let config = ServeConfig {
        metrics: false,
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("nometrics", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let err = client.metrics().expect_err("metrics are off");
    assert!(err.to_string().contains("disabled"), "{err}");
    client.ping().expect("connection survives the error frame");
    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn http_metrics_endpoint_serves_prometheus_text() {
    use std::io::{Read as _, Write as _};

    let config = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("httpmetrics", &config);
    let addr = server.metrics_http_addr().expect("http endpoint bound");
    let mut client = Client::connect(&endpoint).unwrap();
    let net = dagmap_benchgen::ripple_adder(3);
    let input = blif::to_string(&net).unwrap();
    let reply = client
        .call(&map_request(&input, &MapCall::default()))
        .unwrap();
    assert_eq!(reply.get("error"), None, "{reply:?}");

    let http_get = |path: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    let response = http_get("/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(
        response.contains("text/plain; version=0.0.4"),
        "{response}"
    );
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let samples = dagmap_serve::dash::parse_exposition(body).unwrap();
    assert_eq!(
        dagmap_serve::dash::find(&samples, "dagmap_requests_total", &[]),
        Some(1.0)
    );
    assert!(http_get("/nope").starts_with("HTTP/1.1 404"), "404 path");

    client.shutdown().unwrap();
    server.wait().unwrap();
}

#[cfg(unix)]
#[test]
fn request_log_writes_one_jsonl_event_per_request() {
    let log_path = std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-reqlog.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let config = ServeConfig {
        log_requests: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("reqlog", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let net = dagmap_benchgen::ripple_adder(4);
    let input = blif::to_string(&net).unwrap();
    for i in 0..2 {
        let id = format!("L{i}");
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(reply.get("error"), None, "{reply:?}");
    }
    // A failing request logs too, with its outcome.
    let reply = client.call(&map_request("not blif", &MapCall::default()));
    assert!(reply.unwrap().get("error").is_some());
    client.shutdown().unwrap();
    server.wait().unwrap();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one event per request:\n{text}");
    let events: Vec<_> = lines
        .iter()
        .map(|l| dagmap_obs::json::parse(l).expect("every line is valid JSON"))
        .collect();
    assert_eq!(events[0].get("op").unwrap().as_str(), Some("map"));
    assert_eq!(events[0].get("outcome").unwrap().as_str(), Some("ok"));
    assert_eq!(events[0].get("kind").unwrap().as_str(), Some("first"));
    assert_eq!(events[1].get("kind").unwrap().as_str(), Some("repeat"));
    assert!(events[0].get("latency_us").unwrap().as_num().unwrap() > 0.0);
    assert!(events[0]
        .get("phases")
        .unwrap()
        .get("label_us")
        .is_some());
    assert_eq!(events[2].get("outcome").unwrap().as_str(), Some("bad_request"));
    let _ = std::fs::remove_file(&log_path);
}

#[cfg(unix)]
#[test]
fn tail_sampling_keeps_bounded_valid_traces() {
    let tail_dir = std::env::temp_dir().join(format!(
        "dagmap-serve-test-{}-tail",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&tail_dir);
    let keep = 3;
    let config = ServeConfig {
        // Two workers on every host: the reply/telemetry ordering this
        // test pins is a cross-thread race even on one CPU.
        workers: 2,
        tail: Some(dagmap_serve::TailConfig {
            dir: tail_dir.clone(),
            // quantile <= 0 keeps every trace: deterministic for the test
            // and useful for short captures.
            quantile: 0.0,
            keep,
        }),
        ..ServeConfig::default()
    };
    let (server, endpoint) = start_unix("tail", &config);
    let mut client = Client::connect(&endpoint).unwrap();
    let net = dagmap_benchgen::ripple_adder(4);
    let input = blif::to_string(&net).unwrap();
    let oneshot = one_shot_blif(&input, &Library::lib2_like());
    for i in 0..6 {
        let id = format!("t{i}");
        let reply = client
            .call(&map_request(
                &input,
                &MapCall {
                    id: Some(&id),
                    ..MapCall::default()
                },
            ))
            .unwrap();
        assert_eq!(reply.get("error"), None, "{reply:?}");
        // Tail tracing on: output still byte-identical, and no trace in
        // the reply (the client did not ask for one).
        assert_eq!(reply.get("blif").unwrap().as_str().unwrap(), oneshot);
        assert_eq!(reply.get("trace"), None);
    }
    let exposition = client.metrics().unwrap();
    let samples = dagmap_serve::dash::parse_exposition(&exposition).unwrap();
    assert_eq!(
        dagmap_serve::dash::find(&samples, "dagmap_tail_traces_kept_total", &[]),
        Some(6.0),
        "quantile 0 keeps every trace"
    );
    client.shutdown().unwrap();
    server.wait().unwrap();

    // The on-disk ring is bounded to `keep`, and every kept file is a
    // valid Chrome trace.
    let mut files: Vec<_> = std::fs::read_dir(&tail_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), keep, "ring bounded to {keep}: {files:?}");
    for f in &files {
        let text = std::fs::read_to_string(f).unwrap();
        dagmap_obs::trace::validate_chrome(&text)
            .unwrap_or_else(|e| panic!("{}: invalid chrome trace: {e}", f.display()));
    }
    let _ = std::fs::remove_dir_all(&tail_dir);
}

#[cfg(unix)]
#[test]
fn unix_socket_file_is_removed_even_without_wait() {
    let path = unique_socket_path("guard");
    let endpoints = Endpoints {
        tcp: None,
        unix: Some(path.clone()),
    };
    let server = Server::start(
        &ServeConfig::default(),
        vec![Library::lib2_like()],
        &endpoints,
    )
    .unwrap();
    assert!(path.exists(), "socket file exists while running");
    server.request_shutdown();
    // Dropping the server without the graceful wait() — as a panicking
    // caller would — must still remove the socket file (RAII guard).
    drop(server);
    assert!(!path.exists(), "socket file removed on drop");
}
