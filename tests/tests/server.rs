//! End-to-end tests of the HTTP serving front end over real sockets.
//!
//! Each test boots a [`sprint_server::Server`] on an ephemeral
//! loopback port and talks to it with the vendored [`minihttp`]
//! client — the exact path production traffic takes.

use sprint_engine::{Engine, ModelProfile, ModelRequest, ModelServer, SprintConfig};
use sprint_server::{Json, Server, ServerConfig};
use sprint_workloads::ModelConfig;
use std::time::Duration;

fn small_engine(seed: u64) -> Engine {
    Engine::builder(SprintConfig::small())
        .seed(seed)
        .build()
        .expect("engine builds")
}

fn boot(config: ServerConfig) -> Server {
    Server::start(small_engine(7), config).expect("server binds an ephemeral port")
}

fn client(server: &Server) -> minihttp::Client {
    minihttp::Client::connect(server.local_addr().to_string())
        .with_read_timeout(Some(Duration::from_secs(60)))
}

#[test]
fn health_and_metrics_respond() {
    let server = boot(ServerConfig::default());
    let mut client = client(&server);

    let health = client.get("/health").expect("health responds");
    assert_eq!(health.status, 200);
    let body = Json::parse(&health.body_str()).expect("health body is JSON");
    assert_eq!(body.str_field("status"), Some("ok"));

    let metrics = client.get("/metrics").expect("metrics responds");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    for family in [
        "sprint_requests_admitted_total",
        "sprint_requests_rejected_total",
        "sprint_queue_depth",
        "sprint_request_latency_ms{quantile=\"0.99\"}",
        "sprint_fault_cells_detected_total",
        "sprint_heads_demoted_total",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }

    let missing = client.get("/nope").expect("unknown route responds");
    assert_eq!(missing.status, 404);
    server.shutdown();
}

#[test]
fn serve_over_http_is_bit_identical_to_direct_calls() {
    let server = boot(ServerConfig::default());
    let mut client = client(&server);
    let response = client
        .post_json(
            "/v1/serve",
            r#"{"model":"vit_base","layers":1,"heads":2,"seq_len":32,"seed":11}"#,
        )
        .expect("serve responds");
    assert_eq!(response.status, 200, "{}", response.body_str());
    let body = Json::parse(&response.body_str()).expect("serve body is JSON");
    server.shutdown();

    // The same pass, in process, on an identically-seeded engine.
    let direct_server = ModelServer::new(small_engine(7));
    let profile = ModelProfile::from_model(&ModelConfig::vit_base())
        .with_layers(1)
        .with_heads(2)
        .with_seq_len(32);
    let direct = direct_server
        .serve(&ModelRequest::new(profile).with_seed(11))
        .expect("direct serve succeeds");

    let total = body.get("total").expect("response carries a rollup");
    assert_eq!(body.str_field("model"), Some(direct.model.as_str()));
    assert_eq!(total.u64_field("heads"), Some(direct.total.heads));
    assert_eq!(total.u64_field("cycles"), Some(direct.total.cycles));
    assert_eq!(
        total.u64_field("kept_scores"),
        Some(direct.total.kept_scores)
    );
    assert_eq!(
        total.u64_field("bytes_fetched"),
        Some(direct.total.bytes_fetched)
    );
    // Floats render shortest-round-trip, so JSON equality is
    // bit-identity for the energy total too.
    let energy = total.get("energy_pj").and_then(Json::as_f64).unwrap();
    assert_eq!(
        energy.to_bits(),
        direct.total.energy.total().as_pj().to_bits(),
        "energy over HTTP must be bit-identical to the direct call"
    );
}

#[test]
fn decode_sessions_match_direct_sessions_step_for_step() {
    let server = boot(ServerConfig::default());
    let mut client = client(&server);
    let open = client
        .post_json(
            "/v1/decode",
            r#"{"action":"open","model":"bert_base","seq_len":24,"prefill":16,"seed":9}"#,
        )
        .expect("open responds");
    assert_eq!(open.status, 200, "{}", open.body_str());
    let open_body = Json::parse(&open.body_str()).unwrap();
    let session = open_body.u64_field("session").expect("session id");
    assert_eq!(open_body.u64_field("position"), Some(16));

    // Direct twin: same model, seed and prefill on an equal engine.
    let engine = small_engine(7);
    let mut spec = ModelConfig::bert_base().trace_spec().with_seq_len(24);
    spec.padding_fraction = 0.0;
    let trace = sprint_workloads::TraceGenerator::new(9)
        .generate(&spec)
        .unwrap();
    let prefill_k = trace.k().prefix_rows(16).unwrap();
    let prefill_v = trace.v().prefix_rows(16).unwrap();
    let request = sprint_engine::SessionRequest::new(
        &prefill_k,
        &prefill_v,
        trace.config(),
        trace.threshold(),
    )
    .with_head_id(9);
    let mut direct = engine.open_session(&request).unwrap();

    for t in 16..24 {
        let step = client
            .post_json(
                "/v1/decode",
                &format!(r#"{{"action":"step","session":{session}}}"#),
            )
            .expect("step responds");
        assert_eq!(step.status, 200, "{}", step.body_str());
        let step_body = Json::parse(&step.body_str()).unwrap();
        let expected = direct
            .step(&sprint_engine::DecodeStep {
                q: trace.q().row(t),
                k: trace.k().row(t),
                v: trace.v().row(t),
            })
            .unwrap();
        assert_eq!(
            step_body.u64_field("position"),
            Some(expected.position as u64)
        );
        assert_eq!(
            step_body.u64_field("kept"),
            Some(expected.decision.kept_count() as u64)
        );
        let output = match step_body.get("output") {
            Some(Json::Arr(values)) => values,
            other => panic!("output should be an array, got {other:?}"),
        };
        assert_eq!(output.len(), expected.output.len());
        for (got, want) in output.iter().zip(&expected.output) {
            let got = got.as_f64().expect("output values are numbers");
            assert_eq!(
                got.to_bits(),
                f64::from(*want).to_bits(),
                "decode output rows must match bit for bit"
            );
        }
    }

    // The stream is exhausted; another step must 409, and close
    // reports the session totals.
    let exhausted = client
        .post_json(
            "/v1/decode",
            &format!(r#"{{"action":"step","session":{session}}}"#),
        )
        .unwrap();
    assert_eq!(exhausted.status, 409);
    let close = client
        .post_json(
            "/v1/decode",
            &format!(r#"{{"action":"close","session":{session}}}"#),
        )
        .unwrap();
    assert_eq!(close.status, 200);
    let close_body = Json::parse(&close.body_str()).unwrap();
    assert_eq!(close_body.u64_field("tokens"), Some(8));
    server.shutdown();
}

#[test]
fn resident_cap_evicts_and_rehydrates_sessions_transparently() {
    // Four concurrent decode streams over a cap of two resident
    // sessions: every step beyond the cap forces an LRU eviction, and
    // stepping an evicted session rehydrates it behind the same URL.
    // The tracked stream must stay bit-identical to a direct in-process
    // twin the whole time (under the ideal noise model — rehydration
    // reprograms crossbars, so analog noise would re-draw there).
    let engine = Engine::builder(SprintConfig::small())
        .seed(7)
        .noise(sprint_reram::NoiseModel::ideal())
        .kv_pool(sprint_attention::PagePool::unbounded(640))
        .build()
        .unwrap();
    let server = Server::start(
        engine,
        ServerConfig {
            max_resident_sessions: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let mut client = client(&server);

    let mut ids = Vec::new();
    for seed in [11u64, 12, 13, 14] {
        let open = client
            .post_json(
                "/v1/decode",
                &format!(
                    r#"{{"action":"open","model":"bert_base","seq_len":24,"prefill":16,"seed":{seed}}}"#
                ),
            )
            .expect("open responds");
        assert_eq!(open.status, 200, "{}", open.body_str());
        ids.push(
            Json::parse(&open.body_str())
                .unwrap()
                .u64_field("session")
                .unwrap(),
        );
    }

    // Direct twin of the first stream (seed 11, head id 11), stepped in
    // lockstep with the HTTP session.
    let twin_engine = Engine::builder(SprintConfig::small())
        .seed(7)
        .noise(sprint_reram::NoiseModel::ideal())
        .build()
        .unwrap();
    let mut spec = ModelConfig::bert_base().trace_spec().with_seq_len(24);
    spec.padding_fraction = 0.0;
    let trace = sprint_workloads::TraceGenerator::new(11)
        .generate(&spec)
        .unwrap();
    let prefill_k = trace.k().prefix_rows(16).unwrap();
    let prefill_v = trace.v().prefix_rows(16).unwrap();
    let mut twin = twin_engine
        .open_session(
            &sprint_engine::SessionRequest::new(
                &prefill_k,
                &prefill_v,
                trace.config(),
                trace.threshold(),
            )
            .with_head_id(11),
        )
        .unwrap();

    for t in 16..24 {
        for (i, id) in ids.iter().enumerate() {
            let step = client
                .post_json(
                    "/v1/decode",
                    &format!(r#"{{"action":"step","session":{id}}}"#),
                )
                .expect("step responds");
            assert_eq!(
                step.status,
                200,
                "session {i} step {t}: {}",
                step.body_str()
            );
            if i == 0 {
                let expected = twin
                    .step(&sprint_engine::DecodeStep {
                        q: trace.q().row(t),
                        k: trace.k().row(t),
                        v: trace.v().row(t),
                    })
                    .unwrap();
                let step_body = Json::parse(&step.body_str()).unwrap();
                let output = match step_body.get("output") {
                    Some(Json::Arr(values)) => values,
                    other => panic!("output should be an array, got {other:?}"),
                };
                assert_eq!(output.len(), expected.output.len());
                for (got, want) in output.iter().zip(&expected.output) {
                    let got = got.as_f64().expect("output values are numbers");
                    assert_eq!(
                        got.to_bits(),
                        f64::from(*want).to_bits(),
                        "step {t}: rehydrated stream diverged from the direct twin"
                    );
                }
            }
        }
    }

    let mut evictions = 0u64;
    let mut rehydrations = 0u64;
    for id in &ids {
        let close = client
            .post_json(
                "/v1/decode",
                &format!(r#"{{"action":"close","session":{id}}}"#),
            )
            .unwrap();
        assert_eq!(close.status, 200);
        let body = Json::parse(&close.body_str()).unwrap();
        assert_eq!(body.u64_field("tokens"), Some(8));
        evictions += body.u64_field("evictions").unwrap();
        rehydrations += body.u64_field("rehydrations").unwrap();
    }
    assert!(
        evictions > 0 && rehydrations > 0,
        "4 round-robin streams over a cap of 2 must churn \
         (evictions {evictions}, rehydrations {rehydrations})"
    );

    let metrics = client.get("/metrics").unwrap().body_str();
    let sample = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in:\n{metrics}"))
    };
    assert_eq!(sample("sprint_sessions_evicted_total"), evictions);
    assert_eq!(sample("sprint_sessions_rehydrated_total"), rehydrations);
    assert_eq!(sample("sprint_kv_pages_in_use"), 0, "all sessions closed");
    assert_eq!(sample("sprint_kv_pages_capacity"), 0, "pool is unbounded");
    server.shutdown();
}

#[test]
fn pool_exhaustion_409s_only_when_nothing_is_evictable() {
    // An 8-page pool at one token per page: sessions that fit keep
    // being served by evicting colder ones; only a request that cannot
    // fit even in an empty pool is refused, with 409 + Retry-After.
    let engine = Engine::builder(SprintConfig::small())
        .seed(7)
        .kv_pool(sprint_attention::PagePool::bounded(640, 8))
        .build()
        .unwrap();
    let server = Server::start(engine, ServerConfig::default()).expect("server binds");
    let mut client = client(&server);
    let open = |client: &mut minihttp::Client, seq: usize, prefill: usize, seed: u64| {
        client
            .post_json(
                "/v1/decode",
                &format!(
                    r#"{{"action":"open","model":"bert_base","seq_len":{seq},"prefill":{prefill},"seed":{seed}}}"#
                ),
            )
            .expect("open responds")
    };

    // Two 4-page prefills fill the pool exactly; the third open must
    // evict one of them rather than fail.
    let a = open(&mut client, 8, 4, 1);
    assert_eq!(a.status, 200, "{}", a.body_str());
    let a = Json::parse(&a.body_str())
        .unwrap()
        .u64_field("session")
        .unwrap();
    assert_eq!(open(&mut client, 8, 4, 2).status, 200);
    let c = open(&mut client, 8, 4, 3);
    assert_eq!(
        c.status,
        200,
        "a full pool with evictable sessions must make room: {}",
        c.body_str()
    );

    // A 16-token prefill exceeds the 8-page pool outright: even after
    // evicting everything there is no room, so this — and only this —
    // is refused.
    let refused = open(&mut client, 24, 16, 4);
    assert_eq!(refused.status, 409, "{}", refused.body_str());
    assert!(
        refused.header("Retry-After").is_some(),
        "pool-exhausted 409 must carry Retry-After"
    );

    // Session A was evicted above; stepping it rehydrates and serves.
    for _ in 4..8 {
        let step = client
            .post_json(
                "/v1/decode",
                &format!(r#"{{"action":"step","session":{a}}}"#),
            )
            .expect("step responds");
        assert_eq!(step.status, 200, "{}", step.body_str());
    }
    let close = client
        .post_json(
            "/v1/decode",
            &format!(r#"{{"action":"close","session":{a}}}"#),
        )
        .unwrap();
    assert_eq!(close.status, 200);
    let body = Json::parse(&close.body_str()).unwrap();
    assert_eq!(body.u64_field("tokens"), Some(4));
    assert!(
        body.u64_field("rehydrations").unwrap() >= 1,
        "session A must have been rebuilt after its eviction"
    );
    server.shutdown();
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    // One slow batch at a time (50 ms service delay), one-deep queues:
    // concurrent clients beyond ~3 in flight must see 429s.
    let server = boot(ServerConfig {
        http_threads: 10,
        max_batch: 1,
        queue_per_tenant: 1,
        queue_global: 1,
        service_delay: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut client =
                minihttp::Client::connect(addr).with_read_timeout(Some(Duration::from_secs(60)));
            let mut statuses = Vec::new();
            for _ in 0..3 {
                let response = client
                    .post_json(
                        "/v1/serve",
                        r#"{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":3}"#,
                    )
                    .expect("serve responds even when shedding");
                if response.status == 429 {
                    assert!(
                        response.header("Retry-After").is_some(),
                        "429 must carry Retry-After"
                    );
                }
                statuses.push(response.status);
            }
            statuses
        }));
    }
    let statuses: Vec<u16> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let served = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    assert!(
        served > 0,
        "some requests must still be served: {statuses:?}"
    );
    assert!(
        shed > 0,
        "queues of one must shed 24 rushed requests: {statuses:?}"
    );
    assert_eq!(served + shed, statuses.len(), "only 200/429: {statuses:?}");

    // The metrics exposition reflects the shed.
    let mut client = minihttp::Client::connect(addr);
    let metrics = client.get("/metrics").unwrap().body_str();
    let rejected: u64 = metrics
        .lines()
        .find(|l| l.starts_with("sprint_requests_rejected_total "))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .expect("rejected counter present");
    assert!(rejected >= shed as u64);
    server.shutdown();
}

#[test]
fn fresh_tenant_names_are_served_fairly_and_leave_the_queue_empty() {
    // The tenant name is the client's to choose: 200 distinct
    // `X-Tenant` values over four connections all get the same 200
    // and the admission queue keeps nothing of them afterwards.
    let server = boot(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let body = r#"{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":3}"#;
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = minihttp::Client::connect(addr)
                    .with_read_timeout(Some(Duration::from_secs(60)));
                (0..50)
                    .map(|i| {
                        let tenant = format!("tenant-{c}-{i}");
                        let response = client
                            .send(
                                "POST",
                                "/v1/serve",
                                &[("X-Tenant", tenant.as_str())],
                                body.as_bytes(),
                            )
                            .expect("serve responds");
                        (response.status, response.body_str())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let replies: Vec<(u16, String)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(replies.len(), 200);
    let mut default_tenant = client(&server);
    let reference = default_tenant.post_json("/v1/serve", body).unwrap();
    for (status, reply) in &replies {
        assert_eq!(*status, 200, "{reply}");
        assert_eq!(*reply, reference.body_str(), "a tenant name changes no bit");
    }
    let metrics = default_tenant.get("/metrics").unwrap().body_str();
    for line in [
        "sprint_queue_depth 0",
        "sprint_requests_admitted_total 201",
        "sprint_requests_rejected_total 0",
    ] {
        assert!(metrics.lines().any(|l| l == line), "{line}:\n{metrics}");
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    // A request enters the (slow) batcher; shutdown must wait for it.
    let server = boot(ServerConfig {
        service_delay: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let in_flight = std::thread::spawn(move || {
        let mut client =
            minihttp::Client::connect(addr).with_read_timeout(Some(Duration::from_secs(60)));
        client
            .post_json(
                "/v1/serve",
                r#"{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":3}"#,
            )
            .expect("in-flight request survives the shutdown")
    });
    // Let the request get admitted before shutting down.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    let response = in_flight.join().expect("client thread");
    assert_eq!(
        response.status,
        200,
        "admitted work must complete during drain: {}",
        response.body_str()
    );
}

#[test]
fn draining_server_refuses_new_work_with_503() {
    let server = boot(ServerConfig {
        service_delay: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    // Park one request so the shutdown has something to drain.
    let parked = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client =
                minihttp::Client::connect(addr).with_read_timeout(Some(Duration::from_secs(60)));
            client
                .post_json(
                    "/v1/serve",
                    r#"{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":3}"#,
                )
                .expect("parked request completes")
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    // Shut down concurrently; probe while the drain is in progress.
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(50));
    let mut probe =
        minihttp::Client::connect(addr).with_read_timeout(Some(Duration::from_secs(10)));
    if let Ok(response) = probe.post_json(
        "/v1/serve",
        r#"{"model":"synth1","layers":1,"heads":1,"seq_len":16,"seed":3}"#,
    ) {
        // Either the probe raced in before the close (200) or it was
        // refused while draining (503 + Retry-After); it must never
        // hang or crash the server.
        assert!(
            response.status == 503 || response.status == 200,
            "draining server answered {}",
            response.status
        );
        if response.status == 503 {
            assert!(response.header("Retry-After").is_some());
        }
    }
    assert_eq!(parked.join().expect("parked thread").status, 200);
    shutdown.join().expect("shutdown completes");
}

#[test]
fn malformed_bodies_get_400_not_a_hang() {
    let server = boot(ServerConfig::default());
    let mut client = client(&server);
    // Well inside the body limit; unbounded parser recursion over it
    // overflowed the handler's stack and aborted the whole process.
    let deep = "[".repeat(100_000);
    for (path, body, needle) in [
        ("/v1/serve", deep.as_str(), "nesting"),
        ("/v1/decode", deep.as_str(), "nesting"),
        ("/v1/serve", "{not json", "invalid JSON"),
        ("/v1/serve", r#"{"model":"unknown_model"}"#, "unknown model"),
        ("/v1/serve", r#"{}"#, "missing 'model'"),
        (
            "/v1/serve",
            r#"{"model":"synth1","seq_len":1000000}"#,
            "'seq_len'",
        ),
        ("/v1/serve", r#"{"model":"synth1","heads":65}"#, "'heads'"),
        // A zero-sized grid is the client's mistake too: admitted, it
        // failed its whole engine batch and came back 500.
        ("/v1/serve", r#"{"model":"vit_base","heads":0}"#, "'heads'"),
        (
            "/v1/serve",
            r#"{"model":"vit_base","layers":0}"#,
            "'layers'",
        ),
        (
            "/v1/serve",
            r#"{"model":"vit_base","seq_len":0}"#,
            "'seq_len'",
        ),
        // A decode open answers the same mistakes the same way instead
        // of silently falling back to its defaults.
        (
            "/v1/decode",
            r#"{"action":"open","model":"bert_base","seq_len":"x"}"#,
            "'seq_len'",
        ),
        (
            "/v1/decode",
            r#"{"action":"open","model":"bert_base","prefill":-1}"#,
            "'prefill'",
        ),
        (
            "/v1/decode",
            r#"{"action":"open","model":"bert_base","seed":"abc"}"#,
            "'seed'",
        ),
        (
            "/v1/decode",
            r#"{"action":"open","model":"bert_base","seq_len":1000000}"#,
            "'seq_len'",
        ),
        ("/v1/decode", r#"{"action":"open"}"#, "missing 'model'"),
    ] {
        let shown = &body[..body.len().min(80)];
        let response = client.post_json(path, body).expect("error responds");
        assert_eq!(response.status, 400, "{shown}");
        assert!(
            response.body_str().contains(needle),
            "{shown}: {}",
            response.body_str()
        );
    }
    let health = client.get("/health").expect("the server survived");
    assert_eq!(health.status, 200);
    let metrics = client.get("/metrics").unwrap().body_str();
    assert!(
        metrics.contains("\nsprint_requests_admitted_total 0\n"),
        "a refused body is never admitted:\n{metrics}"
    );
    let response = client
        .post_json("/v1/decode", r#"{"action":"step","session":999}"#)
        .unwrap();
    assert_eq!(response.status, 404, "unknown session");
    server.shutdown();
}
