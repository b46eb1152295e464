//! End-to-end loopback test: a real TCP server on an ephemeral port,
//! concurrent clients, and byte-level equivalence against direct
//! in-process `BatchQuality` calls.
//!
//! Every served answer, quality score and probe recommendation must match
//! what the same sequence of engine calls produces in process (tolerance
//! 1e-12 on floats; in practice the wire round-trip is bit-exact because
//! the vendored serde_json prints shortest-round-trip floats and the
//! server runs the identical code path on the identical database).

use pdb_clean::{best_single_probe, CleaningContext, CleaningSetup};
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_quality::{BatchQuality, WeightedQuery};
use pdb_server::{Client, ClientError, DatasetSpec, Server, ServerConfig, MAX_LINE};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

const TOL: f64 = 1e-12;

/// Boot a server on an ephemeral loopback port.
fn boot(threads: usize) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr().expect("bound address");
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// The query set each worker registers (distinct `k`, all three
/// semantics, non-uniform weights).
fn query_specs(k_base: usize) -> Vec<(TopKQuery, f64)> {
    vec![
        (TopKQuery::PTk { k: k_base, threshold: 0.1 }, 1.0),
        (TopKQuery::UKRanks { k: k_base + 2 }, 0.5),
        (TopKQuery::GlobalTopk { k: 2 * k_base }, 2.0),
    ]
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= TOL, "{what}: served {a} vs direct {b}");
}

fn assert_all_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_close(*x, *y, &format!("{what}[{i}]"));
    }
}

/// One worker's full session: register → evaluate → probe → re-evaluate,
/// mirrored step for step by an in-process `BatchQuality` on the same
/// (deterministically generated) database.
fn exercise_session(addr: SocketAddr, worker: usize) {
    let tuples = 400 + 100 * worker; // distinct database per worker
    let k_base = 3 + worker;
    let spec = DatasetSpec::Synthetic { tuples };
    let mut client = Client::connect(addr).expect("connect");

    let created = client.create_session(spec.clone(), 1, 0.8).expect("create_session");
    assert_eq!(created.tuples, tuples);

    // In-process mirror of the same session.
    let db = pdb_gen::spec::build_dataset(&spec).expect("mirror dataset");
    assert_eq!(db.len(), tuples);
    let specs: Vec<WeightedQuery> =
        query_specs(k_base).into_iter().map(|(q, w)| WeightedQuery::weighted(q, w)).collect();
    let mut mirror = BatchQuality::from_owned(db, specs.clone()).expect("mirror batch");

    for (i, (query, weight)) in query_specs(k_base).into_iter().enumerate() {
        let registered =
            client.register_query(created.session, query, weight).expect("register_query");
        assert_eq!(registered.index, i);
    }

    // --- evaluate + quality, pre-probe -------------------------------
    let answers = client.evaluate(created.session).expect("evaluate");
    assert_eq!(answers.answers, mirror.answers().expect("mirror answers"));

    let report = client.quality(created.session).expect("quality");
    assert_all_close(&report.qualities, &mirror.quality_vector(), "pre-probe qualities");
    assert_close(report.aggregate, mirror.aggregate_quality(), "pre-probe aggregate");
    assert_all_close(&report.g, &mirror.aggregate_breakdown(), "pre-probe g");

    // --- probe recommendation ----------------------------------------
    let advice = client.recommend_probe(created.session).expect("recommend_probe");
    let setup = CleaningSetup::uniform(mirror.database().num_x_tuples(), 1, 0.8).unwrap();
    let direct = best_single_probe(&CleaningContext::from_batch(&mirror), &setup);
    match (advice.recommendation, direct) {
        (Some(served), Some((l, gain))) => {
            assert_eq!(served.x_tuple, l, "recommended x-tuple");
            assert_close(served.expected_gain, gain, "recommended gain");
        }
        (None, None) => {}
        (served, direct) => panic!("served {served:?} but direct says {direct:?}"),
    }

    // --- apply the recommended probe (delta path) --------------------
    let l = advice.recommendation.expect("synthetic data is uncertain").x_tuple;
    let keep_pos = mirror.database().x_tuple(l).members[0];
    let mutation = XTupleMutation::CollapseToAlternative { keep_pos };
    let applied =
        client.apply_mutation(created.session, l, mutation.clone()).expect("apply_mutation");
    let direct_update = mirror.apply_collapse_in_place(l, &mutation).expect("mirror collapse");
    assert_eq!(applied.update.stats, direct_update.stats, "delta statistics");
    assert_all_close(&applied.update.qualities, &direct_update.qualities, "post-probe qualities");
    assert_close(applied.update.aggregate, direct_update.aggregate, "post-probe aggregate");
    assert_close(
        applied.update.aggregate_delta,
        direct_update.aggregate_delta,
        "post-probe aggregate delta",
    );
    assert_all_close(&applied.update.g, &direct_update.g, "post-probe g");

    // --- re-evaluate on the mutated session --------------------------
    let answers = client.evaluate(created.session).expect("re-evaluate");
    assert_eq!(answers.answers, mirror.answers().expect("mirror re-answers"));
    let report = client.quality(created.session).expect("re-quality");
    assert_all_close(&report.qualities, &mirror.quality_vector(), "post-probe qualities");

    client.drop_session(created.session).expect("drop_session");
}

#[test]
fn concurrent_sessions_match_direct_engine_calls() {
    // Two request slots for four workers: their requests take turns.
    let (addr, handle) = boot(2);

    let workers: Vec<thread::JoinHandle<()>> =
        (0..4).map(|worker| thread::spawn(move || exercise_session(addr, worker))).collect();
    for worker in workers {
        worker.join().expect("worker session matched the direct engine");
    }

    // All sessions were dropped; the counters saw all of them.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions_live, 0);
    assert_eq!(stats.sessions_created, 4);
    assert_eq!(stats.probes_applied, 4);
    assert!(stats.requests_served >= 4 * 8);
    assert_eq!(stats.shards, 1, "one server is one shard process");

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

/// One request line on a raw socket (below the typed `Client`), and its
/// reply line.
fn raw_call(raw: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    raw.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply
}

#[test]
fn rebuild_mode_agrees_with_the_delta_path() {
    let (addr, handle) = boot(1);
    let mut client = Client::connect(addr).unwrap();
    let query = TopKQuery::PTk { k: 2, threshold: 0.4 };
    let session = client.create_session(DatasetSpec::Udb1, 1, 0.8).unwrap().session;
    client.register_query(session, query, 1.0).unwrap();
    let mutation = XTupleMutation::CollapseToAlternative { keep_pos: 2 };
    let delta = client.apply_mutation(session, 2, mutation).unwrap();
    // A fresh in-process evaluation of the mutated database is the oracle
    // for the delta patch (1e-9: different summation orders legitimately
    // differ in round-off).
    let mut db = pdb_gen::spec::build_dataset(&DatasetSpec::Udb1).unwrap();
    db.collapse_x_tuple_in_place(2, 2).unwrap();
    let rebuild = BatchQuality::from_owned(db, vec![WeightedQuery::new(query)]).unwrap();
    assert!((delta.update.aggregate - rebuild.aggregate_quality()).abs() < 1e-9);
    assert!((delta.update.aggregate - (-1.85)).abs() < 0.005, "udb1 → udb2 quality");

    // `"rebuild"` is not a wire mode: an error reply, and the connection
    // stays open.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let line = format!(
        "{{\"apply_mutation\": {{\"session\": {session}, \"x_tuple\": 0, \
         \"mutation\": \"Remove\", \"mode\": \"rebuild\"}}}}\n"
    );
    let reply = raw_call(&mut raw, &mut reader, &line);
    assert!(reply.starts_with("{\"error\":") && reply.contains("evaluation mode"), "{reply:?}");
    let reply = raw_call(&mut raw, &mut reader, "\"stats\"\n");
    assert!(reply.starts_with("{\"stats\":"), "{reply:?}");
    assert_eq!(client.quality(session).unwrap().g.len(), 4, "the removal was not applied");

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn the_apply_probe_verb_still_answers_like_apply_mutation() {
    let (addr, handle) = boot(1);
    let mut client = Client::connect(addr).unwrap();
    let mk = |client: &mut Client| {
        let session = client.create_session(DatasetSpec::Udb1, 1, 0.8).unwrap().session;
        client.register_query(session, TopKQuery::PTk { k: 2, threshold: 0.4 }, 1.0).unwrap();
        session
    };
    let (a, b) = (mk(&mut client), mk(&mut client));
    let typed =
        client.apply_mutation(a, 2, XTupleMutation::CollapseToAlternative { keep_pos: 2 }).unwrap();
    // No typed client sends `apply_probe`; a raw line still gets the
    // identical update on the twin session.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let line = format!(
        "{{\"apply_probe\": {{\"session\": {b}, \"x_tuple\": 2, \
         \"mutation\": {{\"CollapseToAlternative\": {{\"keep_pos\": 2}}}}, \"mode\": \"delta\"}}}}\n"
    );
    let reply = raw_call(&mut raw, &mut reader, &line);
    match pdb_server::protocol::decode_response(reply.trim_end()).unwrap() {
        pdb_server::Response::ProbeApplied(applied) => {
            assert_eq!(applied.session, b);
            assert_eq!(applied.update, typed.update);
        }
        other => panic!("expected probe_applied, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn an_unallocatable_k_is_an_error_reply_and_the_session_keeps_serving() {
    let (addr, handle) = boot(1);
    let mut client = Client::connect(addr).unwrap();
    let session = client.create_session(DatasetSpec::Udb1, 1, 0.8).unwrap().session;
    client.register_query(session, TopKQuery::PTk { k: 2, threshold: 0.4 }, 1.0).unwrap();
    // 7 · k · 8 bytes exceeds isize::MAX (and 7 · (2^63 − 1) overflows
    // usize): both are rejected before any allocation is attempted.
    for k in [1usize << 60, i64::MAX as usize] {
        let err = client.register_query(session, TopKQuery::UKRanks { k }, 1.0).unwrap_err();
        assert!(err.to_string().contains("cannot be allocated"), "k = {k}: {err}");
    }
    // The same session still serves its one registered query.
    let answers = client.evaluate(session).unwrap();
    assert_eq!(answers.answers.len(), 1);
    assert_eq!(answers.answers[0].len(), 3); // PT-2 = {t1, t2, t5}

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn errors_come_back_as_error_replies_not_disconnects() {
    let (addr, handle) = boot(1);

    // Unparseable bytes on a raw socket (below the typed Client, which
    // validates requests before sending): the server must answer with an
    // error reply and keep the connection open.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut raw_reader = BufReader::new(raw.try_clone().unwrap());
    let mut reply = String::new();
    for bad in ["not json\n", "{\"evaluate\": {}, \"quality\": {}}\n", "{\"bogus\": {}}\n"] {
        raw.write_all(bad.as_bytes()).unwrap();
        reply.clear();
        raw_reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("{\"error\":"), "for {bad:?} got {reply:?}");
    }
    // The same raw connection still serves well-formed requests.
    raw.write_all(b"\"stats\"\n").unwrap();
    reply.clear();
    raw_reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("{\"stats\":"), "{reply:?}");
    drop((raw, raw_reader));

    let mut client = Client::connect(addr).unwrap();

    // Unknown session: a typed error, not a disconnect.
    let err = client.evaluate(999).unwrap_err();
    assert!(err.to_string().contains("unknown session"), "{err}");
    let err = client
        .call(&pdb_server::Request::Evaluate(pdb_server::protocol::SessionRef { session: 999 }))
        .unwrap();
    assert!(matches!(err, pdb_server::Response::Error(_)));

    // The same connection still works.
    let created = client.create_session(DatasetSpec::Udb1, 1, 0.8).unwrap();
    assert_eq!(created.tuples, 7);

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn a_deeply_nested_line_is_an_error_reply_and_the_session_keeps_serving() {
    let (addr, handle) = boot(1);
    let mut client = Client::connect(addr).unwrap();
    let session = client.create_session(DatasetSpec::Udb1, 1, 0.8).unwrap().session;
    client.register_query(session, TopKQuery::PTk { k: 2, threshold: 0.4 }, 1.0).unwrap();

    // 10,000 nested arrays in a 10 KB line: the parser's recursion limit
    // turns it into an error instead of overflowing the connection
    // thread's stack.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let line = format!("{{\"evaluate\": {}\n", "[".repeat(10_000));
    let reply = raw_call(&mut raw, &mut reader, &line);
    assert!(reply.starts_with("{\"error\":") && reply.contains("recursion limit"), "{reply:?}");
    // The same connection, and the session, keep serving.
    let reply =
        raw_call(&mut raw, &mut reader, &format!("{{\"evaluate\": {{\"session\": {session}}}}}\n"));
    assert!(reply.starts_with("{\"answers\":"), "{reply:?}");
    assert_eq!(client.evaluate(session).unwrap().answers[0].len(), 3); // PT-2 = {t1, t2, t5}

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn a_line_reaching_the_cap_without_a_newline_gets_one_error_reply_then_eof() {
    let (addr, handle) = boot(1);
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    // Exactly the cap and no newline: the server reads every byte before
    // it refuses the line, so its close leaves nothing unread to turn
    // into a reset ahead of the reply.
    let chunk = vec![b'x'; 1 << 16];
    for _ in 0..MAX_LINE / chunk.len() {
        raw.write_all(&chunk).unwrap();
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("{\"error\":") && reply.contains("exceeds 16777216 bytes"),
        "{reply:?}"
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "expected EOF, read {rest:?}");

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().threads, 1);
    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn a_reply_reaching_the_cap_without_a_newline_is_a_protocol_error() {
    // A stand-in server.  Its first connection answers with exactly the
    // cap and no newline, its second with a line that is not UTF-8; each
    // then hangs up.  A client that read past the cap would read on to
    // the hang-up and call the reply cut short.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        for reply in [vec![b'x'; MAX_LINE], b"{\"error\":\"\xff\"}\n".to_vec()] {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).unwrap();
            stream.write_all(&reply).unwrap();
        }
    });
    let protocol_error = |reply| match reply {
        Err(ClientError::Protocol(msg)) => msg,
        other => panic!("expected a protocol error, got {other:?}"),
    };
    let mut client = Client::connect(addr).unwrap();
    let msg = protocol_error(client.call_line("\"stats\""));
    assert_eq!(msg, "reply line exceeds 16777216 bytes");
    drop(client);
    let mut client = Client::connect(addr).unwrap();
    let msg = protocol_error(client.call_line("\"stats\""));
    assert!(msg.contains("not UTF-8"), "{msg}");
    drop(client);
    server.join().unwrap();
}

#[test]
fn a_pinned_session_id_without_a_successor_is_an_error_reply() {
    // A panicking handler would end the connection, and the next call
    // on it would fail.
    let (addr, handle) = boot(1);
    let mut client = Client::connect(addr).unwrap();
    let pinned = pdb_server::protocol::CreateSession {
        dataset: DatasetSpec::Udb1,
        probe_cost: 1,
        probe_success: 0.8,
        session: Some(u64::MAX),
    };
    match client.call(&pdb_server::Request::CreateSession(pinned)).unwrap() {
        pdb_server::Response::Error(reply) => {
            assert!(reply.message.contains("reserved"), "{}", reply.message)
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    // The same connection keeps serving, and the allocator did not move.
    assert_eq!(client.create_session(DatasetSpec::Udb1, 1, 0.8).unwrap().session, 1);

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn an_oversized_generated_dataset_is_an_error_reply() {
    // Building either would exhaust the server's memory and abort it.
    let (addr, handle) = boot(1);
    let mut client = Client::connect(addr).unwrap();
    for dataset in
        [DatasetSpec::Synthetic { tuples: 1 << 40 }, DatasetSpec::Mov { x_tuples: 1 << 40 }]
    {
        match client.create_session(dataset, 1, 0.8) {
            Err(pdb_server::ClientError::Server(message)) => {
                assert!(message.contains("the limit is"), "{message}")
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
    // The same connection keeps serving.
    assert_eq!(client.create_session(DatasetSpec::Udb1, 1, 0.8).unwrap().tuples, 7);

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn shutdown_drains_even_with_an_idle_persistent_connection() {
    let (addr, handle) = boot(1);

    // A client that connects and then never sends anything: its thread is
    // parked in a blocking read when shutdown arrives.
    let idle = Client::connect(addr).unwrap();

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();

    // run() must return promptly despite the idle connection; join through
    // a channel so a regression fails the test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || tx.send(handle.join().expect("server thread")));
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("server drained despite the idle connection")
        .expect("clean shutdown");
    drop(idle);
}

#[test]
fn an_idle_client_does_not_keep_a_one_thread_server_from_another_client() {
    let (addr, handle) = boot(1);
    // Served once and then idle: it keeps its connection, and no request
    // slot.
    let mut idle = Client::connect(addr).unwrap();
    idle.stats().unwrap();

    let other = TcpStream::connect(addr).unwrap();
    other.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(other.try_clone().unwrap());
    writeln!(&other, "\"stats\"").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("stats within 5 s while another client sits idle");
    assert!(reply.starts_with("{\"stats\":"), "{reply:?}");

    idle.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");
}
