//! The fleet router relays shard replies byte for byte: the `evaluate`
//! and `quality` reply lines a client reads through `pdb fleet serve`
//! equal, byte for byte, the lines the owning shard writes to a client
//! connected straight to it.
//!
//! The fleet runs two shards with `--threads 1`: the router's connection
//! to a shard holds no request slot while it is idle, so the one slot
//! also serves the direct connection.

mod common;

use common::{Conn, Pdb};
use std::time::Duration;

/// Sessions the test opens; the ring spreads them over both shards.
const SESSIONS: u64 = 6;

/// How long one request may wait for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn routed_evaluate_and_quality_lines_equal_the_owning_shards_lines() {
    let fleet =
        Pdb::spawn(&["fleet", "serve", "--addr", "127.0.0.1:0", "--shards", "2", "--threads", "1"]);
    let mut router = Conn::connect(&fleet.addr, REPLY_TIMEOUT);
    for session in 1..=SESSIONS {
        let tuples = 300 * session;
        let created = router.call(&format!(
            "{{\"create_session\": {{\"dataset\": {{\"Synthetic\": {{\"tuples\": {tuples}}}}}, \
             \"probe_cost\": 1, \"probe_success\": 0.8}}}}"
        ));
        assert!(created.starts_with(&format!("{{\"session_created\":{{\"session\":{session},")));
        for query in [r#"{"PTk": {"k": 15, "threshold": 0.1}}"#, r#"{"UKRanks": {"k": 5}}"#] {
            let registered = router.call(&format!(
                "{{\"register_query\": {{\"session\": {session}, \"query\": {query}, \
                 \"weight\": 1.0}}}}"
            ));
            assert!(registered.starts_with("{\"query_registered\":"), "{registered}");
        }
    }

    let mut shards: Vec<Conn> =
        fleet.shard_addrs.iter().map(|addr| Conn::connect(addr, REPLY_TIMEOUT)).collect();
    let mut owned = vec![0; shards.len()];
    for session in 1..=SESSIONS {
        for verb in ["evaluate", "quality"] {
            let line = format!("{{\"{verb}\": {{\"session\": {session}}}}}");
            let routed = router.call(&line);
            assert!(!routed.starts_with("{\"error\":"), "{routed}");
            let direct: Vec<String> = shards.iter_mut().map(|shard| shard.call(&line)).collect();
            let owners: Vec<usize> =
                (0..direct.len()).filter(|&i| !direct[i].starts_with("{\"error\":")).collect();
            assert_eq!(owners.len(), 1, "session {session} lives on one shard: {direct:?}");
            assert_eq!(routed, direct[owners[0]], "{verb} of session {session}");
            owned[owners[0]] += 1;
        }
    }
    assert!(owned.iter().all(|&n| n > 0), "every shard owns a session: {owned:?}");

    // `stats` is still merged across both shards.
    let stats = router.call("\"stats\"");
    assert!(stats.contains("\"shards\":2,\"threads\":2,"), "{stats}");

    drop(shards);
    fleet.shut_down(&mut router);
}
