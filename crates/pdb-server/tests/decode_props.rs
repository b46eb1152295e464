//! `protocol::decode_request` never panics: random strings and
//! byte-mutated valid request lines decode to `Ok` or `Err`, never a
//! panic.  A request line is the first thing the server (and the fleet
//! router) does with client bytes, so no input may abort it.

use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_server::protocol::{self, ApplyMutation, CreateSession, RegisterQuery, SessionRef};
use pdb_server::{DatasetSpec, Request};
use proptest::prelude::*;

/// One valid line per verb, with nested payloads where the verb has them.
fn valid_lines() -> Vec<String> {
    let session = SessionRef { session: 7 };
    let apply = ApplyMutation::new(
        7,
        2,
        XTupleMutation::Insert {
            key: "s9".to_string(),
            alternatives: vec![(28.5, 0.5), (23.0, 0.25)],
        },
    );
    let requests = [
        Request::CreateSession(CreateSession {
            dataset: DatasetSpec::Inline { x_tuples: vec![vec![(21.0, 0.6), (32.0, 0.4)]] },
            probe_cost: 1,
            probe_success: 0.8,
            session: Some(3),
        }),
        Request::RegisterQuery(RegisterQuery {
            session: 7,
            query: TopKQuery::PTk { k: 2, threshold: 0.4 },
            weight: 1.5,
        }),
        Request::Evaluate(session),
        Request::Quality(session),
        Request::RecommendProbe(session),
        Request::ApplyMutation(apply.clone()),
        Request::ApplyProbe(ApplyMutation::new(
            7,
            2,
            XTupleMutation::Reweight { probs: vec![0.25, 0.5] },
        )),
        Request::DropSession(session),
        Request::Persist(session),
        Request::CreateSession(CreateSession {
            dataset: DatasetSpec::Snapshot { path: "snapshot-7-1.pdbs".to_string() },
            probe_cost: 2,
            probe_success: 0.5,
            session: None,
        }),
        Request::Stats,
        Request::Metrics,
        Request::Shutdown,
    ];
    requests.iter().map(|r| protocol::encode(r).expect("encode")).collect()
}

/// Bytes that steer random input into the parser's interesting states.
const JSON_BYTES: &[u8] = b"{}[]\":,.-+0123456789eE \\/u\ntrufalsn";

/// Decode `line`, turning a panic into a property failure that names the
/// input.
fn decodes_without_panic(line: &str) -> Result<(), TestCaseError> {
    let owned = line.to_string();
    let outcome = std::panic::catch_unwind(move || protocol::decode_request(&owned).is_ok());
    prop_assert!(outcome.is_ok(), "decode_request panicked on {line:?}");
    Ok(())
}

#[test]
fn the_seed_lines_are_valid_requests() {
    for line in valid_lines() {
        assert!(protocol::decode_request(&line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, mostly JSON punctuation, read as a lossy string.
    #[test]
    fn random_strings_never_panic(
        picks in prop::collection::vec((any::<bool>(), any::<u8>()), 0..256),
    ) {
        let bytes: Vec<u8> = picks
            .iter()
            .map(|&(json, b)| if json { JSON_BYTES[b as usize % JSON_BYTES.len()] } else { b })
            .collect();
        decodes_without_panic(&String::from_utf8_lossy(&bytes))?;
    }

    /// A valid line with a few bytes replaced, inserted or deleted.
    #[test]
    fn mutated_valid_lines_never_panic(
        which in any::<prop::sample::Index>(),
        edits in prop::collection::vec(
            (0u8..3, any::<prop::sample::Index>(), any::<u8>()),
            1..8,
        ),
    ) {
        let lines = valid_lines();
        let mut bytes = lines[which.index(lines.len())].clone().into_bytes();
        for (kind, at, b) in edits {
            let at = at.index(bytes.len() + 1);
            let b = JSON_BYTES[b as usize % JSON_BYTES.len()];
            match kind {
                0 if at < bytes.len() => bytes[at] = b,
                1 => bytes.insert(at, b),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.push(b),
            }
        }
        decodes_without_panic(&String::from_utf8_lossy(&bytes))?;
    }
}
