//! Fuzzes the admin plane: whatever line arrives, `FleetAdmin::handle_line`
//! answers with one well-formed JSON-RPC response and keeps serving.
//!
//! Three input families: arbitrary bytes (decoded as lossy UTF-8), token
//! soup drawn from a fixed table of JSON fragments, and request-shaped
//! lines that reach the dispatch table with parameters of every type.

use cryptodrop_fleet::rpc::{self, Value};
use cryptodrop_fleet::{Fleet, FleetAdmin, FleetConfig};
use cryptodrop_vfs::VPath;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// JSON fragments, valid and not: structure, quotes, `\u` escapes
/// (surrogates, lone and paired, included), numbers, literals, and the
/// request keys.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", " ", "\\u", "\\uD83D", "\\uDE00", "\\uD800",
    "\\uDC00", "\\u0041", "\\uE000", "\\uZZ", "\\n", "é", "0", "1", "-1", "1.5", "-", "1e999",
    "4294967296", "9007199254740993", "null", "true", "false", "tru", "\"id\"", "\"method\"",
    "\"params\"", "\"tenant\"", "\"name\"", "\"shadow_budget\"", "\"pipelined\"", "\"quiet\"",
];

/// How a soup line starts: bare, inside a string, or inside a request's
/// string fields, so the escapes reach the string decoder.
const OPENERS: &[&str] = &[
    "",
    "\"",
    "{\"id\":1,\"method\":\"",
    "{\"id\":1,\"method\":\"spawn\",\"params\":{\"name\":\"",
];

/// Every dispatch-table method, plus one the table does not have.
const METHODS: &[&str] = &[
    "spawn", "suspend", "resume", "despawn", "restore", "audit", "stats", "list", "frobnicate",
];

/// Parameter names the methods read.
const PARAMS: &[&str] = &["tenant", "name", "shadow_budget", "pipelined", "quiet"];

/// Parameter values of every JSON type, right and wrong for each name.
const VALUES: &[&str] = &[
    "1", "2", "0", "-1", "1.5", "4294967296", "1e999", "\"alice\"", "\"tenant-1\"", "\"\"",
    "true", "false", "null", "[]", "[1]", "{}", "{\"tenant\":1}",
];

fn pick(table: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..table.len()).prop_map(move |i| table[i])
}

fn admin() -> FleetAdmin {
    let mut fleet = Fleet::new(FleetConfig::protecting("/docs"));
    for i in 0..3 {
        fleet.stage_file(
            VPath::new(format!("/docs/doc-{i}.txt")),
            format!("document {i}: plain prose").into_bytes(),
        );
    }
    FleetAdmin::new(fleet)
}

/// Answers every line, checks each response's shape, then checks that the
/// plane still answers `stats`.
fn serve_all(lines: &[String]) -> Result<(), TestCaseError> {
    let mut admin = admin();
    for line in lines {
        let response = admin.handle_line(line);
        let v = rpc::parse(&response)
            .map_err(|e| TestCaseError::fail(format!("{line:?} → unparsable {response:?}: {e}")))?;
        prop_assert!(v.get("id").is_some(), "{line:?} → no id: {response}");
        prop_assert!(
            v.get("result").is_some() != v.get("error").is_some(),
            "{line:?} → needs exactly one of result/error: {response}"
        );
        if let Some(err) = v.get("error") {
            prop_assert!(matches!(err.get("code"), Some(Value::Num(_))), "{response}");
            prop_assert!(err.get("message").and_then(Value::as_str).is_some(), "{response}");
        }
    }
    let stats = rpc::parse(&admin.handle_line(r#"{"id":0,"method":"stats"}"#))
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert!(stats.get("result").is_some(), "stats after fuzzing: {stats:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    #[test]
    fn arbitrary_bytes_get_a_well_formed_answer(
        lines in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..160), 1..6),
    ) {
        let lines: Vec<String> =
            lines.iter().map(|b| String::from_utf8_lossy(b).into_owned()).collect();
        serve_all(&lines)?;
    }

    #[test]
    fn token_soup_gets_a_well_formed_answer(
        lines in proptest::collection::vec(
            (pick(OPENERS), proptest::collection::vec(pick(TOKENS), 0..24)),
            1..6,
        ),
    ) {
        let lines: Vec<String> =
            lines.iter().map(|(opener, soup)| format!("{opener}{}", soup.concat())).collect();
        serve_all(&lines)?;
    }

    #[test]
    fn requests_with_any_param_types_get_a_well_formed_answer(
        requests in proptest::collection::vec(
            (
                pick(VALUES),
                pick(METHODS),
                proptest::collection::vec((pick(PARAMS), pick(VALUES)), 0..4),
            ),
            1..8,
        ),
    ) {
        let lines: Vec<String> = requests
            .iter()
            .map(|(id, method, params)| {
                let params: Vec<String> =
                    params.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
                format!(
                    "{{\"id\":{id},\"method\":\"{method}\",\"params\":{{{}}}}}",
                    params.join(",")
                )
            })
            .collect();
        serve_all(&lines)?;
    }
}
