//! The fleet's line-delimited JSON-RPC-style admin plane.
//!
//! One request per line, one response per line, in order:
//!
//! ```text
//! → {"id":1,"method":"spawn","params":{"name":"alice"}}
//! ← {"id":1,"result":{"tenant":1,"name":"alice"}}
//! → {"id":2,"method":"stats"}
//! ← {"id":2,"result":{"tenants":1,...}}
//! ```
//!
//! Errors use JSON-RPC's shape and code conventions (`-32700` parse,
//! including nesting deeper than [`rpc::MAX_DEPTH`],
//! `-32600` invalid request, including a line longer than
//! [`FleetAdmin::MAX_REQUEST_BYTES`], `-32601` unknown method, `-32602`
//! invalid params, `-32000` fleet errors):
//!
//! ```text
//! ← {"id":3,"error":{"code":-32000,"message":"no tenant with id 9"}}
//! ```

use crate::rpc::{self, obj, ParseError, ParseErrorKind, Value};
use crate::{Fleet, FleetError, TenantSpec};

/// Drives a [`Fleet`] from newline-delimited JSON requests — the
/// transport-agnostic core of an admin socket. See the module docs for
/// the wire format and
/// [`handle_line`](FleetAdmin::handle_line) for the method set.
#[derive(Debug)]
pub struct FleetAdmin {
    fleet: Fleet,
}

const PARSE_ERROR: i64 = -32700;
const INVALID_REQUEST: i64 = -32600;
const METHOD_NOT_FOUND: i64 = -32601;
const INVALID_PARAMS: i64 = -32602;
const FLEET_ERROR: i64 = -32000;

/// An in-flight failure: code + message, rendered into the response.
struct Failure(i64, String);

impl From<FleetError> for Failure {
    fn from(e: FleetError) -> Self {
        Failure(FLEET_ERROR, e.to_string())
    }
}

fn invalid_params(message: &str) -> Failure {
    Failure(INVALID_PARAMS, message.to_string())
}

impl FleetAdmin {
    /// Longest request line accepted, in bytes.
    pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

    /// Wraps a fleet.
    pub fn new(fleet: Fleet) -> Self {
        Self { fleet }
    }

    /// The fleet, for reads alongside the admin plane.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Direct mutable fleet access (e.g. to drive tenant workloads
    /// between admin calls).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// Unwraps the fleet.
    pub fn into_inner(self) -> Fleet {
        self.fleet
    }

    /// Handles every line of `input` in order, returning one response
    /// line per non-blank request line.
    pub fn serve(&mut self, input: &str) -> String {
        let mut out = String::new();
        for line in input.lines().filter(|l| !l.trim().is_empty()) {
            out.push_str(&self.handle_line(line));
            out.push('\n');
        }
        out
    }

    /// Handles one request line and returns its response line.
    ///
    /// Methods:
    ///
    /// | method    | params                                   | result |
    /// |-----------|------------------------------------------|--------|
    /// | `spawn`   | `name?`, `shadow_budget?`, `pipelined?`, `quiet?` | `{tenant, name}` |
    /// | `suspend` | `tenant` (id or name)                    | `{suspended}` |
    /// | `resume`  | `tenant`                                 | `{resumed}` |
    /// | `despawn` | `tenant`                                 | `{despawned, enqueued, processed, degraded}` |
    /// | `restore` | `tenant`                                 | `{tenant, reports: [...]}` |
    /// | `audit`   | `tenant`                                 | `{tenant, detections: [...]}` |
    /// | `stats`   | —                                        | fleet-wide [`FleetStats`](crate::FleetStats) fields |
    /// | `list`    | —                                        | `{tenants: [{id, name, ...}]}` |
    pub fn handle_line(&mut self, line: &str) -> String {
        let parsed = if line.len() > Self::MAX_REQUEST_BYTES {
            Err(ParseError {
                at: Self::MAX_REQUEST_BYTES,
                kind: ParseErrorKind::TooLong,
                message: "request line too long",
            })
        } else {
            rpc::parse(line)
        };
        let (id, outcome) = match parsed {
            Err(e) if e.kind == ParseErrorKind::TooLong => (
                Value::Null,
                Err(Failure(INVALID_REQUEST, format!("invalid request: {e}"))),
            ),
            Err(e) => (
                Value::Null,
                Err(Failure(PARSE_ERROR, format!("parse error: {e}"))),
            ),
            Ok(req) => {
                let id = req.get("id").cloned().unwrap_or(Value::Null);
                let outcome = match req.get("method").and_then(Value::as_str) {
                    None => Err(Failure(
                        INVALID_REQUEST,
                        "request needs a string \"method\"".to_string(),
                    )),
                    Some(method) => {
                        let params = req.get("params").cloned().unwrap_or(Value::Obj(Vec::new()));
                        self.dispatch(method, &params)
                    }
                };
                (id, outcome)
            }
        };
        let body = match outcome {
            Ok(result) => obj(vec![("id", id), ("result", result)]),
            Err(Failure(code, message)) => obj(vec![
                ("id", id),
                (
                    "error",
                    obj(vec![
                        ("code", Value::Num(code as f64)),
                        ("message", Value::Str(message)),
                    ]),
                ),
            ]),
        };
        body.render()
    }

    fn dispatch(&mut self, method: &str, params: &Value) -> Result<Value, Failure> {
        match method {
            "spawn" => self.spawn(params),
            "suspend" => {
                let id = self.tenant_param(params)?;
                self.fleet.suspend(id)?;
                Ok(obj(vec![("suspended", id.into())]))
            }
            "resume" => {
                let id = self.tenant_param(params)?;
                self.fleet.resume(id)?;
                Ok(obj(vec![("resumed", id.into())]))
            }
            "despawn" => {
                let id = self.tenant_param(params)?;
                let stats = self.fleet.despawn(id)?;
                Ok(obj(vec![
                    ("despawned", id.into()),
                    ("enqueued", stats.enqueued.into()),
                    ("processed", stats.processed.into()),
                    ("degraded", stats.degraded.into()),
                ]))
            }
            "restore" => {
                let id = self.tenant_param(params)?;
                let reports = self.fleet.restore(id)?;
                let rendered = reports
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("family", r.family.0.into()),
                            ("files_restored", r.files_restored.into()),
                            ("files_removed", r.files_removed.into()),
                            ("renames_undone", r.renames_undone.into()),
                            ("conflicts", r.conflicts.len().into()),
                        ])
                    })
                    .collect();
                Ok(obj(vec![
                    ("tenant", id.into()),
                    ("reports", Value::Arr(rendered)),
                ]))
            }
            "audit" => {
                let id = self.tenant_param(params)?;
                let t = self
                    .fleet
                    .get(id)
                    .ok_or(FleetError::UnknownTenant(id))?;
                let detections = t
                    .session()
                    .detections()
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("pid", d.pid.0.into()),
                            ("process", d.process_name.as_str().into()),
                            ("score", u64::from(d.score).into()),
                            ("threshold", u64::from(d.threshold).into()),
                            ("union", d.union_triggered.into()),
                            ("files_lost", u64::from(d.files_lost).into()),
                        ])
                    })
                    .collect();
                Ok(obj(vec![
                    ("tenant", id.into()),
                    ("detections", Value::Arr(detections)),
                ]))
            }
            "stats" => {
                let s = self.fleet.stats();
                Ok(obj(vec![
                    ("tenants", s.tenants.into()),
                    ("suspended", s.suspended.into()),
                    ("spawned", s.spawned.into()),
                    ("despawned", s.despawned.into()),
                    ("corpus_bytes", s.corpus_bytes.into()),
                    ("corpus_files", s.corpus_files.into()),
                    ("private_bytes", s.private_bytes.into()),
                    ("shared_logical_bytes", s.shared_logical_bytes.into()),
                    ("detections", s.detections.into()),
                ]))
            }
            "list" => {
                let tenants = self
                    .fleet
                    .tenants()
                    .map(|t| {
                        obj(vec![
                            ("id", t.id().into()),
                            ("name", t.name().into()),
                            ("suspended", t.is_suspended().into()),
                            ("files", t.fs().file_count().into()),
                            ("private_bytes", t.fs().private_bytes().into()),
                        ])
                    })
                    .collect();
                Ok(obj(vec![("tenants", Value::Arr(tenants))]))
            }
            other => Err(Failure(
                METHOD_NOT_FOUND,
                format!("unknown method {other:?}"),
            )),
        }
    }

    fn spawn(&mut self, params: &Value) -> Result<Value, Failure> {
        let mut spec = TenantSpec::default();
        if let Some(name) = params.get("name") {
            spec.name = name
                .as_str()
                .ok_or_else(|| invalid_params("\"name\" must be a string"))?
                .to_string();
        }
        if let Some(budget) = params.get("shadow_budget") {
            let budget = budget
                .as_u64()
                .filter(|b| *b > 0)
                .ok_or_else(|| invalid_params("\"shadow_budget\" must be a positive integer"))?;
            spec = spec.shadow_budget(budget);
        }
        if let Some(piped) = params.get("pipelined") {
            if piped
                .as_bool()
                .ok_or_else(|| invalid_params("\"pipelined\" must be a boolean"))?
            {
                spec = spec.pipelined(Default::default());
            }
        }
        if let Some(quiet) = params.get("quiet") {
            spec.quiet = quiet
                .as_bool()
                .ok_or_else(|| invalid_params("\"quiet\" must be a boolean"))?;
        }
        let id = self.fleet.spawn(spec)?;
        let name = self
            .fleet
            .get(id)
            .map(|t| t.name().to_string())
            .unwrap_or_default();
        Ok(obj(vec![("tenant", id.into()), ("name", name.into())]))
    }

    /// Resolves `params.tenant` — a numeric id or a name string.
    fn tenant_param(&self, params: &Value) -> Result<u32, Failure> {
        let v = params
            .get("tenant")
            .ok_or_else(|| invalid_params("missing \"tenant\" param"))?;
        if let Some(n) = v.as_u64() {
            return u32::try_from(n)
                .map_err(|_| invalid_params("\"tenant\" id out of range"));
        }
        if let Some(name) = v.as_str() {
            return self
                .fleet
                .id_of(name)
                .ok_or_else(|| FleetError::UnknownName(name.to_string()).into());
        }
        Err(invalid_params("\"tenant\" must be an id or a name"))
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Num(f64::from(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;
    use cryptodrop_vfs::{OpenOptions, VPath};

    fn admin_with_corpus() -> FleetAdmin {
        let mut fleet = Fleet::new(FleetConfig::protecting("/docs"));
        for i in 0..25 {
            let body: Vec<u8> = (0..40u32)
                .flat_map(|l| format!("file {i} line {l}: steady prose content\n").into_bytes())
                .collect();
            fleet.stage_file(VPath::new(format!("/docs/doc-{i}.txt")), body);
        }
        FleetAdmin::new(fleet)
    }

    fn result(response: &str) -> Value {
        let v = rpc::parse(response).expect("response is valid JSON");
        v.get("result").cloned().unwrap_or_else(|| {
            panic!("expected a result, got {response}");
        })
    }

    #[test]
    fn spawn_stats_list_round_trip() {
        let mut admin = admin_with_corpus();
        let r = result(&admin.handle_line(
            r#"{"id":1,"method":"spawn","params":{"name":"alice","shadow_budget":1048576}}"#,
        ));
        assert_eq!(r.get("tenant").and_then(Value::as_u64), Some(1));
        assert_eq!(r.get("name").and_then(Value::as_str), Some("alice"));

        let r = result(&admin.handle_line(r#"{"id":2,"method":"spawn"}"#));
        assert_eq!(r.get("name").and_then(Value::as_str), Some("tenant-2"));

        let r = result(&admin.handle_line(r#"{"id":3,"method":"stats"}"#));
        assert_eq!(r.get("tenants").and_then(Value::as_u64), Some(2));
        assert!(r.get("corpus_bytes").and_then(Value::as_u64).unwrap() > 0);
        assert_eq!(r.get("private_bytes").and_then(Value::as_u64), Some(0));

        let r = result(&admin.handle_line(r#"{"id":4,"method":"list"}"#));
        let Value::Arr(tenants) = r.get("tenants").unwrap() else {
            panic!("tenants must be an array");
        };
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].get("name").and_then(Value::as_str), Some("alice"));
    }

    #[test]
    fn attack_audit_restore_through_the_plane() {
        let mut admin = admin_with_corpus();
        admin.handle_line(r#"{"id":1,"method":"spawn","params":{"name":"victim"}}"#);

        // Drive a ransomware-shaped workload directly on the tenant fs.
        let t = admin.fleet_mut().get_mut(1).unwrap();
        let pid = t.fs_mut().spawn_process("evil.exe");
        for i in 0..25 {
            let path = VPath::new(format!("/docs/doc-{i}.txt"));
            let Ok(h) = t.fs_mut().open(pid, &path, OpenOptions::modify()) else {
                break;
            };
            let Ok(data) = t.fs_mut().read_to_end(pid, h) else {
                break;
            };
            let ct: Vec<u8> = data.iter().map(|b| b ^ 0xA5).collect();
            if t.fs_mut().seek(pid, h, 0).is_err() || t.fs_mut().write(pid, h, &ct).is_err() {
                let _ = t.fs_mut().close(pid, h);
                break;
            }
            if t.fs_mut().close(pid, h).is_err() {
                break;
            }
        }

        let r = result(&admin.handle_line(r#"{"id":2,"method":"audit","params":{"tenant":"victim"}}"#));
        let Value::Arr(detections) = r.get("detections").unwrap() else {
            panic!("detections must be an array");
        };
        assert_eq!(detections.len(), 1, "the attack was detected");
        assert_eq!(
            detections[0].get("process").and_then(Value::as_str),
            Some("evil.exe")
        );

        let r = result(&admin.handle_line(r#"{"id":3,"method":"restore","params":{"tenant":1}}"#));
        let Value::Arr(reports) = r.get("reports").unwrap() else {
            panic!("reports must be an array");
        };
        assert_eq!(reports.len(), 1);
        assert!(reports[0].get("files_restored").and_then(Value::as_u64).unwrap() > 0);
    }

    #[test]
    fn lifecycle_and_error_codes() {
        let mut admin = admin_with_corpus();
        let responses = admin.serve(concat!(
            r#"{"id":1,"method":"spawn","params":{"name":"a"}}"#,
            "\n",
            r#"{"id":2,"method":"suspend","params":{"tenant":1}}"#,
            "\n",
            r#"{"id":3,"method":"resume","params":{"tenant":"a"}}"#,
            "\n",
            r#"{"id":4,"method":"despawn","params":{"tenant":1}}"#,
            "\n",
            r#"{"id":5,"method":"despawn","params":{"tenant":1}}"#,
            "\n",
            r#"{"id":6,"method":"frobnicate"}"#,
            "\n",
            r#"{"id":7,"method":"suspend"}"#,
            "\n",
            "not json",
        ));
        let lines: Vec<Value> = responses.lines().map(|l| rpc::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 8, "one response per request line");
        for (i, expected_id) in (1..=7u64).enumerate() {
            assert_eq!(lines[i].get("id").and_then(Value::as_u64), Some(expected_id));
        }
        assert!(lines[1].get("result").is_some());
        assert!(lines[2].get("result").is_some());
        assert!(lines[3].get("result").is_some());
        let code = |v: &Value| v.get("error").and_then(|e| e.get("code")).cloned();
        assert_eq!(code(&lines[4]), Some(Value::Num(-32000.0)), "unknown tenant");
        assert_eq!(code(&lines[5]), Some(Value::Num(-32601.0)), "unknown method");
        assert_eq!(code(&lines[6]), Some(Value::Num(-32602.0)), "missing param");
        assert_eq!(code(&lines[7]), Some(Value::Num(-32700.0)), "parse error");
        assert_eq!(lines[7].get("id"), Some(&Value::Null));
    }

    #[test]
    fn hostile_request_lines_fail_without_crashing() {
        let mut admin = admin_with_corpus();
        let code = |line: &str| {
            let v = rpc::parse(line).expect("responses stay valid JSON");
            assert_eq!(v.get("id"), Some(&Value::Null));
            v.get("error").and_then(|e| e.get("code")).cloned()
        };
        // A megabyte of `[`: over the length limit.
        let flood = "[".repeat(1 << 20);
        assert_eq!(code(&admin.handle_line(&flood)), Some(Value::Num(-32600.0)));
        // Within the length limit but nested too deep.
        let deep = "[".repeat(FleetAdmin::MAX_REQUEST_BYTES);
        assert_eq!(code(&admin.handle_line(&deep)), Some(Value::Num(-32700.0)));
        // An over-length line that would otherwise be a valid request.
        let padded = format!(
            r#"{{"id":1,"method":"stats","pad":"{}"}}"#,
            "x".repeat(FleetAdmin::MAX_REQUEST_BYTES)
        );
        assert_eq!(code(&admin.handle_line(&padded)), Some(Value::Num(-32600.0)));
        // A high surrogate followed by a non-low escape.
        let unpaired = r#"{"id":1,"method":"\uD800\u0041"}"#;
        assert_eq!(code(&admin.handle_line(unpaired)), Some(Value::Num(-32700.0)));
        // The plane keeps serving afterwards.
        let r = result(&admin.handle_line(r#"{"id":2,"method":"stats"}"#));
        assert_eq!(r.get("tenants").and_then(Value::as_u64), Some(0));
    }
}
