//! Runs every workload at smoke size through the library entry point and
//! checks it against `BENCHMARK.json`: every listed metric is emitted
//! with its unit and nothing else is, the correctness checks hold, and
//! the traced span tree is well formed.

use cdbench::trace::{layer, LAYERS, NO_PARENT};
use cdbench::{run, Options, Report, Scale, Workload};

/// Just enough JSON to read `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    Scalar,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after the JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i] as char);
            self.i += 1;
        }
        self.i += 1;
        out
    }

    fn list<T>(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut out = Vec::new();
        if self.peek() == close {
            self.i += 1;
            return out;
        }
        loop {
            out.push(item(self));
            if self.peek() == b',' {
                self.i += 1;
            } else {
                self.eat(close);
                return out;
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.i += 1;
                Json::Obj(self.list(b'}', |p| {
                    let k = p.string();
                    p.eat(b':');
                    (k, p.value())
                }))
            }
            b'[' => {
                self.i += 1;
                Json::Arr(self.list(b']', Self::value))
            }
            b'"' => Json::Str(self.string()),
            _ => {
                while self.i < self.s.len() && !b",]}".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Scalar
            }
        }
    }
}

/// (name, unit) of every metric `BENCHMARK.json` lists under `key`, sorted.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let json = Json::parse(&text);
    let mut out: Vec<_> = json
        .get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    let mut out: Vec<_> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    out.sort();
    out
}

fn smoke(workload: Workload, trace: bool) -> cdbench::Run {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::smoke(),
    })
}

fn assert_sound(workload: Workload, report: &Report) {
    let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
    assert!(
        failed.is_empty(),
        "{}: failed checks {failed:?}",
        workload.name()
    );
    assert!(report.attempted >= 1, "{}: no requests", workload.name());
    assert_eq!(report.failed, 0, "{}: failed requests", workload.name());
    for m in &report.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
}

#[test]
fn workload_names_match_the_benchmark_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let names: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
}

#[test]
fn untraced_runs_emit_exactly_the_end_to_end_metrics_and_pass_their_checks() {
    let expected = listed("end_to_end");
    for workload in Workload::ALL {
        let run = smoke(workload, false);
        assert_sound(workload, &run.report);
        assert_eq!(emitted(&run.report), expected, "{}", workload.name());
        assert!(run.tracer.is_none());
    }
}

#[test]
fn traced_runs_emit_exactly_the_per_layer_metrics_over_a_well_formed_span_tree() {
    let expected = listed("per_layer");
    for workload in Workload::ALL {
        let run = smoke(workload, true);
        assert_sound(workload, &run.report);
        assert_eq!(emitted(&run.report), expected, "{}", workload.name());
        let tracer = run.tracer.expect("a traced run returns its spans");
        let spans = tracer.spans();
        assert!(!spans.is_empty(), "{}: no spans", workload.name());
        let mut last_request = None;
        for (i, s) in spans.iter().enumerate() {
            let name = LAYERS[s.layer as usize];
            assert!(s.start_ns <= s.end_ns, "{name} ends before it starts");
            if s.parent == NO_PARENT {
                assert!(
                    [layer::REQUEST, layer::RESTORE, layer::DRAIN].contains(&s.layer),
                    "{}: root span {name}",
                    workload.name()
                );
                if s.layer == layer::REQUEST {
                    assert!(last_request < Some(s.request), "request ids increase");
                    last_request = Some(s.request);
                }
                continue;
            }
            let parent = &spans[s.parent as usize];
            assert!((s.parent as usize) < i, "a parent opens before its child");
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{name} lies outside its parent {}",
                LAYERS[parent.layer as usize]
            );
            assert_eq!(s.request, parent.request, "{name} changes request id");
        }
    }
}
