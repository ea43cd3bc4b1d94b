//! The benchmark's contract: what `BENCHMARK.json` names is exactly what
//! the binaries emit, every workload passes its checks in a short run,
//! and the deterministic counts repeat and match the recorded values.

use std::collections::BTreeMap;
use std::process::Command;

use benchmark::workloads::{Bench, Counts};
use benchmark::{Workload, END_TO_END, PER_LAYER};

/// A parsed JSON value (just enough of JSON for these documents).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing text after JSON");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key `{key}`")),
            _ => panic!("not an object looking up `{key}`"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.b[self.i], c, "expected `{}` at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key `{k}`");
                    self.ws();
                    self.i += 1;
                    match self.b[self.i - 1] {
                        b',' => {}
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected `{}` in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.b[self.i - 1] {
                        b',' => {}
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected `{}` in array", c as char),
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                let end = start
                    + self.b[start..]
                        .iter()
                        .position(|&c| c == b'"')
                        .expect("closed string");
                let s = std::str::from_utf8(&self.b[start..end]).expect("utf-8");
                assert!(!s.contains('\\'), "escapes are not used in these documents");
                self.i = end + 1;
                Json::Str(s.to_string())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.b[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number `{s}`")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn names_units(section: &Json) -> Vec<(String, String)> {
    section
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_exactly_what_the_binaries_emit() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(names_units(doc.get("end_to_end")), table(END_TO_END));
    assert_eq!(names_units(doc.get("per_layer")), table(PER_LAYER));
    let setup = doc
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    let bounds: Vec<f64> = doc
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| m.get("bound").num())
        .collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    assert_eq!(
        setup.get("bound").num(),
        bounds.iter().copied().fold(0.0, f64::max)
    );
}

#[test]
fn names_use_only_the_allowed_characters() {
    let all = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .chain(Workload::ALL.iter().map(|w| w.name()));
    for name in all {
        assert!(valid_name(name), "bad name `{name}`");
    }
}

/// Runs the benchmark binary for about a second and parses its result.
fn smoke(w: Workload, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", w.name(), "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{} failed:\n{stdout}\n{}",
        w.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line"))
}

fn check_smoke(w: Workload, trace: bool, want: &[(&str, &str)]) {
    let r = smoke(w, trace);
    assert_eq!(r.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(r.get("correct"), &Json::Bool(true), "{}", w.name());
    assert_eq!(r.get("failed").num(), 0.0);
    assert!(r.get("attempted").num() >= 1.0);
    let metrics = r.get("metrics");
    let mut names = metrics.keys();
    let mut expected: Vec<&str> = want.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    expected.sort_unstable();
    assert_eq!(names, expected, "{}: emitted metrics", w.name());
    for (name, unit) in want {
        let m = metrics.get(name);
        assert_eq!(m.get("unit").str(), *unit);
        if !trace {
            assert!(m.get("value").num() > 0.0, "{}: {name} is 0", w.name());
        }
    }
}

#[test]
fn smoke_vocoder_arch() {
    check_smoke(Workload::VocoderArch, false, END_TO_END);
    check_smoke(Workload::VocoderArch, true, PER_LAYER);
}

#[test]
fn smoke_vocoder_split_bus() {
    check_smoke(Workload::VocoderSplitBus, false, END_TO_END);
    check_smoke(Workload::VocoderSplitBus, true, PER_LAYER);
}

#[test]
fn smoke_taskset64() {
    check_smoke(Workload::TaskSet64, false, END_TO_END);
    check_smoke(Workload::TaskSet64, true, PER_LAYER);
}

#[test]
fn smoke_vocoder_iss() {
    check_smoke(Workload::VocoderIss, false, END_TO_END);
    check_smoke(Workload::VocoderIss, true, PER_LAYER);
}

/// Two requests on the same input (requests `i` and `i + inputs`).
fn twice(w: Workload, seed: u64) -> (Bench, Counts) {
    let mut bench = Bench::setup(w, seed).expect("set-up passes its warm-up");
    let n = bench.inputs.len() as u64;
    let a = bench.request(1 % n).expect("first request passes");
    let b = bench.request(1 % n + n).expect("second request passes");
    assert_eq!(a.counts, b.counts, "{}: counts repeat exactly", w.name());
    (bench, a.counts)
}

#[test]
fn vocoder_arch_counts_and_delay_error_match_the_record() {
    for seed in [1, 2] {
        let (bench, c) = twice(Workload::VocoderArch, seed);
        assert_eq!(c.resumes, 15_326);
        assert_eq!(c.os_switches, 1_634);
        assert_eq!(c.rtos_switches, 1_306);
        assert_eq!(c.dispatches, 1_469);
        let err = bench
            .delay_err_pct(&c)
            .expect("vocoder_arch has an ISS reference");
        assert!((err - 6.82).abs() <= 0.01, "delay error {err} %");
    }
}

#[test]
fn vocoder_split_bus_counts_match_the_record() {
    let (_, c) = twice(Workload::VocoderSplitBus, 1);
    assert_eq!((c.bus_transactions, c.bus_contended), (640, 240));
    assert_eq!(c.os_switches, 4_328);
}

#[test]
fn vocoder_iss_counts_match_the_record() {
    let (_, c) = twice(Workload::VocoderIss, 1);
    assert_eq!(c.instructions, 7_496_334);
    assert_eq!(c.cycles, 19_903_059);
}

#[test]
fn taskset64_completes_every_release_on_every_input() {
    let (_, c) = twice(Workload::TaskSet64, 1);
    assert_eq!(c.spawns, 65);
    for seed in 1..=4 {
        let mut bench = Bench::setup(Workload::TaskSet64, seed).expect("set-up passes");
        for i in 0..bench.inputs.len() as u64 {
            if let Err(e) = bench.request(i) {
                panic!("seed {seed} input {i}: {e}");
            }
        }
    }
}
