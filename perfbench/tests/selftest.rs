//! Quick-size self-test: every workload named in `BENCHMARK.json` runs
//! untraced and traced, emits exactly the metrics `BENCHMARK.json` names
//! with their units, and checks its answers against the oracle.

use std::process::Command;

/// A parsed JSON value (the benchmark vendors no JSON crate).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
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
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key} in {self:?}")),
            _ => panic!("{self:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("{self:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("{self:?} is not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(fields),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
}

/// The served workload's pinned rate, from the benchmark command.
fn serve_rate(bench: &Json) -> String {
    let command = bench.get("command").arr();
    let at = command
        .iter()
        .position(|a| a.str() == "--serve-rate")
        .expect("the command pins --serve-rate");
    command[at + 1].str().to_string()
}

fn run(workload: &str, trace: u8, rate: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_rotind-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args([
            "--trace",
            &trace.to_string(),
            "--serve-rate",
            rate,
            "--quick",
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, Json::parse(&last))
}

#[test]
fn every_workload_emits_every_named_metric_and_checks_its_answers() {
    let bench = benchmark_json();
    let rate = serve_rate(&bench);
    for workload in bench.get("workloads").arr() {
        let name = workload.get("name").str();
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (stdout, result) = run(name, trace, &rate);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{name}");
            assert_eq!(result.get("failed"), &Json::Num(0.0), "{name}");
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let checked = stdout
                .lines()
                .find_map(|l| l.split("checked against the oracle ").nth(1))
                .and_then(|n| n.trim().parse::<u64>().ok())
                .expect("the run reports its oracle check");
            assert!(checked > 0, "{name}: no answer was checked");

            let Json::Obj(emitted) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let named = bench.get(list).arr();
            assert_eq!(emitted.len(), named.len(), "{name} --trace {trace}");
            for metric in named {
                let metric_name = metric.get("name").str();
                let got = result.get("metrics").get(metric_name);
                assert_eq!(
                    got.get("unit").str(),
                    metric.get("unit").str(),
                    "{metric_name}"
                );
                assert!(
                    matches!(got.get("value"), Json::Num(v) if v.is_finite()),
                    "{name}: {metric_name} = {got:?}"
                );
            }
        }
    }
}
