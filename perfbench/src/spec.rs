//! Checks that `BENCHMARK.json` describes exactly what this program runs and
//! prints, and that it survives a parse / print / parse round trip.

use crate::report::{END_TO_END, PER_LAYER};
use crate::Workload;

/// The JSON subset `BENCHMARK.json` uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
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

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while self.s.get(self.i).ok_or("unterminated string")? != &b'"' {
            if self.s[self.i] == b'\\' {
                return Err("escapes are not used in BENCHMARK.json".into());
            }
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i).ok_or("unexpected end")? {
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut v = Vec::new();
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    v.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(v));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            b't' | b'f' => {
                let t = self.s[self.i..].starts_with(b"true");
                self.i += if t { 4 } else { 5 };
                Ok(Json::Bool(t))
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse().map(Json::Num).map_err(|_| format!("bad number {text:?}"))
            }
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

fn print(v: &Json) -> String {
    match v {
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{s}\""),
        Json::Arr(a) => format!("[{}]", a.iter().map(print).collect::<Vec<_>>().join(", ")),
        Json::Obj(o) => format!(
            "{{{}}}",
            o.iter().map(|(k, v)| format!("\"{k}\": {}", print(v))).collect::<Vec<_>>().join(", ")
        ),
    }
}

fn get<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Obj(o) => &o.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1,
        _ => panic!("{key}: not an object"),
    }
}

fn str_of(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn arr(v: &Json) -> &[Json] {
    match v {
        Json::Arr(a) => a,
        _ => panic!("not an array: {v:?}"),
    }
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

#[test]
fn benchmark_json_round_trips() {
    let v = spec();
    assert_eq!(parse(&print(&v)).unwrap(), v);
    let Json::Obj(top) = &v else { panic!("top level is not an object") };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
}

#[test]
fn benchmark_json_lists_what_the_program_runs_and_prints() {
    let v = spec();
    let workloads: Vec<&str> =
        arr(get(&v, "workloads")).iter().map(|w| str_of(get(w, "name"))).collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for (list, want) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let got: Vec<(&str, &str)> = arr(get(&v, list))
            .iter()
            .map(|m| (str_of(get(m, "name")), str_of(get(m, "unit"))))
            .collect();
        assert_eq!(got, want, "{list}");
    }
    let bounds: Vec<(&str, f64)> = arr(get(&v, "end_to_end"))
        .iter()
        .map(|m| match get(m, "bound") {
            Json::Num(b) => (str_of(get(m, "name")), *b),
            b => panic!("bound {b:?}"),
        })
        .collect();
    let setup = bounds.iter().find(|(n, _)| *n == "setup_s").expect("setup_s").1;
    assert!(bounds.iter().all(|&(_, b)| b > 0.0 && b <= 0.25 && b <= setup));
}

#[test]
fn parser_handles_nesting_and_numbers() {
    let v = parse(r#"{"a": [1, -2.5e1, true], "b": {"c": "d"}, "e": []}"#).unwrap();
    assert_eq!(get(&v, "a"), &Json::Arr(vec![Json::Num(1.0), Json::Num(-25.0), Json::Bool(true)]));
    assert_eq!(str_of(get(get(&v, "b"), "c")), "d");
    assert!(parse("{\"a\": 1} x").is_err());
}
