//! Parallel experiment-sweep runner.
//!
//! Figure regeneration and ablation studies are grids of independent
//! simulation runs — (scenario, seed) cells that share nothing but code.
//! This module fans such a grid across OS threads with
//! [`std::thread::scope`]: every worker constructs its *own* [`Engine`]
//! inside its cell closure, so no engine state crosses a thread boundary
//! and `Engine` needs no `Send` bound.
//!
//! Guarantees, in order of importance:
//!
//! * **Determinism** — each cell is a pure function of its inputs, and
//!   results come back in cell order regardless of which worker ran what
//!   first.  A sweep at 8 threads is bit-identical to the same sweep at 1.
//! * **Isolation** — a panicking cell is caught and reported with its
//!   scenario and seed; the other cells complete normally.
//! * **Reporting** — [`SweepResults::write_json`] writes a
//!   machine-readable summary (status, wall time, and caller-chosen
//!   metrics per cell) under a results directory, and
//!   [`SweepSummary::parse`] reads it back for the sweep gates.
//!
//! Wall-clock fields in the summary are measured, hence *not*
//! deterministic; every simulation metric is.
//!
//! [`Engine`]: crate::engine::Engine

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One (scenario, seed) grid cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Human-readable scenario label (e.g. `"k=16"` or `"fig14/srm"`).
    pub scenario: String,
    /// RNG seed for the run.
    pub seed: u64,
}

impl Cell {
    /// Convenience constructor.
    pub fn new(scenario: impl Into<String>, seed: u64) -> Cell {
        Cell {
            scenario: scenario.into(),
            seed,
        }
    }
}

/// The cross product of scenarios and seeds, scenarios-major (all seeds of
/// the first scenario, then the second, ...).
pub fn grid(scenarios: &[&str], seeds: &[u64]) -> Vec<Cell> {
    scenarios
        .iter()
        .flat_map(|s| seeds.iter().map(move |&seed| Cell::new(*s, seed)))
        .collect()
}

/// What happened to one cell.
#[derive(Debug)]
pub struct CellOutcome<T> {
    /// The cell that ran.
    pub cell: Cell,
    /// Wall-clock time the cell took (measured; not deterministic).
    pub wall: Duration,
    /// The cell's value, or the panic message if it panicked.
    pub result: Result<T, String>,
}

/// All outcomes of one sweep, in cell order.
#[derive(Debug)]
pub struct SweepResults<T> {
    /// Per-cell outcomes, index-aligned with the input cells.
    pub outcomes: Vec<CellOutcome<T>>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole sweep (measured; not deterministic).
    pub wall: Duration,
}

/// The machine's available parallelism, as a default worker count.
pub fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Runs `run` over every cell on `threads` workers and returns outcomes
/// in cell order.
///
/// Cells are claimed work-stealing style (an atomic cursor), so long cells
/// don't serialize behind short ones; a panic inside a cell is caught and
/// surfaces as that cell's `Err` without disturbing its neighbours.
pub fn run_sweep<T, F>(cells: Vec<Cell>, threads: NonZeroUsize, run: F) -> SweepResults<T>
where
    T: Send,
    F: Fn(&Cell) -> T + Sync,
{
    type Slot<T> = Option<(Duration, Result<T, String>)>;
    let started = Instant::now();
    let n = cells.len();
    let workers = threads.get().min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Slot<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let run = &run;
    let cells_ref = &cells;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = &cells_ref[i];
                let cell_start = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| run(cell)))
                    .map_err(|payload| panic_message(cell, payload.as_ref()));
                let wall = cell_start.elapsed();
                slots.lock().expect("runner slots poisoned")[i] = Some((wall, result));
            });
        }
    });

    let outcomes = slots
        .into_inner()
        .expect("runner slots poisoned")
        .into_iter()
        .zip(cells)
        .map(|(slot, cell)| {
            let (wall, result) = slot.expect("every cell index was claimed");
            CellOutcome { cell, wall, result }
        })
        .collect();
    SweepResults {
        outcomes,
        threads: workers,
        wall: started.elapsed(),
    }
}

/// Renders a caught panic payload with the failing cell's coordinates.
fn panic_message(cell: &Cell, payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!(
        "cell '{}' (seed {}) panicked: {msg}",
        cell.scenario, cell.seed
    )
}

impl<T> SweepResults<T> {
    /// Number of cells that completed without panicking.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Outcomes of cells that panicked.
    pub fn failures(&self) -> Vec<&CellOutcome<T>> {
        self.outcomes.iter().filter(|o| o.result.is_err()).collect()
    }

    /// The values of all successful cells, in cell order, panicking with
    /// every failure message if any cell failed.
    pub fn into_values(self) -> Vec<T> {
        let mut errors = Vec::new();
        let mut values = Vec::new();
        for o in self.outcomes {
            match o.result {
                Ok(v) => values.push(v),
                Err(e) => errors.push(e),
            }
        }
        assert!(
            errors.is_empty(),
            "sweep had failures:\n{}",
            errors.join("\n")
        );
        values
    }

    /// Writes a machine-readable JSON summary to `dir/<name>.json`,
    /// creating `dir` if needed.  `metrics` extracts the per-cell numbers
    /// to publish (empty is fine).  Returns the path written.
    pub fn write_json(
        &self,
        dir: impl AsRef<Path>,
        name: &str,
        metrics: impl Fn(&T) -> Vec<(String, f64)>,
    ) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, self.to_json(name, metrics))?;
        Ok(path)
    }

    /// The JSON summary as a string (see [`SweepResults::write_json`]).
    pub fn to_json(&self, name: &str, metrics: impl Fn(&T) -> Vec<(String, f64)>) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"sweep\": {},", json_string(name));
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"wall_ms\": {:.3},", self.wall.as_secs_f64() * 1e3);
        let _ = writeln!(s, "  \"cells_ok\": {},", self.ok_count());
        let _ = writeln!(
            s,
            "  \"cells_failed\": {},",
            self.outcomes.len() - self.ok_count()
        );
        s.push_str("  \"cells\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"scenario\": {}, \"seed\": {}, \"wall_ms\": {:.3}, ",
                json_string(&o.cell.scenario),
                o.cell.seed,
                o.wall.as_secs_f64() * 1e3
            );
            match &o.result {
                Ok(v) => {
                    s.push_str("\"status\": \"ok\", \"metrics\": {");
                    for (j, (k, val)) in metrics(v).iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        let _ = write!(s, "{}: {}", json_string(k), json_number(*val));
                    }
                    s.push_str("}}");
                }
                Err(e) => {
                    let _ = write!(
                        s,
                        "\"status\": \"panicked\", \"error\": {}}}",
                        json_string(e)
                    );
                }
            }
            s.push_str(if i + 1 < self.outcomes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// JSON string literal with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN/Infinity; map them to null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Integral values print without a trailing ".0" churn.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

/// A sweep summary read back from the JSON that
/// [`SweepResults::to_json`] writes — the typed input of every sweep
/// gate.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSummary {
    /// The sweep's name (the file stem under `results/`).
    pub sweep: String,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Wall-clock time for the whole sweep, in milliseconds.
    pub wall_ms: f64,
    /// Cells the summary reports as ok.
    pub cells_ok: usize,
    /// Cells the summary reports as failed.
    pub cells_failed: usize,
    /// Every cell, in sweep order.
    pub cells: Vec<SummaryCell>,
}

/// One cell of a [`SweepSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryCell {
    /// The cell's scenario label.
    pub scenario: String,
    /// The cell's RNG seed.
    pub seed: u64,
    /// Wall-clock time the cell took, in milliseconds.
    pub wall_ms: f64,
    /// The published metrics in emission order (`None` where the writer
    /// wrote a non-finite value as `null`), or the panic message.
    pub result: Result<Vec<(String, Option<f64>)>, String>,
}

impl SummaryCell {
    /// A finite metric of an ok cell, if present.
    pub fn metric(&self, key: &str) -> Option<f64> {
        let metrics = self.result.as_ref().ok()?;
        metrics.iter().find(|(k, _)| k == key)?.1
    }
}

impl SweepSummary {
    /// Parses a summary, rejecting anything that is not well-formed JSON
    /// in the sweep-runner schema.
    pub fn parse(text: &str) -> Result<SweepSummary, String> {
        let mut reader = JsonReader { text, pos: 0 };
        let root = reader.value(0)?;
        if reader.peek().is_some() {
            return Err(format!("trailing data at byte {}", reader.pos));
        }
        let JsonValue::Array(cells) = root.get("cells")? else {
            return Err("\"cells\" is not an array".to_string());
        };
        let cells = cells
            .iter()
            .map(|cell| {
                let result = match cell.str_at("status")? {
                    "ok" => {
                        let JsonValue::Object(metrics) = cell.get("metrics")? else {
                            return Err("\"metrics\" is not an object".to_string());
                        };
                        let metrics = metrics.iter().map(|(key, v)| match v {
                            JsonValue::Null => Ok((key.clone(), None)),
                            _ => Ok((key.clone(), Some(v.number(key)?))),
                        });
                        Ok(metrics.collect::<Result<_, String>>()?)
                    }
                    "panicked" => Err(cell.str_at("error")?.to_string()),
                    other => return Err(format!("unknown cell status {other:?}")),
                };
                Ok(SummaryCell {
                    scenario: cell.str_at("scenario")?.to_string(),
                    seed: cell.get("seed")?.number("seed")?,
                    wall_ms: cell.get("wall_ms")?.number("wall_ms")?,
                    result,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(SweepSummary {
            sweep: root.str_at("sweep")?.to_string(),
            threads: root.get("threads")?.number("threads")?,
            wall_ms: root.get("wall_ms")?.number("wall_ms")?,
            cells_ok: root.get("cells_ok")?.number("cells_ok")?,
            cells_failed: root.get("cells_failed")?.number("cells_failed")?,
            cells,
        })
    }

    /// The checks every sweep gate shares: the sweep is named `name`,
    /// `cells_ok`/`cells_failed` agree with the cells, and every cell
    /// finished ok.  Returns one complaint per problem (empty = pass).
    pub fn schema_problems(&self, name: &str) -> Vec<String> {
        let mut problems = Vec::new();
        if self.sweep != name {
            problems.push(format!("sweep is {:?}, expected {name:?}", self.sweep));
        }
        let ok = self.cells.iter().filter(|c| c.result.is_ok()).count();
        let failed = self.cells.len() - ok;
        if (self.cells_ok, self.cells_failed) != (ok, failed) {
            problems.push(format!(
                "cells_ok/cells_failed {}/{} disagree with the cells ({ok}/{failed})",
                self.cells_ok, self.cells_failed
            ));
        }
        for c in &self.cells {
            if let Err(e) = &c.result {
                problems.push(format!("cell {:?} not ok: {e}", c.scenario));
            }
        }
        problems
    }

    /// The cell labelled `scenario`, if present.
    pub fn cell(&self, scenario: &str) -> Option<&SummaryCell> {
        self.cells.iter().find(|c| c.scenario == scenario)
    }
}

/// A JSON value, restricted to what [`SweepResults::to_json`] emits (no
/// booleans); numbers keep their source text so integers parse exactly.
enum JsonValue {
    Null,
    Number(String),
    Str(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

/// Nesting bound for [`JsonReader`]; the schema itself is three deep.
const MAX_DEPTH: usize = 8;

impl JsonValue {
    /// The value of field `key` of an object.
    fn get(&self, key: &str) -> Result<&JsonValue, String> {
        let JsonValue::Object(fields) = self else {
            return Err(format!("expected an object holding {key:?}"));
        };
        let field = fields.iter().find(|(k, _)| k == key);
        field
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The string field `key` of an object.
    fn str_at(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(format!("{key:?} is not a string")),
        }
    }

    /// This number, parsed as `T`; `what` names it in errors.
    fn number<T: std::str::FromStr>(&self, what: &str) -> Result<T, String> {
        match self {
            JsonValue::Number(n) => n.parse().map_err(|_| format!("{what:?} = {n} is invalid")),
            _ => Err(format!("{what:?} is not a number")),
        }
    }
}

/// Recursive-descent reader over the summary text.
struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
}

impl JsonReader<'_> {
    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start().len();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            return Ok(());
        }
        Err(format!("expected {:?} at byte {}", byte as char, self.pos))
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            // Objects and arrays share one loop; array items get no key.
            Some(open @ (b'{' | b'[')) => {
                self.pos += 1;
                let (object, close) = (open == b'{', if open == b'{' { b'}' } else { b']' });
                let mut items = Vec::new();
                let mut more = !self.eat(close);
                while more {
                    let key = if object {
                        self.string()?
                    } else {
                        String::new()
                    };
                    if object {
                        self.expect(b':')?;
                    }
                    items.push((key, self.value(depth + 1)?));
                    more = self.eat(b',');
                    if !more {
                        self.expect(close)?;
                    }
                }
                Ok(if object {
                    JsonValue::Object(items)
                } else {
                    JsonValue::Array(items.into_iter().map(|(_, v)| v).collect())
                })
            }
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'n') if self.text[self.pos..].starts_with("null") => {
                self.pos += 4;
                Ok(JsonValue::Null)
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let rest = &self.text[self.pos..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                    .unwrap_or(rest.len());
                self.pos += len;
                Ok(JsonValue::Number(rest[..len].to_string()))
            }
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// A string literal, decoding the escapes [`json_string`] writes.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.text[self.pos..].char_indices();
        while let Some((i, c)) = chars.next() {
            out.push(match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        code.ok_or_else(|| format!("bad escape \\u{hex}"))?
                    }
                    Some(e @ ('"' | '\\' | '/')) => e,
                    e => return Err(format!("bad escape {e:?}")),
                },
                c => c,
            });
        }
        Err("unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_threads() -> NonZeroUsize {
        NonZeroUsize::new(2).unwrap()
    }

    #[test]
    fn grid_is_scenario_major() {
        let cells = grid(&["a", "b"], &[1, 2]);
        let got: Vec<(&str, u64)> = cells
            .iter()
            .map(|c| (c.scenario.as_str(), c.seed))
            .collect();
        assert_eq!(got, vec![("a", 1), ("a", 2), ("b", 1), ("b", 2)]);
    }

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<Cell> = (0..32).map(|i| Cell::new("c", i)).collect();
        let res = run_sweep(cells, two_threads(), |c| c.seed * 10);
        let values: Vec<u64> = res.into_values();
        assert_eq!(values, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cells = || grid(&["x", "y"], &(0..8).collect::<Vec<u64>>());
        let serial = run_sweep(cells(), NonZeroUsize::MIN, |c| {
            (c.scenario.clone(), c.seed * c.seed)
        });
        let parallel = run_sweep(cells(), NonZeroUsize::new(4).unwrap(), |c| {
            (c.scenario.clone(), c.seed * c.seed)
        });
        assert_eq!(serial.into_values(), parallel.into_values());
    }

    #[test]
    fn panics_are_captured_with_seed_and_scenario() {
        let cells = grid(&["stable"], &[1, 2, 3]);
        let res = run_sweep(cells, two_threads(), |c| {
            if c.seed == 2 {
                panic!("boom at {}", c.seed);
            }
            c.seed
        });
        assert_eq!(res.ok_count(), 2);
        let failures = res.failures();
        assert_eq!(failures.len(), 1);
        let msg = failures[0].result.as_ref().unwrap_err();
        assert!(msg.contains("seed 2"), "message names the seed: {msg}");
        assert!(msg.contains("boom"), "message keeps the payload: {msg}");
        // Surviving cells are untouched and ordered.
        assert_eq!(res.outcomes[0].result.as_ref().ok(), Some(&1));
        assert_eq!(res.outcomes[2].result.as_ref().ok(), Some(&3));
    }

    #[test]
    #[should_panic(expected = "sweep had failures")]
    fn into_values_surfaces_failures() {
        let res = run_sweep(grid(&["s"], &[1]), NonZeroUsize::MIN, |_| -> u64 {
            panic!("nope")
        });
        let _ = res.into_values();
    }

    #[test]
    fn json_summary_round_trips_through_the_reader() {
        let outcome = |scenario: &str, seed, result| CellOutcome {
            cell: Cell::new(scenario, seed),
            wall: Duration::from_micros(1_500),
            result,
        };
        // An escaped scenario name, a NaN metric (written as null), and a
        // panic message whose braces and brackets are string content.
        let panic = "cell 'boom' (seed 3) panicked: index [3] out of {bounds".to_string();
        let res = SweepResults {
            outcomes: vec![
                outcome("a\"b", 1, Ok(1.0)),
                outcome("nan", 2, Ok(f64::NAN)),
                outcome("boom", 3, Err(panic.clone())),
            ],
            threads: 2,
            wall: Duration::from_millis(7),
        };
        let json = res.to_json("unit", |v| {
            vec![("value".to_string(), *v), ("k".into(), 0.25)]
        });
        assert!(json.contains("\"a\\\"b\""), "scenario quotes escaped");
        assert!(json.contains("\"value\": null"), "NaN written as null");
        let cell = |scenario: &str, seed, result| SummaryCell {
            scenario: scenario.to_string(),
            seed,
            wall_ms: 1.5,
            result,
        };
        let metrics = |v| {
            Ok(vec![
                ("value".to_string(), v),
                ("k".to_string(), Some(0.25)),
            ])
        };
        let parsed = SweepSummary::parse(&json).expect("the writer's output parses");
        assert_eq!(
            parsed,
            SweepSummary {
                sweep: "unit".to_string(),
                threads: 2,
                wall_ms: 7.0,
                cells_ok: 2,
                cells_failed: 1,
                cells: vec![
                    cell("a\"b", 1, metrics(Some(1.0))),
                    cell("nan", 2, metrics(None)),
                    cell("boom", 3, Err(panic)),
                ],
            }
        );
        assert_eq!(
            parsed.cell("a\"b").and_then(|c| c.metric("value")),
            Some(1.0)
        );
        assert_eq!(parsed.cell("nan").and_then(|c| c.metric("value")), None);

        // The shared schema check names the failed cell and a wrong name…
        let problems = parsed.schema_problems("unit");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("\"boom\" not ok"));
        assert!(parsed.schema_problems("other")[0].contains("expected \"other\""));
        // …and counts that disagree with the cells.
        let miscounted = SweepSummary {
            cells_ok: 3,
            ..parsed
        };
        assert!(miscounted.schema_problems("unit")[0].contains("disagree"));
        // A truncated document does not parse.
        assert!(SweepSummary::parse(&json[..json.len() / 2]).is_err());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let res = run_sweep(Vec::new(), two_threads(), |c: &Cell| c.seed);
        assert_eq!(res.outcomes.len(), 0);
        assert_eq!(res.ok_count(), 0);
        let json = res.to_json("empty", |_| Vec::new());
        assert!(json.contains("\"cells\": [\n  ]"));
        assert!(SweepSummary::parse(&json).unwrap().cells.is_empty());
    }

    #[test]
    fn engines_run_inside_cells() {
        // The whole point: Engine is not Send, but each cell builds its
        // own, so sweeps parallelize anyway.
        use crate::engine::EngineBuilder;
        use crate::graph::{LinkParams, TopologyBuilder};
        use crate::packet::Classify;
        use crate::shard::RunSpec;
        use crate::time::SimDuration;

        #[derive(Clone)]
        struct P;
        impl Classify for P {
            fn class(&self) -> crate::metrics::TrafficClass {
                crate::metrics::TrafficClass::Data
            }
        }

        let cells = grid(&["lossy"], &[1, 2, 3, 4]);
        let res = run_sweep(cells, two_threads(), |c| {
            let mut b = TopologyBuilder::new();
            let n0 = b.add_node("0");
            let n1 = b.add_node("1");
            b.add_link(
                n0,
                n1,
                LinkParams::new(SimDuration::from_millis(1), 800_000, 0.5),
            );
            let mut builder: EngineBuilder<P> = EngineBuilder::new(b.build(), c.seed);
            let chan = builder.add_channel(&[n0, n1]);
            let mut e = builder.build();
            for _ in 0..64 {
                e.multicast_from(n0, chan, P, 100);
            }
            e.advance(RunSpec::drain());
            e.recorder()
                .delivered_count(n1, crate::metrics::TrafficClass::Data)
        });
        let values = res.into_values();
        assert_eq!(values.len(), 4);
        // Deterministic per seed: running again yields the same numbers.
        let again = run_sweep(grid(&["lossy"], &[1, 2, 3, 4]), NonZeroUsize::MIN, |c| {
            let mut b = TopologyBuilder::new();
            let n0 = b.add_node("0");
            let n1 = b.add_node("1");
            b.add_link(
                n0,
                n1,
                LinkParams::new(SimDuration::from_millis(1), 800_000, 0.5),
            );
            let mut builder: EngineBuilder<P> = EngineBuilder::new(b.build(), c.seed);
            let chan = builder.add_channel(&[n0, n1]);
            let mut e = builder.build();
            for _ in 0..64 {
                e.multicast_from(n0, chan, P, 100);
            }
            e.advance(RunSpec::drain());
            e.recorder()
                .delivered_count(n1, crate::metrics::TrafficClass::Data)
        });
        assert_eq!(values, again.into_values());
    }
}
