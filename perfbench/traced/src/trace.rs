//! The traced mode's recorder: spans around calls into the layers,
//! aggregated counters for high-rate callbacks, and the per-layer
//! self-time table.
//!
//! A span has a name, start, end, parent span and the id of the trial
//! (or kernel run, or churn run) it belongs to. Spans stay in memory
//! until the run ends. Engine and module callbacks fire several times
//! per simulated cycle, so instead of one span per call they add their
//! call count, and the time of a random sample of calls, into
//! [`Counters`] through the forwarding wrappers [`TimedEngine`] and
//! [`TimedModule`].

use rse_core::module::{ChkDispatch, Module, ModuleCtx, Verdict};
use rse_core::Engine;
use rse_isa::ModuleId;
use rse_mem::MemorySystem;
use rse_pipeline::{CoProcessor, CommitGate, CoprocException, DispatchInfo, ExecuteInfo, RobId};
use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Sentinel trial id for spans that belong to no single trial.
pub const NO_TRIAL: u64 = u64::MAX;

/// One recorded span, in nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `inject.trial`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Trial / run id shared by every span of one operation.
    pub trial: u64,
    /// Time of this span covered by aggregated callback counters (the
    /// engine taps inside a `Pipeline::run`), subtracted from self time.
    pub callback_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, trial: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            trial,
            callback_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open span).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Closes span `id`, recording `callback_ns` of it as spent inside
    /// aggregated callbacks.
    pub fn exit_with_callbacks(&mut self, id: usize, callback_ns: u64) {
        self.exit(id);
        self.spans[id].callback_ns = callback_ns;
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus its children's durations
    /// and minus the callback time recorded on it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| s.duration() as i64 - s.callback_ns as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration() as i64;
            }
        }
        own.into_iter().map(|t| t.max(0) as u64).collect()
    }

    /// Total duration of spans named `name`, ns.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let trial = if s.trial == NO_TRIAL {
                "null".to_string()
            } else {
                s.trial.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trial\":{trial},\"callback_ns\":{}}}\n",
                s.name, s.start, s.end, s.callback_ns
            ));
        }
        out
    }

    /// Durations of spans named `name`, ns, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }
}

/// One callback in this many is timed (chosen at random); the timed
/// ones are scaled up. A clock read costs tens of nanoseconds, as much
/// as a short engine callback, so timing every call would mostly
/// measure the clock.
pub const SAMPLE_EVERY: u64 = 16;

/// Estimated time and exact call counts of the high-rate callbacks,
/// shared between the engine wrapper and the module wrappers it calls.
#[derive(Debug)]
pub struct Counters {
    /// Estimated ns inside `Engine`'s `CoProcessor` methods (tick included).
    pub tap_ns: Cell<u64>,
    /// Calls into `Engine`'s `CoProcessor` methods.
    pub tap_calls: Cell<u64>,
    /// Estimated ns inside `Engine::tick`.
    pub tick_ns: Cell<u64>,
    /// Estimated ns inside wrapped modules' `Module` methods.
    pub module_ns: Cell<u64>,
    /// Calls into wrapped modules' `Module` methods.
    pub module_calls: Cell<u64>,
    /// What timing an empty call measures, ns; subtracted from each
    /// timed call so the clock's own cost is not charged to the layer.
    pub clock_ns: u64,
    rng: Cell<u64>,
}

impl Default for Counters {
    fn default() -> Counters {
        let mut empty: Vec<u64> = (0..10_001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        empty.sort_unstable();
        Counters {
            tap_ns: Cell::new(0),
            tap_calls: Cell::new(0),
            tick_ns: Cell::new(0),
            module_ns: Cell::new(0),
            module_calls: Cell::new(0),
            clock_ns: empty[empty.len() / 2],
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
        }
    }
}

impl Counters {
    /// Whether to time this call (xorshift64, probability 1/SAMPLE_EVERY).
    fn sample(&self) -> bool {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.is_multiple_of(SAMPLE_EVERY)
    }

    /// Runs `f`, adding its estimated time to `total` (and to `also`).
    fn time<R>(&self, total: &Cell<u64>, also: Option<&Cell<u64>>, f: impl FnOnce() -> R) -> R {
        if !self.sample() {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns) * SAMPLE_EVERY;
        total.set(total.get() + ns);
        if let Some(also) = also {
            also.set(also.get() + ns);
        }
        r
    }

    fn tap<R>(&self, f: impl FnOnce() -> R) -> R {
        self.tap_calls.set(self.tap_calls.get() + 1);
        self.time(&self.tap_ns, None, f)
    }

    fn tick<R>(&self, f: impl FnOnce() -> R) -> R {
        self.tap_calls.set(self.tap_calls.get() + 1);
        self.time(&self.tap_ns, Some(&self.tick_ns), f)
    }

    fn module<R>(&self, f: impl FnOnce() -> R) -> R {
        self.module_calls.set(self.module_calls.get() + 1);
        self.time(&self.module_ns, None, f)
    }
}

/// Forwards every `CoProcessor` call to an [`Engine`], timing a sample.
pub struct TimedEngine<'a> {
    /// The engine doing the work.
    pub engine: &'a mut Engine,
    /// Where the time goes.
    pub counters: &'a Counters,
}

impl CoProcessor for TimedEngine<'_> {
    fn on_dispatch(&mut self, now: u64, info: &DispatchInfo, mem: &mut MemorySystem) {
        self.counters
            .tap(|| self.engine.on_dispatch(now, info, mem))
    }

    fn on_execute(&mut self, now: u64, info: &ExecuteInfo, mem: &mut MemorySystem) {
        self.counters.tap(|| self.engine.on_execute(now, info, mem))
    }

    fn on_commit(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem) {
        self.counters.tap(|| self.engine.on_commit(now, rob, mem))
    }

    fn on_squash(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem) {
        self.counters.tap(|| self.engine.on_squash(now, rob, mem))
    }

    fn commit_gate(&mut self, now: u64, rob: RobId) -> CommitGate {
        self.counters.tap(|| self.engine.commit_gate(now, rob))
    }

    fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        self.counters.tick(|| self.engine.tick(now, mem))
    }

    fn take_exception(&mut self) -> Option<CoprocException> {
        self.counters.tap(|| self.engine.take_exception())
    }
}

/// Forwards every `Module` call to `M`, timing a sample. `as_any`
/// forwards to the inner module, so `Engine::module_ref::<M>` still
/// finds it.
pub struct TimedModule<M: Module> {
    inner: M,
    counters: Rc<Counters>,
}

impl<M: Module> TimedModule<M> {
    /// Wraps `inner`, charging its time to `counters`.
    pub fn new(inner: M, counters: Rc<Counters>) -> TimedModule<M> {
        TimedModule { inner, counters }
    }
}

impl<M: Module> Module for TimedModule<M> {
    fn id(&self) -> ModuleId {
        self.inner.id()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_chk(&mut self, chk: &ChkDispatch, ctx: &mut ModuleCtx<'_>) {
        self.counters.module(|| self.inner.on_chk(chk, ctx))
    }

    fn on_dispatch(&mut self, info: &DispatchInfo, ctx: &mut ModuleCtx<'_>) {
        self.counters.module(|| self.inner.on_dispatch(info, ctx))
    }

    fn on_execute(&mut self, info: &ExecuteInfo, ctx: &mut ModuleCtx<'_>) {
        self.counters.module(|| self.inner.on_execute(info, ctx))
    }

    fn on_commit(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        self.counters.module(|| self.inner.on_commit(rob, ctx))
    }

    fn on_squash(&mut self, rob: RobId, ctx: &mut ModuleCtx<'_>) {
        self.counters.module(|| self.inner.on_squash(rob, ctx))
    }

    fn tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.counters.module(|| self.inner.tick(ctx))
    }

    fn self_test(&mut self) -> Verdict {
        self.counters.module(|| self.inner.self_test())
    }

    fn corrupt_state(&mut self, seed: u64) -> bool {
        self.inner.corrupt_state(seed)
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// How far the table's self times may fall short of the traced wall
/// time: the gaps between top-level spans are the benchmark loop's own
/// bookkeeping and must stay below this share of wall time.
pub const TABLE_TOLERANCE: f64 = 0.02;

/// A per-layer self-time table: `(layer, ns)` rows that, with the
/// unattributed gap, add up to `wall_ns`.
#[derive(Debug, Clone)]
pub struct Table {
    /// Workload name for the heading.
    pub title: String,
    /// Rows of `(layer label, self ns)`.
    pub rows: Vec<(String, u64)>,
    /// Traced wall time, ns, measured outside every span.
    pub wall_ns: u64,
}

impl Table {
    /// Sum of the rows, ns.
    pub fn sum(&self) -> u64 {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// Share of wall time the rows do not account for.
    pub fn gap_share(&self) -> f64 {
        1.0 - self.sum() as f64 / self.wall_ns.max(1) as f64
    }

    /// Whether the rows sum to wall time within [`TABLE_TOLERANCE`].
    pub fn within_tolerance(&self) -> bool {
        self.gap_share().abs() <= TABLE_TOLERANCE
    }

    /// The printed table.
    pub fn lines(&self) -> Vec<String> {
        let wall = self.wall_ns.max(1) as f64;
        let mut out = vec![
            format!("per-layer self time, {}:", self.title),
            format!("  {:<44} {:>12} {:>7}", "layer", "self ms", "share"),
        ];
        for (label, ns) in &self.rows {
            out.push(format!(
                "  {:<44} {:>12.3} {:>6.2}%",
                label,
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / wall
            ));
        }
        out.push(format!(
            "  {:<44} {:>12.3} {:>6.2}%",
            "sum of self times",
            self.sum() as f64 / 1e6,
            100.0 * self.sum() as f64 / wall
        ));
        out.push(format!(
            "  {:<44} {:>12.3}  (rows within {:.0}% of wall: {})",
            "traced wall time",
            wall / 1e6,
            100.0 * TABLE_TOLERANCE,
            if self.within_tolerance() { "yes" } else { "NO" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_callbacks() {
        let mut t = Tracer::new();
        let root = t.enter("root", NO_TRIAL);
        let child = t.enter("child", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit_with_callbacks(child, 1_000_000);
        t.exit(root);
        let own = t.self_times();
        let s = t.spans();
        assert_eq!(s[child].parent, Some(root));
        assert_eq!(own[child], s[child].duration() - 1_000_000);
        assert_eq!(own[root], s[root].duration() - s[child].duration());
    }

    #[test]
    fn table_checks_its_tolerance() {
        let mut table = Table {
            title: "t".into(),
            rows: vec![("a".into(), 600), ("b".into(), 390)],
            wall_ns: 1_000,
        };
        assert!(table.within_tolerance());
        table.rows.pop();
        assert!(!table.within_tolerance());
    }
}
