//! Workspace self-lint: rules the generic clippy pass cannot express
//! because they encode *this* codebase's invariants.
//!
//! Seven token-level rules over the [lexed](crate::lexer) stream with the
//! same item/`#[cfg(test)]` tracking the extractor uses, plus one
//! dataflow-fed rule ([`RULE_SHARED_WITHOUT_SYNC`]) driven by the
//! [escape facts](crate::dataflow::EscapeFacts) of the dataflow pass:
//!
//! * [`RULE_NO_UNWRAP`] — no `.unwrap()` / `.expect(` in `cs-core`'s
//!   engine/select/guard hot paths. A panic inside the selection engine
//!   takes down the host application the framework promised to speed up
//!   (the guardrail PR exists precisely because adaptation must never make
//!   things worse).
//! * [`RULE_NO_DISPATCH_UNDER_LOCK`] — no `.dispatch(` call while a named
//!   lock guard is live. Sink dispatch runs arbitrary subscriber code;
//!   doing so under an engine lock invites lock-order inversions (the
//!   engine's `record_and_dispatch` deliberately drops the log lock first).
//! * [`RULE_NO_UNBOUNDED_RING`] — no `VecDeque::new()` in a function with
//!   no capacity discipline in sight. Every ring buffer in this codebase is
//!   bounded by design (audit trails, event logs); an unbounded one is a
//!   slow leak.
//! * [`RULE_NO_ALLOC_SPAN_PATH`] — no heap allocation or lock acquisition
//!   inside the tracer's span fast path (`cs-trace`'s span/ring entry
//!   points and the flight recorder's `on_event`). The tracer's overhead
//!   claim rests on those paths costing a few atomics; an accidental
//!   `format!` or `.lock()` silently invalidates the published
//!   `cs_trace_overhead_ratio`. Cold-path functions in the same files
//!   (thread registration, incident recording, cost calibration) are
//!   deliberately outside the guarded item set.
//! * [`RULE_NO_ALLOC_HEAP_COUNT`] — no heap allocation or lock acquisition
//!   inside cs-heap's counting path (the `CountingAlloc` hooks, the
//!   per-thread `note`/`apply`/`add` chain, the ledger reads guards build
//!   deltas from, and `AllocGuard::begin`/`finish`). The hazard here is
//!   sharper than overhead: this code runs *inside* the global allocator,
//!   so an allocation is unbounded recursion and a lock is a re-entrant
//!   deadlock waiting for a signal-unsafe moment. The registration cold
//!   path (`register`, `note_slow`, `process_account`) allocates and locks
//!   deliberately, behind a re-entry flag, and is outside the item set.
//! * [`RULE_NO_RAW_PERSIST_WRITE`] — no raw `fs::write(` / `File::create(` /
//!   `OpenOptions::new(` on a persistence path (cs-state, cs-model, the
//!   engine/runtime stack, and the model-builder bench). Warm start's
//!   crash-safety claim rests on every state and model file reaching disk
//!   via cs-state's temp+fsync+rename writer; a single raw write
//!   reintroduces exactly the torn files the salvage loader exists to
//!   quarantine. The atomic writer module itself is the one exemption —
//!   it is where the raw I/O is supposed to live.
//! * [`RULE_NO_BLOCKING_IO_SAMPLER`] — no filesystem or socket tokens
//!   (`fs`/`File`/`OpenOptions`, `TcpStream`/`TcpListener`/`UdpSocket`)
//!   in cs-obs's sampler-path modules (`sampler.rs`, `window.rs`,
//!   `drift.rs`). The sampler thread ticks on a period and its published
//!   `cs_obs_sampler_overhead_ratio` assumes each tick is pure in-memory
//!   work; a procfs read or a socket call on that path turns a bounded
//!   tick into an unbounded one and quietly falsifies the overhead claim.
//!   All blocking I/O belongs in `http.rs` (the designated I/O module,
//!   exempt) or behind the scrape-time `export` path.
//! * [`RULE_SHARED_WITHOUT_SYNC`] — a collection binding captured by a
//!   `spawn(…)` closure with no `Arc`/`Mutex` wrapper in sight *and* still
//!   used on the spawning thread afterwards. That shape is race-adjacent:
//!   either the capture was a move (and the later use is of a stale
//!   shadow), or sharing was intended and the synchronization is missing.
//!   Scoped to library sources: engine/runtime context handles (which are
//!   internally synchronized), test modules, and `tests/`/`examples/`/
//!   `benches/` trees are exempt.
//!
//! Findings diff against a committed baseline keyed by
//! `(rule, path, item, message)` — line numbers drift with every edit and
//! would make the baseline a merge-conflict magnet.

use std::collections::HashMap;

use crate::lexer::{lex, Token, TokenKind};

/// Rule id: `.unwrap()`/`.expect(` in hot paths.
pub const RULE_NO_UNWRAP: &str = "no-unwrap-hot-path";
/// Rule id: sink dispatch while holding a lock guard.
pub const RULE_NO_DISPATCH_UNDER_LOCK: &str = "no-dispatch-under-lock";
/// Rule id: `VecDeque::new()` without capacity discipline.
pub const RULE_NO_UNBOUNDED_RING: &str = "no-unbounded-ring";
/// Rule id: allocation or locking on the tracer's span fast path.
pub const RULE_NO_ALLOC_SPAN_PATH: &str = "no-alloc-in-span-path";
/// Rule id: allocation or locking inside cs-heap's counting path.
pub const RULE_NO_ALLOC_HEAP_COUNT: &str = "no-alloc-in-heap-count-path";
/// Rule id: raw filesystem writes on a persistence path.
pub const RULE_NO_RAW_PERSIST_WRITE: &str = "no-raw-persist-write";
/// Rule id: blocking I/O tokens on cs-obs's sampler path.
pub const RULE_NO_BLOCKING_IO_SAMPLER: &str = "no-blocking-io-in-sampler-path";
/// Rule id: a plain collection crossing a thread boundary bare.
pub const RULE_SHARED_WITHOUT_SYNC: &str = "shared-without-sync";

/// Paths (workspace-relative, forward slashes) subject to the unwrap rule.
/// The engine, selection, and guard modules are the in-process hot path of
/// every host application; everything else may justify a panic.
fn unwrap_rule_applies(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        && ["engine.rs", "select.rs", "guard.rs", "context.rs", "handles.rs"]
            .iter()
            .any(|f| path.ends_with(f))
}

/// The lock and ring rules apply to the whole engine/runtime/telemetry
/// stack — anywhere subscriber code or ring buffers live.
fn stack_rule_applies(path: &str) -> bool {
    path.starts_with("crates/core/")
        || path.starts_with("crates/runtime/")
        || path.starts_with("crates/telemetry/")
        || path.starts_with("crates/obs/")
}

/// Persistence-path files subject to the raw-write rule: everywhere the
/// stack writes selection state or cost models that a later boot reads
/// back. The single exemption is cs-state's own atomic writer — the module
/// the rule funnels every other call site into. Out of scope by design:
/// the analyzer's baseline file, bench result JSON, and telemetry's JSONL
/// audit log — none of those is state the engine trusts at startup, so a
/// torn copy is an inconvenience, not a poisoned warm start.
fn persist_rule_applies(path: &str) -> bool {
    let in_scope = path.starts_with("crates/state/src/")
        || path.starts_with("crates/model/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/runtime/src/")
        || path == "crates/bench/src/bin/model_builder.rs";
    in_scope && path != "crates/state/src/writer.rs"
}

/// The sampler-path modules of cs-obs: everything the periodic sampler
/// tick touches (sampling, the frame window, drift scoring). `http.rs` is
/// the designated I/O module and `lib.rs` only wires — both exempt. New
/// modules added to the crate are unguarded until listed here, because a
/// new obs module is more likely an endpoint (I/O by design) than a new
/// tick stage.
fn sampler_rule_applies(path: &str) -> bool {
    [
        "crates/obs/src/sampler.rs",
        "crates/obs/src/window.rs",
        "crates/obs/src/drift.rs",
    ]
    .contains(&path)
}

/// Files containing the tracer's span fast path.
fn span_path_rule_applies(path: &str) -> bool {
    [
        "crates/trace/src/ring.rs",
        "crates/trace/src/span.rs",
        "crates/telemetry/src/flight.rs",
    ]
    .contains(&path)
}

/// Item names that form the span fast path in the files above. Everything
/// runs per-span or per-op; anything not listed (thread registration,
/// `record_incident`, `measure_tracer_costs`, snapshot collection) is a
/// cold path allowed to allocate and lock.
const SPAN_PATH_ITEMS: &[&str] = &[
    // cs-trace span entry points and the whole `Span` impl (incl. Drop).
    "span",
    "op_span",
    "enter",
    "exit",
    "Span",
    "enabled",
    "now_ns",
    "with_local",
    "add_app_time",
    "credit_app_ops",
    // ThreadRing per-span/per-op writers.
    "push",
    "add_app",
    "prime_credit",
    "credit_wall",
    // The flight recorder's per-event dispatch hook.
    "on_event",
];

/// Files containing cs-heap's counting path.
fn heap_count_rule_applies(path: &str) -> bool {
    [
        "crates/heap/src/lib.rs",
        "crates/heap/src/counters.rs",
        "crates/heap/src/guard.rs",
    ]
    .contains(&path)
}

/// Item names that form the heap-count path in the files above. These run
/// inside the global allocator (the `GlobalAlloc` hooks and everything they
/// call when registered) or on the per-op attribution path (the ledger
/// read and the guard window arithmetic). Deliberately absent: `register`,
/// `note_slow`, and `process_account` — the cold paths that allocate and
/// lock on purpose, behind the re-entry flag.
const HEAP_COUNT_ITEMS: &[&str] = &[
    // CountingAlloc's GlobalAlloc hooks.
    "alloc",
    "alloc_zeroed",
    "dealloc",
    "realloc",
    // The per-event counting chain.
    "note",
    "apply",
    "add",
    // The ledger read the guards build deltas from.
    "thread_account",
    // The attribution window itself.
    "begin",
    "finish",
];

/// One alloc/lock fast-path rule: which rule id fires, how the message
/// names the path, and the lock finding's rationale tail. Parameterised so
/// the span and heap rules share one scanner while keeping their committed
/// baseline messages byte-stable.
struct FastPathRule {
    rule: &'static str,
    desc: &'static str,
    lock_tail: &'static str,
}

const SPAN_FAST_PATH: FastPathRule = FastPathRule {
    rule: RULE_NO_ALLOC_SPAN_PATH,
    desc: "span fast path",
    lock_tail: "the tracer must stay lock-free",
};

const HEAP_FAST_PATH: FastPathRule = FastPathRule {
    rule: RULE_NO_ALLOC_HEAP_COUNT,
    desc: "heap-count path",
    lock_tail: "inside the allocator a lock is a re-entrant deadlock",
};

/// One self-lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Rule id (one of the `RULE_*` constants).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (informational; not part of the baseline key).
    pub line: u32,
    /// Enclosing item path.
    pub item: String,
    /// Human-readable finding.
    pub message: String,
}

impl Diagnostic {
    /// The baseline key: everything except the line number, so formatting
    /// and unrelated edits do not invalidate the committed baseline.
    pub fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.rule, self.path, self.item, self.message)
    }

    /// Renders as `path:line [rule] (item) message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{} [{}] ({}) {}",
            self.path, self.line, self.rule, self.item, self.message
        )
    }
}

/// A live lock guard: binding name and the brace depth of its block.
struct Guard {
    name: String,
    depth: u32,
}

struct Linter<'a> {
    toks: &'a [Token],
    pos: usize,
    path: &'a str,
    depth: u32,
    items: Vec<(String, u32)>,
    pending_item: Option<String>,
    pending_test: bool,
    guards: Vec<Guard>,
    /// Per-item: does the item mention a `capacity`-flavoured identifier?
    capacity_evidence: HashMap<String, bool>,
    /// Deferred `VecDeque::new` findings resolved after the pass.
    ring_sites: Vec<(String, u32)>,
    out: Vec<Diagnostic>,
}

impl<'a> Linter<'a> {
    fn tok(&self, i: usize) -> Option<&'a Token> {
        self.toks.get(i)
    }

    fn item_path(&self) -> String {
        if self.items.is_empty() {
            "top".to_owned()
        } else {
            self.items
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join("::")
        }
    }

    fn is_path_sep(&self, i: usize) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(':'))
            && self.tok(i + 1).is_some_and(|t| t.is_punct(':'))
    }

    /// Is the scanner inside a fast-path item of a guarded file — the
    /// tracer's span path or cs-heap's counting path? Any enclosing frame
    /// counts, so closures and nested helpers declared inside a fast-path
    /// function stay covered.
    fn fast_path(&self) -> Option<&'static FastPathRule> {
        let in_items = |items: &[&str]| {
            self.items
                .iter()
                .any(|(name, _)| items.contains(&name.as_str()))
        };
        if span_path_rule_applies(self.path) && in_items(SPAN_PATH_ITEMS) {
            return Some(&SPAN_FAST_PATH);
        }
        if heap_count_rule_applies(self.path) && in_items(HEAP_COUNT_ITEMS) {
            return Some(&HEAP_FAST_PATH);
        }
        None
    }

    fn emit(&mut self, rule: &str, line: u32, message: String) {
        self.out.push(Diagnostic {
            rule: rule.to_owned(),
            path: self.path.to_owned(),
            line,
            item: self.item_path(),
            message,
        });
    }

    /// `#[cfg(test)]`-guard detection, mirroring the extractor's.
    fn is_cfg_test_attr(&self) -> bool {
        if !self.tok(self.pos + 1).is_some_and(|t| t.is_punct('[')) {
            return false;
        }
        if !self.tok(self.pos + 2).is_some_and(|t| t.is_ident("cfg")) {
            return false;
        }
        let mut i = self.pos + 3;
        while let Some(t) = self.tok(i) {
            if t.is_punct(']') {
                return false;
            }
            if t.is_ident("test") {
                return true;
            }
            if i > self.pos + 32 {
                return false;
            }
            i += 1;
        }
        false
    }

    fn skip_balanced_braces(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// `let [mut] name = … .lock() …;` starting at a `let` keyword: returns
    /// the guard binding when the initializer acquires a lock.
    fn lock_guard_binding(&self) -> Option<String> {
        let mut i = self.pos + 1;
        if self.tok(i).is_some_and(|t| t.is_ident("mut")) {
            i += 1;
        }
        let name = self.tok(i).filter(|t| t.kind == TokenKind::Ident)?;
        // Scan the initializer up to `;` for `.lock(` / `.read(` / `.write(`.
        let mut saw_lock = false;
        let mut j = i + 1;
        let mut brace_guard = 0u32;
        while let Some(t) = self.tok(j) {
            if t.is_punct(';') && brace_guard == 0 {
                break;
            }
            if t.is_punct('{') {
                brace_guard += 1;
            }
            if t.is_punct('}') {
                if brace_guard == 0 {
                    break;
                }
                brace_guard -= 1;
            }
            // Only a lock acquired at the statement's own nesting level
            // makes the binding a guard: in `let x = { ….lock()… }` the
            // guard lives and dies inside the block expression.
            if brace_guard == 0
                && t.is_punct('.')
                && self
                    .tok(j + 1)
                    .is_some_and(|m| m.is_ident("lock") || m.is_ident("read") || m.is_ident("write"))
                && self.tok(j + 2).is_some_and(|p| p.is_punct('('))
            {
                saw_lock = true;
            }
            j += 1;
        }
        if saw_lock {
            Some(name.text.clone())
        } else {
            None
        }
    }

    fn scan(&mut self) {
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            match t.kind {
                TokenKind::Punct => self.scan_punct(),
                TokenKind::Ident => self.scan_ident(),
                _ => self.pos += 1,
            }
        }
        // Resolve deferred ring-buffer findings now that capacity evidence
        // for every item is complete.
        let rings = std::mem::take(&mut self.ring_sites);
        for (item, line) in rings {
            if !self.capacity_evidence.get(&item).copied().unwrap_or(false) {
                self.out.push(Diagnostic {
                    rule: RULE_NO_UNBOUNDED_RING.to_owned(),
                    path: self.path.to_owned(),
                    line,
                    item: item.clone(),
                    message: "VecDeque::new() with no capacity discipline in the enclosing item"
                        .to_owned(),
                });
            }
        }
    }

    fn scan_punct(&mut self) {
        let t = &self.toks[self.pos];
        match t.text.as_bytes()[0] {
            b'{' => {
                if let Some(name) = self.pending_item.take() {
                    self.items.push((name, self.depth));
                }
                self.depth += 1;
            }
            b'}' => {
                self.depth = self.depth.saturating_sub(1);
                while self
                    .guards
                    .last()
                    .is_some_and(|g| g.depth > self.depth)
                {
                    self.guards.pop();
                }
                if self.items.last().is_some_and(|(_, d)| *d == self.depth) {
                    self.items.pop();
                }
            }
            b';' => {
                self.pending_item = None;
                self.pending_test = false;
            }
            b'#'
                if self.is_cfg_test_attr() => {
                    self.pending_test = true;
                }
            b'.' => {
                self.scan_dot();
            }
            _ => {}
        }
        self.pos += 1;
    }

    /// `.method(` checks: unwrap/expect, dispatch-under-lock, and
    /// span-path alloc/lock calls.
    fn scan_dot(&mut self) {
        let Some(m) = self.tok(self.pos + 1).filter(|m| m.kind == TokenKind::Ident) else {
            return;
        };
        let line = m.line;
        // `.collect::<T>()` carries a turbofish, so accept `::` as well as
        // `(` for the span-path method checks.
        let called = self.tok(self.pos + 2).is_some_and(|p| p.is_punct('('))
            || self.is_path_sep(self.pos + 2);
        if called {
            if let Some(fp) = self.fast_path() {
                match m.text.as_str() {
                    "lock" | "read" | "write" => {
                        let msg = format!(
                            "`.{}()` on the {} — {}",
                            m.text, fp.desc, fp.lock_tail
                        );
                        self.emit(fp.rule, line, msg);
                    }
                    "to_string" | "to_owned" | "to_vec" | "collect" => {
                        let msg = format!("`.{}()` allocates on the {}", m.text, fp.desc);
                        self.emit(fp.rule, line, msg);
                    }
                    _ => {}
                }
            }
        }
        if !self.tok(self.pos + 2).is_some_and(|p| p.is_punct('(')) {
            return;
        }
        match m.text.as_str() {
            "unwrap" | "expect" if unwrap_rule_applies(self.path) => {
                let msg = format!("`.{}()` on an engine hot path — return an error or degrade instead of panicking", m.text);
                self.emit(RULE_NO_UNWRAP, line, msg);
            }
            "dispatch" if stack_rule_applies(self.path) && !self.guards.is_empty() => {
                let holding = self
                    .guards
                    .iter()
                    .map(|g| g.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ");
                let msg = format!(
                    "sink dispatch while holding lock guard(s) `{holding}` — drop the guard before dispatching"
                );
                self.emit(RULE_NO_DISPATCH_UNDER_LOCK, line, msg);
            }
            _ => {}
        }
    }

    /// Allocation spelled as a constructor path or macro, checked against
    /// the span and heap-count fast paths: `Vec::new(...)`, `Box::new(...)`,
    /// `vec![...]`, `format!(...)`, and friends.
    fn check_fast_path_ident(&mut self) {
        let Some(fp) = self.fast_path() else {
            return;
        };
        let t = &self.toks[self.pos];
        let line = t.line;
        match t.text.as_str() {
            "Vec" | "Box" | "String" | "VecDeque" | "Arc" | "HashMap" | "BTreeMap"
                if self.is_path_sep(self.pos + 1)
                    && self.tok(self.pos + 3).is_some_and(|n| {
                        n.is_ident("new") || n.is_ident("from") || n.is_ident("with_capacity")
                    })
                    && self.tok(self.pos + 4).is_some_and(|p| p.is_punct('(')) =>
            {
                let ctor = format!("{}::{}", t.text, self.toks[self.pos + 3].text);
                let msg = format!("`{ctor}` allocates on the {}", fp.desc);
                self.emit(fp.rule, line, msg);
            }
            "vec" | "format" if self.tok(self.pos + 1).is_some_and(|p| p.is_punct('!')) => {
                let msg = format!("`{}!` allocates on the {}", t.text, fp.desc);
                self.emit(fp.rule, line, msg);
            }
            _ => {}
        }
    }

    fn scan_ident(&mut self) {
        self.check_fast_path_ident();
        let t = &self.toks[self.pos];
        match t.text.as_str() {
            "fn" | "mod" | "trait" | "struct" | "enum" | "union" => {
                if self.pending_test {
                    // Skip the guarded item wholesale: find its `{` and jump
                    // past the matching `}`. Items ending in `;` fall out of
                    // the pending state naturally.
                    self.pending_test = false;
                    while let Some(t) = self.tok(self.pos) {
                        if t.is_punct('{') {
                            self.skip_balanced_braces();
                            return;
                        }
                        if t.is_punct(';') {
                            return;
                        }
                        self.pos += 1;
                    }
                    return;
                }
                if let Some(name) = self.tok(self.pos + 1).filter(|n| n.kind == TokenKind::Ident)
                {
                    self.pending_item = Some(name.text.clone());
                }
                self.pos += 1;
            }
            "impl" => {
                let mut i = self.pos + 1;
                let mut name = String::from("impl");
                while let Some(t) = self.tok(i) {
                    if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                        break;
                    }
                    if t.kind == TokenKind::Ident && t.text != "for" {
                        name = t.text.clone();
                    }
                    i += 1;
                }
                self.pending_item = Some(name);
                self.pos += 1;
            }
            "let" => {
                if let Some(guard) = self.lock_guard_binding() {
                    self.guards.push(Guard {
                        name: guard,
                        depth: self.depth,
                    });
                }
                self.pos += 1;
            }
            "drop" => {
                // `drop(guard)` releases it early.
                if self.tok(self.pos + 1).is_some_and(|t| t.is_punct('(')) {
                    if let Some(arg) = self.tok(self.pos + 2) {
                        self.guards.retain(|g| g.name != arg.text);
                    }
                }
                self.pos += 1;
            }
            "VecDeque" => {
                if self.is_path_sep(self.pos + 1)
                    && self.tok(self.pos + 3).is_some_and(|t| t.is_ident("new"))
                    && self.tok(self.pos + 4).is_some_and(|t| t.is_punct('('))
                    && stack_rule_applies(self.path)
                {
                    self.ring_sites.push((self.item_path(), t.line));
                }
                self.pos += 1;
            }
            // Any socket token on the sampler path — type position,
            // constructor, or `use` — is blocking I/O inside the periodic
            // tick; the token itself is the finding.
            "TcpStream" | "TcpListener" | "UdpSocket" if sampler_rule_applies(self.path) => {
                let msg = format!(
                    "`{}` on the obs sampler path — socket I/O makes the tick unbounded \
                     and falsifies `cs_obs_sampler_overhead_ratio`; sockets live in http.rs",
                    t.text
                );
                self.emit(RULE_NO_BLOCKING_IO_SAMPLER, t.line, msg);
                self.pos += 1;
            }
            // Raw writes on persistence paths: `fs::write(` (also matches
            // the `fs` inside `std::fs::write(`), `File::create(` (also the
            // `File` inside `fs::File::create(`), and `OpenOptions::new(`.
            "fs" | "File" | "OpenOptions" => {
                // On the obs sampler path any filesystem token at all is a
                // finding (a procfs read blocks the tick as surely as a
                // write would); elsewhere only the raw-persist-write
                // constructor shapes below matter.
                if sampler_rule_applies(self.path) {
                    let msg = format!(
                        "`{}` on the obs sampler path — filesystem I/O makes the tick \
                         unbounded and falsifies `cs_obs_sampler_overhead_ratio`; \
                         procfs reads belong on the scrape-time export path",
                        t.text
                    );
                    self.emit(RULE_NO_BLOCKING_IO_SAMPLER, t.line, msg);
                }
                let ctor = match t.text.as_str() {
                    "fs" => "write",
                    "File" => "create",
                    _ => "new",
                };
                if persist_rule_applies(self.path)
                    && self.is_path_sep(self.pos + 1)
                    && self.tok(self.pos + 3).is_some_and(|n| n.is_ident(ctor))
                    && self.tok(self.pos + 4).is_some_and(|p| p.is_punct('('))
                {
                    let msg = format!(
                        "`{}::{ctor}` on a persistence path — a crash mid-write tears the file; route through cs-state's atomic writer",
                        t.text
                    );
                    self.emit(RULE_NO_RAW_PERSIST_WRITE, t.line, msg);
                }
                self.pos += 1;
            }
            other => {
                if other.to_ascii_lowercase().contains("capacity") {
                    let item = self.item_path();
                    self.capacity_evidence.insert(item, true);
                }
                self.pos += 1;
            }
        }
    }
}

/// Paths subject to the shared-without-sync rule: library sources only.
/// Integration tests, examples, and benches spawn-and-join with channels
/// or scoped threads as a matter of course; the race-shaped pattern only
/// warrants a finding where host applications inherit the code.
fn shared_sync_rule_applies(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.contains("/tests/")
        && !path.contains("/examples/")
        && !path.contains("/benches/")
}

/// The dataflow-fed rule: extract the file's sites, run the escape
/// analysis, and flag bindings that cross a thread boundary bare (spawned,
/// no `Arc`/`Mutex`, and still used on the spawning thread afterwards).
fn lint_shared_without_sync(path: &str, src: &str, out: &mut Vec<Diagnostic>) {
    if !shared_sync_rule_applies(path) {
        return;
    }
    let opts = crate::extract::ExtractOptions::default();
    let analysis = crate::extract::extract(path, src, opts);
    let flows = crate::dataflow::dataflow_file(src, &analysis, opts);
    for (site, facts) in analysis.sites.iter().zip(&flows) {
        // Engine/runtime context handles are internally synchronized —
        // crossing threads is what they are for.
        if matches!(site.category, crate::extract::SiteCategory::Context | crate::extract::SiteCategory::Runtime) {
            continue;
        }
        if site.in_test || !facts.escape.shared_without_sync() {
            continue;
        }
        let binding = site.binding.as_deref().unwrap_or("<anonymous>");
        out.push(Diagnostic {
            rule: RULE_SHARED_WITHOUT_SYNC.to_owned(),
            path: path.to_owned(),
            line: site.line,
            item: site.item.clone(),
            message: format!(
                "`{binding}` is captured by spawn(…) without Arc/Mutex and used afterwards — race-shaped sharing"
            ),
        });
    }
}

/// Lints one source file; `path` decides which rules apply.
pub fn lint_file(path: &str, src: &str) -> Vec<Diagnostic> {
    let toks = lex(src);
    let mut linter = Linter {
        toks: &toks,
        pos: 0,
        path,
        depth: 0,
        items: Vec::new(),
        pending_item: None,
        pending_test: false,
        guards: Vec::new(),
        capacity_evidence: HashMap::new(),
        ring_sites: Vec::new(),
        out: Vec::new(),
    };
    linter.scan();
    let mut out = linter.out;
    lint_shared_without_sync(path, src, &mut out);
    out
}

/// Splits `current` findings into `(new, fixed)` relative to a baseline of
/// [`Diagnostic::key`]s: `new` are findings absent from the baseline (CI
/// failure), `fixed` are baseline keys no longer found (prune the baseline).
pub fn diff_against_baseline(
    current: &[Diagnostic],
    baseline: &[String],
) -> (Vec<Diagnostic>, Vec<String>) {
    let current_keys: Vec<String> = current.iter().map(|d| d.key()).collect();
    let fresh = current
        .iter()
        .filter(|d| !baseline.contains(&d.key()))
        .cloned()
        .collect();
    let fixed = baseline
        .iter()
        .filter(|k| !current_keys.contains(k))
        .cloned()
        .collect();
    (fresh, fixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_engine_hot_path_is_flagged() {
        let src = r#"
fn select(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
        let d = lint_file("crates/core/src/select.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RULE_NO_UNWRAP);
        assert_eq!(d[0].item, "select");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn unwrap_outside_hot_paths_is_fine() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lint_file("crates/workloads/src/runner.rs", src).is_empty());
        assert!(lint_file("crates/core/src/event.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_tests_is_fine_even_in_hot_path_files() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn helper(x: Option<u32>) -> u32 { x.unwrap() }
}
"#;
        assert!(lint_file("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn dispatch_under_lock_is_flagged() {
        let src = r#"
fn notify(&self) {
    let log = self.log.lock();
    self.sinks.dispatch(&log.last());
}
"#;
        let d = lint_file("crates/core/src/event.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RULE_NO_DISPATCH_UNDER_LOCK);
        assert!(d[0].message.contains("`log`"), "{}", d[0].message);
    }

    #[test]
    fn dispatch_after_scoped_lock_is_fine() {
        // The engine's actual `record_and_dispatch` shape: lock in an inner
        // block, dispatch after it closes.
        let src = r#"
fn notify(&self) {
    let event = {
        let log = self.log.lock();
        log.last()
    };
    self.sinks.dispatch(&event);
}
"#;
        assert!(lint_file("crates/core/src/event.rs", src).is_empty());
    }

    #[test]
    fn dispatch_after_explicit_drop_is_fine() {
        let src = r#"
fn notify(&self) {
    let log = self.log.lock();
    let event = log.last();
    drop(log);
    self.sinks.dispatch(&event);
}
"#;
        assert!(lint_file("crates/core/src/event.rs", src).is_empty());
    }

    #[test]
    fn unbounded_ring_is_flagged_and_capacity_evidence_clears_it() {
        let bad = "fn make() -> VecDeque<u32> { VecDeque::new() }";
        let d = lint_file("crates/core/src/event.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RULE_NO_UNBOUNDED_RING);

        let good = r#"
fn make(capacity: usize) -> VecDeque<u32> {
    let mut q = VecDeque::new();
    q.reserve(capacity);
    q
}
"#;
        assert!(lint_file("crates/core/src/event.rs", good).is_empty());
    }

    #[test]
    fn span_path_alloc_and_lock_are_flagged() {
        let src = r#"
pub fn op_span(site: u64) -> Span {
    let label = format!("site-{site}");
    let parts: Vec<u64> = label.bytes().map(u64::from).collect::<Vec<u64>>();
    let boxed = Box::new(parts);
    let guard = REGISTRY.lock();
    Span::disarmed()
}
"#;
        let d = lint_file("crates/trace/src/span.rs", src);
        let rules: Vec<&str> = d.iter().map(|x| x.rule.as_str()).collect();
        assert!(rules.iter().all(|r| *r == RULE_NO_ALLOC_SPAN_PATH), "{d:?}");
        assert_eq!(d.len(), 4, "format!, collect, Box::new, lock: {d:?}");
        assert!(d.iter().all(|x| x.item == "op_span"));
    }

    #[test]
    fn span_path_cold_functions_may_allocate() {
        // Registration and calibration are deliberately outside the
        // guarded item set — they run once per thread / process.
        let src = r#"
fn register_current_thread() -> LocalTrace {
    let ring = Arc::new(ThreadRing::new(7));
    registry().lock().push(Arc::clone(&ring));
    LocalTrace { ring }
}
fn measure_tracer_costs() -> TracerCosts {
    let samples: Vec<u64> = (0..8).map(|_| 1).collect();
    TracerCosts { span_ns: samples[0], check_ns: 1 }
}
"#;
        assert!(lint_file("crates/trace/src/span.rs", src).is_empty());
    }

    #[test]
    fn span_path_rule_is_scoped_to_its_files() {
        // The same hot item names elsewhere in the workspace are fine.
        let src = "fn push(&self) { let line = format!(\"x\"); self.buf.lock().push(line); }";
        assert!(lint_file("crates/core/src/event.rs", src).is_empty());
        assert!(lint_file("crates/trace/src/snapshot.rs", src).is_empty());
    }

    #[test]
    fn flight_recorder_on_event_must_not_allocate() {
        let src = r#"
impl EngineEventSink for FlightRecorder {
    fn on_event(&self, event: &EngineEvent) {
        let trigger = event.name().to_owned();
        self.record_incident(&trigger, Some(event));
    }
}
impl FlightRecorder {
    fn record_incident(&self, trigger: &str) {
        let doc = format!("{{\"trigger\":\"{trigger}\"}}");
        self.sink.write(doc);
    }
}
"#;
        let d = lint_file("crates/telemetry/src/flight.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_NO_ALLOC_SPAN_PATH);
        assert!(d[0].item.contains("on_event"), "{}", d[0].item);
        assert!(d[0].message.contains("to_owned"));
    }

    #[test]
    fn heap_count_path_alloc_and_lock_are_flagged() {
        // An allocation inside the allocator hook is unbounded recursion;
        // a lock is a re-entrant deadlock. Both must fire.
        let src = r#"
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let label = format!("alloc-{}", layout.size());
        let guard = REGISTRY.lock();
        System.alloc(layout)
    }
}
"#;
        let d = lint_file("crates/heap/src/lib.rs", src);
        assert_eq!(d.len(), 2, "format! and lock: {d:?}");
        assert!(d.iter().all(|x| x.rule == RULE_NO_ALLOC_HEAP_COUNT), "{d:?}");
        assert!(d.iter().all(|x| x.item.contains("alloc")), "{d:?}");
        assert!(d[1].message.contains("re-entrant deadlock"), "{}", d[1].message);
    }

    #[test]
    fn heap_guard_window_must_not_allocate() {
        let src = r#"
impl AllocGuard {
    pub fn finish(self) -> AllocDelta {
        let boxed = Box::new(self.start_count);
        let trace = self.samples.iter().copied().collect::<Vec<u64>>();
        AllocDelta::default()
    }
}
"#;
        let d = lint_file("crates/heap/src/guard.rs", src);
        assert_eq!(d.len(), 2, "Box::new and collect: {d:?}");
        assert!(d.iter().all(|x| x.rule == RULE_NO_ALLOC_HEAP_COUNT), "{d:?}");
        assert!(d.iter().all(|x| x.item.contains("finish")), "{d:?}");
    }

    #[test]
    fn heap_cold_paths_may_allocate_and_lock() {
        // Registration and the process rollup run behind the re-entry flag
        // and are deliberately outside the guarded item set.
        let src = r#"
fn register(slot: &RefCell<Option<Registered>>) -> bool {
    let block = Arc::new(ThreadCounters::default());
    registry().lock().expect("poisoned").push(Arc::clone(&block));
    true
}
fn process_account() -> HeapAccount {
    let snapshots: Vec<HeapAccount> = registry().lock().unwrap().iter().map(read).collect();
    HeapAccount::default()
}
"#;
        assert!(lint_file("crates/heap/src/counters.rs", src).is_empty());
    }

    #[test]
    fn heap_count_rule_is_scoped_to_cs_heap() {
        // The same item names elsewhere (every collection has an `alloc` or
        // `add`, every guard a `begin`/`finish`) are not on this path.
        let src = "fn begin() { let v = vec![1, 2]; let g = STATE.lock(); }";
        assert!(lint_file("crates/runtime/src/tlb.rs", src).is_empty());
        assert!(lint_file("crates/core/src/handles.rs", src).is_empty());
    }

    #[test]
    fn raw_writes_on_persistence_paths_are_flagged() {
        let src = r#"
fn save(path: &Path, text: &str) {
    std::fs::write(path, text).ok();
    let direct = File::create(path);
    let opts = OpenOptions::new().write(true).open(path);
}
"#;
        let d = lint_file("crates/model/src/persist.rs", src);
        assert_eq!(d.len(), 3, "fs::write, File::create, OpenOptions::new: {d:?}");
        assert!(d.iter().all(|x| x.rule == RULE_NO_RAW_PERSIST_WRITE), "{d:?}");
        assert!(d.iter().all(|x| x.item == "save"));
        assert!(d[0].message.contains("atomic writer"), "{}", d[0].message);
    }

    #[test]
    fn atomic_writer_module_may_use_raw_io() {
        // The one place raw file I/O is supposed to live: the writer that
        // implements temp+fsync+rename for everyone else.
        let src = r#"
fn write_atomic(path: &Path, bytes: &[u8]) {
    let mut file = fs::File::create(path).unwrap();
    file.write_all(bytes).unwrap();
}
"#;
        assert!(lint_file("crates/state/src/writer.rs", src).is_empty());
    }

    #[test]
    fn raw_writes_off_persistence_paths_are_fine() {
        // Baseline JSON, bench results, and the JSONL audit log are not
        // state the engine reads back at boot; a torn copy is recoverable.
        let src = "fn dump(path: &Path) { std::fs::write(path, b\"x\").ok(); }";
        assert!(lint_file("crates/analyzer/src/main.rs", src).is_empty());
        assert!(lint_file("crates/telemetry/src/sinks.rs", src).is_empty());
        assert!(lint_file("crates/bench/src/bin/runtime_sweep.rs", src).is_empty());
    }

    #[test]
    fn model_builder_bench_is_a_persistence_path() {
        // The calibration bench writes the model files every later engine
        // boot loads, so it is held to the same atomic-write discipline.
        let src = "fn save_models() { std::fs::write(\"lists.model\", b\"{}\").ok(); }";
        let d = lint_file("crates/bench/src/bin/model_builder.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_NO_RAW_PERSIST_WRITE);
    }

    #[test]
    fn raw_writes_in_tests_are_fine_even_on_persistence_paths() {
        // Chaos tests corrupt snapshot files on purpose.
        let src = r#"
#[cfg(test)]
mod tests {
    fn corrupt(path: &Path) { std::fs::write(path, b"junk").unwrap(); }
}
"#;
        assert!(lint_file("crates/state/src/reader.rs", src).is_empty());
    }

    #[test]
    fn blocking_io_on_the_sampler_path_is_flagged() {
        // A procfs read inside a tick stage: the fs token is the finding.
        let fs_src = r#"
fn tick(core: &ObsCore) {
    let stat = std::fs::read_to_string("/proc/self/stat");
}
"#;
        let d = lint_file("crates/obs/src/sampler.rs", fs_src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_NO_BLOCKING_IO_SAMPLER);
        assert_eq!(d[0].item, "tick");
        assert!(d[0].message.contains("overhead_ratio"), "{}", d[0].message);

        // A socket anywhere in drift scoring, even just a type mention.
        let sock_src = "fn observe(s: &TcpStream) {}";
        let d = lint_file("crates/obs/src/drift.rs", sock_src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_NO_BLOCKING_IO_SAMPLER);

        let file_src = "fn push(&mut self) { let f = File::open(\"x\"); }";
        assert_eq!(lint_file("crates/obs/src/window.rs", file_src).len(), 1);
    }

    #[test]
    fn sampler_rule_exempts_http_tests_and_other_crates() {
        // http.rs is the designated I/O module; sockets are its job.
        let src = "fn accept_loop(l: &TcpListener) { let s = TcpStream::connect(a); }";
        assert!(lint_file("crates/obs/src/http.rs", src).is_empty());
        // lib.rs wires but does not tick.
        assert!(lint_file("crates/obs/src/lib.rs", src).is_empty());
        // Test harnesses scrape themselves over real sockets on purpose.
        let test_src = r#"
#[cfg(test)]
mod tests {
    fn get() { let s = TcpStream::connect(addr); }
}
"#;
        assert!(lint_file("crates/obs/src/sampler.rs", test_src).is_empty());
        // The rest of the workspace reads procfs and opens sockets freely.
        let fs_src = "fn peak_rss() { let s = std::fs::read_to_string(\"/proc/self/status\"); }";
        assert!(lint_file("crates/heap/src/lib.rs", fs_src).is_empty());
    }

    #[test]
    fn bare_spawn_capture_with_later_use_is_flagged() {
        let src = r#"
fn fan_out(xs: &[u64]) -> usize {
    let mut shared = Vec::new();
    std::thread::spawn(move || shared.push(1));
    shared.len()
}
"#;
        let d = lint_file("crates/workloads/src/fan.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_SHARED_WITHOUT_SYNC);
        assert_eq!(d[0].item, "fan_out");
        assert!(d[0].message.contains("`shared`"), "{}", d[0].message);
    }

    #[test]
    fn synchronized_or_unshared_collections_are_fine() {
        // Arc+Mutex wrapping is the sanctioned sharing shape.
        let wrapped = r#"
fn fan_out(xs: &[u64]) {
    let shared = Arc::new(Mutex::new(Vec::new()));
    std::thread::spawn(move || shared.lock());
}
"#;
        assert!(lint_file("crates/workloads/src/fan.rs", wrapped).is_empty());
        // Spawned but never touched again on this thread: a plain move.
        let moved = r#"
fn hand_off() {
    let work = Vec::new();
    std::thread::spawn(move || work.len());
}
"#;
        assert!(lint_file("crates/workloads/src/fan.rs", moved).is_empty());
    }

    #[test]
    fn shared_sync_rule_is_scoped_to_library_sources() {
        let src = r#"
fn fan_out(xs: &[u64]) -> usize {
    let mut shared = Vec::new();
    std::thread::spawn(move || shared.push(1));
    shared.len()
}
"#;
        // Integration tests, examples, benches, and the workspace-level
        // examples tree spawn-and-join freely.
        assert!(lint_file("crates/runtime/tests/stress.rs", src).is_empty());
        assert!(lint_file("crates/workloads/examples/demo.rs", src).is_empty());
        assert!(lint_file("crates/bench/benches/sweep.rs", src).is_empty());
        assert!(lint_file("examples/advisor_demo.rs", src).is_empty());
        // Engine context handles are internally synchronized.
        let ctx = r#"
fn wire(engine: &Switch) -> usize {
    let log = engine.named_list_context::<u64>(ListKind::Array, "hot-log");
    std::thread::spawn(move || log.push(1));
    log.len()
}
"#;
        assert!(lint_file("crates/core/src/wire.rs", ctx).is_empty());
    }

    #[test]
    fn baseline_diff_separates_new_from_fixed() {
        let d = lint_file(
            "crates/core/src/select.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        let baseline = vec![d[0].key(), "stale|key|gone|msg".to_owned()];
        let (fresh, fixed) = diff_against_baseline(&d, &baseline);
        assert!(fresh.is_empty(), "baselined finding must not re-fire");
        assert_eq!(fixed, vec!["stale|key|gone|msg".to_owned()]);

        let (fresh2, _) = diff_against_baseline(&d, &[]);
        assert_eq!(fresh2.len(), 1);
    }
}
