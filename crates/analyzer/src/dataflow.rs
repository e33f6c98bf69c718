//! Intraprocedural dataflow over collection bindings: the CFG-lite second
//! pass behind the advisor's escape, capacity, and clone facts.
//!
//! The [extractor](crate::extract()) answers *where* a collection is born and
//! *which methods* its binding receives. This pass answers where the value
//! **goes**: it re-walks the token stream with the same item/loop stack,
//! seeds an alias map from the extracted [`StaticSite`](crate::StaticSite)s, and tracks each
//! site's value through
//!
//! * **moves** — `let log = journal;` transfers the site to `log` and kills
//!   `journal` (flow-sensitive: facts after the move attribute to `log`),
//! * **borrows** — `let view = &journal;` aliases without killing,
//! * **clones** — `let snap = journal.clone();` forks a new live version
//!   (counted; clone-in-loop and multi-version bindings mark the site a
//!   persistent-tier candidate, ROADMAP item 2),
//! * **handle returns** — `let list = ctx.create_list();` aliases an engine
//!   context site to the handle actually receiving the ops,
//! * **returns** — `return journal` / trailing-expression position.
//!
//! On top of the alias map it derives three fact families per site:
//!
//! 1. [`EscapeFacts`] — does the value reach `spawn(..)`, an
//!    `Arc::new`/`Mutex::new`/`RwLock::new` wrapper, a `SCREAMING_CASE`
//!    global sink or `Box::leak`, or the caller (return)? A spawn escape
//!    with no sync wrapper *and* continued use afterwards is the
//!    race-shaped [`EscapeFacts::shared_without_sync`] condition surfaced
//!    by the `shared-without-sync` lint.
//! 2. [`CapacityFacts`] — a static size bound: pushes under loops whose
//!    literal `a..b` trip counts are all known multiply out to an exact
//!    bound; `extend(xs)` records a length-of dependence; a known-length
//!    `(a..b) … .collect()` chain bounds a collect site exactly (invalidated
//!    by any length-changing adapter such as `filter`).
//! 3. [`CloneFacts`] — clone count, clone-in-loop, and the maximum number
//!    of simultaneously live versions the alias map ever held.
//!
//! ## Soundness
//!
//! This is a *may* analysis over tokens, not types (DESIGN.md §13): both
//! branches of every `if`/`match` contribute facts, aliasing through field
//! projections or cross-function flow is invisible, and a same-named
//! binding in a sibling scope can over-merge. Facts may therefore
//! over-approximate (escape reported that cannot happen) but the advisor
//! only uses them to *add* context — capacity hints, concurrent-tier
//! nudges, persistent-tier candidacy — never to silence a finding.

use std::collections::HashMap;

use crate::extract::{ExtractOptions, FileAnalysis};
use crate::lexer::{lex, Token, TokenKind};

/// Where a site's value escapes its enclosing function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EscapeFacts {
    /// Reached the argument list of a `spawn(..)` call (moved or captured).
    pub spawn: bool,
    /// Wrapped in `Arc::new(..)` / `Arc::from(..)`.
    pub arc: bool,
    /// Wrapped in `Mutex::new(..)` / `RwLock::new(..)`.
    pub mutex: bool,
    /// Stored into a global: `SCREAMING_CASE.set(..)`-style sink or
    /// `Box::leak(..)`.
    pub static_sink: bool,
    /// Returned to the caller (`return x` or trailing-expression position).
    pub returned: bool,
    /// An aliased binding was still used *after* the spawn escape — the
    /// flow-sensitive half of the race shape.
    pub used_after_spawn: bool,
}

impl EscapeFacts {
    /// The value becomes reachable from more than one thread or from
    /// `'static` context: the advisor recommends the concurrent tier.
    pub fn escapes_concurrently(&self) -> bool {
        self.spawn || self.arc || self.mutex || self.static_sink
    }

    /// The race shape: escaped into `spawn` with no `Arc`/`Mutex` wrapper
    /// anywhere on its alias set, while the original binding kept being
    /// used. Real Rust rejects the mutable variants at compile time; the
    /// lint exists for scoped-thread sharing and for code still being
    /// written.
    pub fn shared_without_sync(&self) -> bool {
        self.spawn && !self.arc && !self.mutex && self.used_after_spawn
    }
}

/// A statically derived bound on how large the collection grows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapacityBound {
    /// Exactly `n` insertions are visible (literal loop trips, known-length
    /// collect).
    Exact(u64),
    /// Grows to the length of another binding (`extend(xs)`).
    LenOf(String),
}

/// Capacity evidence for one site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapacityFacts {
    /// The strongest bound found, exact preferred over length-of.
    pub bound: Option<CapacityBound>,
    /// Populating calls observed under fully literal-bounded loop nests.
    pub bounded_pushes: u64,
}

impl CapacityFacts {
    /// The exact bound, when one was derived.
    pub fn exact(&self) -> Option<u64> {
        match self.bound {
            Some(CapacityBound::Exact(n)) => Some(n),
            _ => None,
        }
    }
}

/// Clone/snapshot evidence for one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloneFacts {
    /// `clone()` calls observed on any alias of the site.
    pub count: u32,
    /// At least one clone sat inside a loop body.
    pub in_loop: bool,
    /// High-water mark of simultaneously live *versions* of the value: the
    /// original plus clones bound to their own bindings. Borrows and moves
    /// alias, they do not version.
    pub max_live_versions: u32,
}

/// Everything the dataflow pass derived for one [`StaticSite`](crate::StaticSite), parallel to
/// [`FileAnalysis::sites`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteFacts {
    /// Escape facts.
    pub escape: EscapeFacts,
    /// Capacity facts.
    pub capacity: CapacityFacts,
    /// Clone facts.
    pub clones: CloneFacts,
    /// Every binding name that aliased the site's value at some point
    /// (moves, borrows, clones, handle returns), the declared binding
    /// included. Usage facts on any of these attribute to the site.
    pub aliases: Vec<String>,
}

impl SiteFacts {
    /// Clone-heavy enough to be worth a persistent/COW representation:
    /// clones in a loop, or three or more simultaneously live versions.
    /// (A single `let backup = v.clone();` is everyday Rust — two live
    /// versions alone are not persistent-shaped.)
    pub fn persistent_candidate(&self) -> bool {
        self.clones.in_loop || self.clones.max_live_versions >= 3
    }
}

/// Engine/runtime handle constructors: `let h = ctx.create_list()` makes
/// `h` an alias of the context site bound to `ctx`.
fn is_handle_method(name: &str) -> bool {
    matches!(name, "create_list" | "create_set" | "create_map" | "handle")
}

/// Iterator adapters that *change* the element count: a literal-range
/// length does not survive them on the way to `collect()`.
fn breaks_known_length(name: &str) -> bool {
    matches!(
        name,
        "filter"
            | "filter_map"
            | "flat_map"
            | "flatten"
            | "chain"
            | "zip"
            | "take"
            | "take_while"
            | "skip"
            | "skip_while"
            | "step_by"
            | "windows"
            | "chunks"
            | "dedup"
    )
}

/// Populating methods whose count under bounded loops yields a capacity
/// bound (append-shaped only; `contains` in a bounded loop says nothing
/// about size).
fn is_populating_method(name: &str) -> bool {
    matches!(
        name,
        "push" | "push_back" | "insert" | "add" | "put" | "append"
    )
}

/// `SCREAMING_CASE` ident — the global-sink heuristic for static escapes.
fn is_screaming_case(name: &str) -> bool {
    name.len() > 1
        && name
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
        && name.bytes().any(|b| b.is_ascii_uppercase())
}

/// One enclosing loop: its literal trip count when the header spelled
/// `a..b` / `a..=b` with integer literals, else `None`.
#[derive(Debug, Clone, Copy)]
struct LoopFrame {
    depth: u32,
    trip: Option<u64>,
}

struct ItemFrame {
    depth: u32,
    /// Alias map of this item: binding name → indices into the site list.
    tracked: HashMap<String, Vec<usize>>,
}

struct Flow<'a> {
    toks: &'a [Token],
    pos: usize,
    opts: ExtractOptions,
    depth: u32,
    items: Vec<ItemFrame>,
    loops: Vec<LoopFrame>,
    pending_test_attr: bool,
    pending_item: bool,
    pending_loop: Option<Option<u64>>,
    /// `let` binding awaiting its initializer.
    pending_let: Option<String>,
    /// A known-length iterator head (`(a..b)`) seen in the current
    /// statement, still length-preserving so far.
    pending_range: Option<u64>,
    /// Constructor-token position → site index, from the extract pass.
    site_at: HashMap<(u32, u32), usize>,
    facts: Vec<SiteFacts>,
    /// Sites that have escaped into a `spawn` already (token position),
    /// for the flow-sensitive used-after-spawn bit.
    spawned: Vec<Option<usize>>,
}

impl<'a> Flow<'a> {
    fn tok(&self, i: usize) -> Option<&'a Token> {
        self.toks.get(i)
    }

    fn is_path_sep(&self, i: usize) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(':'))
            && self.tok(i + 1).is_some_and(|t| t.is_punct(':'))
    }

    fn tracked(&self, name: &str) -> Vec<usize> {
        self.items
            .last()
            .and_then(|f| f.tracked.get(name))
            .cloned()
            .unwrap_or_default()
    }

    fn alias(&mut self, name: &str, sites: &[usize]) {
        if sites.is_empty() {
            return;
        }
        for &s in sites {
            let facts = &mut self.facts[s];
            if !facts.aliases.iter().any(|a| a == name) {
                facts.aliases.push(name.to_owned());
            }
        }
        if let Some(frame) = self.items.last_mut() {
            let entry = frame.tracked.entry(name.to_owned()).or_default();
            for &s in sites {
                if !entry.contains(&s) {
                    entry.push(s);
                }
            }
        }
    }

    fn kill(&mut self, name: &str) {
        if let Some(frame) = self.items.last_mut() {
            frame.tracked.remove(name);
        }
    }

    /// All enclosing loops literal-bounded? Their trip product, else `None`.
    fn bounded_trip_product(&self) -> Option<u64> {
        if self.loops.is_empty() {
            return None;
        }
        let mut product: u64 = 1;
        for frame in &self.loops {
            product = product.saturating_mul(frame.trip?);
        }
        Some(product)
    }

    /// Literal `a .. b` / `a ..= b` starting at `i` → `(trip, end index)`.
    fn literal_range(&self, i: usize) -> Option<(u64, usize)> {
        let lo = self.tok(i)?.int_value()?;
        if !self.tok(i + 1).is_some_and(|t| t.is_punct('.'))
            || !self.tok(i + 2).is_some_and(|t| t.is_punct('.'))
        {
            return None;
        }
        let mut j = i + 3;
        let inclusive = self.tok(j).is_some_and(|t| t.is_punct('='));
        if inclusive {
            j += 1;
        }
        let hi = self.tok(j)?.int_value()?;
        let trip = hi.saturating_sub(lo) + u64::from(inclusive);
        Some((trip, j + 1))
    }

    /// Scans the balanced `(..)` starting at `paren` for tracked idents,
    /// returning every aliased site (deduplicated) and the index past the
    /// closing paren.
    fn tracked_in_parens(&self, paren: usize) -> (Vec<usize>, usize) {
        let mut sites = Vec::new();
        let mut depth = 0i32;
        let mut i = paren;
        while let Some(t) = self.tok(i) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    return (sites, i + 1);
                }
            } else if t.kind == TokenKind::Ident {
                for s in self.tracked(&t.text) {
                    if !sites.contains(&s) {
                        sites.push(s);
                    }
                }
            }
            i += 1;
        }
        (sites, i)
    }

    fn mark_spawned(&mut self, sites: &[usize], at: usize) {
        for &s in sites {
            self.facts[s].escape.spawn = true;
            if self.spawned[s].is_none() {
                self.spawned[s] = Some(at);
            }
        }
    }

    /// A use of `name` at token `pos`: flips `used_after_spawn` on every
    /// aliased site that already escaped into a spawn before `pos`.
    fn note_use(&mut self, name: &str, pos: usize) {
        for s in self.tracked(name) {
            if self.spawned[s].is_some_and(|at| at < pos) {
                self.facts[s].escape.used_after_spawn = true;
            }
        }
    }

    /// `#[cfg(test)]`-shaped attribute at `self.pos` (mirrors the extract
    /// pass, so both walks skip the same items).
    fn is_cfg_test_attr(&self) -> bool {
        if !self.tok(self.pos + 1).is_some_and(|t| t.is_punct('[')) {
            return false;
        }
        if !self.tok(self.pos + 2).is_some_and(|t| t.is_ident("cfg")) {
            return false;
        }
        let mut i = self.pos + 3;
        let mut depth = 0i32;
        while let Some(t) = self.tok(i) {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            } else if t.is_ident("test") {
                return true;
            } else if i > self.pos + 32 {
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

    fn scan(&mut self) {
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            match t.kind {
                TokenKind::Punct => self.scan_punct(),
                TokenKind::Ident => self.scan_ident(),
                TokenKind::Number => {
                    // A literal range head opens a known-length chain
                    // (loop headers consume theirs in `scan_for`).
                    if self.pending_loop.is_none() {
                        if let Some((trip, end)) = self.literal_range(self.pos) {
                            self.pending_range = Some(trip);
                            self.pos = end;
                            continue;
                        }
                    }
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    fn scan_punct(&mut self) {
        let t = &self.toks[self.pos];
        match t.text.as_bytes()[0] {
            b'{' => {
                if self.pending_item {
                    self.pending_item = false;
                    if self.pending_test_attr && self.opts.skip_cfg_test {
                        self.pending_test_attr = false;
                        self.skip_balanced_braces();
                        return;
                    }
                    self.pending_test_attr = false;
                    self.items.push(ItemFrame {
                        depth: self.depth,
                        tracked: HashMap::new(),
                    });
                } else if let Some(trip) = self.pending_loop.take() {
                    self.loops.push(LoopFrame {
                        depth: self.depth,
                        trip,
                    });
                }
                self.pending_loop = None;
                self.depth += 1;
            }
            b'}' => {
                self.depth = self.depth.saturating_sub(1);
                if self.items.last().is_some_and(|f| f.depth == self.depth) {
                    self.items.pop();
                }
                if self.loops.last().is_some_and(|f| f.depth == self.depth) {
                    self.loops.pop();
                }
            }
            b';' => {
                self.pending_let = None;
                self.pending_range = None;
                self.pending_item = false;
                self.pending_test_attr = false;
            }
            b'#' if self.is_cfg_test_attr() => {
                self.pending_test_attr = true;
            }
            _ => {}
        }
        self.pos += 1;
    }

    fn scan_ident(&mut self) {
        let t = &self.toks[self.pos];
        match t.text.as_str() {
            "fn" | "mod" | "trait" | "struct" | "enum" | "union" | "impl" => {
                self.pending_item = true;
                self.pos += 1;
            }
            "for" => {
                if !self.pending_item && !self.tok(self.pos + 1).is_some_and(|t| t.is_punct('<'))
                {
                    self.scan_for();
                }
                self.pos += 1;
            }
            "while" | "loop" => {
                if !self.pending_item {
                    self.pending_loop = Some(None);
                }
                self.pos += 1;
            }
            "let" => {
                self.scan_let();
            }
            "return" => {
                if let Some(next) = self.tok(self.pos + 1) {
                    if next.kind == TokenKind::Ident {
                        for s in self.tracked(&next.text) {
                            self.facts[s].escape.returned = true;
                        }
                    }
                }
                self.pos += 1;
            }
            "spawn" if self.tok(self.pos + 1).is_some_and(|t| t.is_punct('(')) => {
                let (sites, end) = self.tracked_in_parens(self.pos + 1);
                self.mark_spawned(&sites, self.pos);
                // Aliases inside the argument list are captures, not uses.
                self.pos = end;
            }
            "Arc" | "Mutex" | "RwLock" if self.is_wrapper_call() => {
                self.scan_wrapper();
            }
            "Box"
                if self.is_path_sep(self.pos + 1)
                    && self.tok(self.pos + 3).is_some_and(|t| t.is_ident("leak"))
                    && self.tok(self.pos + 4).is_some_and(|t| t.is_punct('(')) =>
            {
                let (sites, end) = self.tracked_in_parens(self.pos + 4);
                for s in sites {
                    self.facts[s].escape.static_sink = true;
                }
                self.pos = end;
            }
            _ => self.scan_expr_ident(),
        }
    }

    /// `Arc::new(` / `Mutex::new(` / `RwLock::new(` at `self.pos`? Also
    /// accepts `::clone` — `let worker = Arc::clone(&shared);` re-wraps the
    /// same sites and must alias the new binding, or the canonical
    /// clone-then-spawn sharing idiom loses its spawn fact.
    fn is_wrapper_call(&self) -> bool {
        self.is_path_sep(self.pos + 1)
            && self
                .tok(self.pos + 3)
                .is_some_and(|t| t.is_ident("new") || t.is_ident("from") || t.is_ident("clone"))
            && self.tok(self.pos + 4).is_some_and(|t| t.is_punct('('))
    }

    /// Like [`tracked_in_parens`](Self::tracked_in_parens), but also picks
    /// up sites *constructed inline* inside the parens (their constructor
    /// token is in `site_at`): `Arc::new(Mutex::new(Vec::with_capacity(n)))`
    /// wraps a site that has no binding of its own yet. Wrapper-only — a
    /// constructor inside `spawn(..)` args usually sits in the closure body
    /// and lives entirely on the spawned thread, which is not an escape.
    fn wrapped_in_parens(&self, paren: usize) -> (Vec<usize>, usize) {
        let (mut sites, end) = self.tracked_in_parens(paren);
        let mut depth = 0i32;
        let mut i = paren;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokenKind::Ident {
                if let Some(&s) = self.site_at.get(&(t.line, t.col)) {
                    if !sites.contains(&s) {
                        sites.push(s);
                    }
                }
            }
            i += 1;
        }
        (sites, end)
    }

    fn scan_wrapper(&mut self) {
        let wrapper = self.toks[self.pos].text.clone();
        let (sites, _) = self.wrapped_in_parens(self.pos + 4);
        for &s in &sites {
            match wrapper.as_str() {
                "Arc" => self.facts[s].escape.arc = true,
                _ => self.facts[s].escape.mutex = true,
            }
        }
        // `let shared = Arc::new(Mutex::new(x))` — the wrapper binding
        // itself aliases the wrapped sites, so a later `spawn(shared…)`
        // is a *synchronized* escape.
        if let Some(binding) = self.pending_let.clone() {
            self.alias(&binding, &sites);
        }
        // Step inside the wrapper args so a nested wrapper also fires.
        self.pos += 5;
    }

    /// `for <pat> in <expr> {` — push a loop frame with its literal trip
    /// count when the header is `a..b`, and note iteration of tracked
    /// receivers (used-after-spawn).
    fn scan_for(&mut self) {
        let mut i = self.pos + 1;
        let mut guard = 0;
        while let Some(t) = self.tok(i) {
            if t.is_ident("in") {
                break;
            }
            if t.is_punct('{') || guard > 24 {
                self.pending_loop = Some(None);
                return;
            }
            i += 1;
            guard += 1;
        }
        let mut j = i + 1;
        while self
            .tok(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.is_punct('('))
        {
            j += 1;
        }
        let trip = self.literal_range(j).map(|(n, _)| n);
        if trip.is_none() {
            if let Some(recv) = self.tok(j).filter(|t| t.kind == TokenKind::Ident) {
                let name = recv.text.clone();
                self.note_use(&name, j);
            }
        }
        self.pending_loop = Some(trip);
    }

    /// `let [mut] name …` — tracks the binding and resolves move/borrow
    /// initializers immediately (`let y = x;`, `let y = &x;`).
    fn scan_let(&mut self) {
        let mut i = self.pos + 1;
        if self.tok(i).is_some_and(|t| t.is_ident("mut")) {
            i += 1;
        }
        let Some(name) = self.tok(i).filter(|t| t.kind == TokenKind::Ident) else {
            self.pos += 1;
            return;
        };
        let name = name.text.clone();
        match self.tok(i + 1) {
            Some(t) if t.is_punct(':') || t.is_punct('=') || t.is_punct(';') => {
                self.pending_let = Some(name.clone());
            }
            _ => {
                self.pos += 1;
                return;
            }
        }
        // Skip a `: Type` ascription up to `=` / `;` (types carry `<…>`
        // but never `(` at statement level in the patterns we track).
        let mut j = i + 1;
        let mut guard = 0;
        while let Some(t) = self.tok(j) {
            if t.is_punct('=') || t.is_punct(';') {
                break;
            }
            j += 1;
            guard += 1;
            if guard > 48 {
                self.pos = i + 1;
                return;
            }
        }
        if self.tok(j).is_some_and(|t| t.is_punct(';')) {
            self.pos = j;
            return;
        }
        // Initializer starts at j+1.
        let mut k = j + 1;
        let mut borrow = false;
        while self
            .tok(k)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            borrow |= self.tok(k).is_some_and(|t| t.is_punct('&'));
            k += 1;
        }
        if let Some(src) = self.tok(k).filter(|t| t.kind == TokenKind::Ident) {
            let src_name = src.text.clone();
            let sites = self.tracked(&src_name);
            if !sites.is_empty() {
                match self.tok(k + 1) {
                    // `let y = x;` / `let y = &x;` — move or borrow.
                    Some(t) if t.is_punct(';') => {
                        self.alias(&name, &sites);
                        if !borrow {
                            self.kill(&src_name);
                        }
                        self.pos = k + 1;
                        return;
                    }
                    // `let y = x.clone();` and `let h = ctx.create_list();`
                    // resolve in scan_expr_ident via pending_let.
                    _ => {}
                }
            }
        }
        self.pos = i + 1;
    }

    /// A token that is a known site's constructor token: alias the pending
    /// `let` binding and, for collect sites, consume the known-length chain.
    fn seed_site(&mut self, site: usize, is_collect: bool) {
        if let Some(binding) = self.pending_let.clone() {
            self.alias(&binding, &[site]);
        }
        // Known-length collect: `(a..b).map(..).collect()` with no
        // length-breaking adapter in between.
        if is_collect {
            if let Some(trip) = self.pending_range.take() {
                let facts = &mut self.facts[site];
                if facts.capacity.exact().is_none_or(|cur| trip > cur) {
                    facts.capacity.bound = Some(CapacityBound::Exact(trip));
                }
            }
        }
    }

    /// Plain expression ident: site seeding, clone/handle aliasing, method
    /// facts for capacity and used-after-spawn.
    fn scan_expr_ident(&mut self) {
        let t = &self.toks[self.pos];

        // Seed: this token is a known site's constructor token (type heads
        // like `Vec`, or chained `collect`).
        if let Some(&site) = self.site_at.get(&(t.line, t.col)) {
            let is_collect = t.text == "collect";
            self.seed_site(site, is_collect);
            self.pos += 1;
            return;
        }

        // Chained adapters appear as bare idents (`(0..n).filter(..)…`):
        // a length-changing one invalidates the known-length chain.
        if self.pending_range.is_some()
            && breaks_known_length(&t.text)
            && self.tok(self.pos + 1).is_some_and(|p| p.is_punct('('))
        {
            self.pending_range = None;
            self.pos += 1;
            return;
        }

        // `recv.method(…)` — the shapes the alias map cares about.
        if self.tok(self.pos + 1).is_some_and(|p| p.is_punct('.')) {
            let mi = self.pos + 2;
            if let Some(m) = self.tok(mi).filter(|m| m.kind == TokenKind::Ident) {
                let recv = t.text.clone();
                let method = m.text.clone();
                let mut paren = mi + 1;
                if self.is_path_sep(paren)
                    && self.tok(paren + 2).is_some_and(|t| t.is_punct('<'))
                {
                    // `recv.method::<T>(` turbofish: hop the generics.
                    let mut depth = 0i32;
                    let mut g = paren + 2;
                    while let Some(t) = self.tok(g) {
                        if t.is_punct('<') {
                            depth += 1;
                        } else if t.is_punct('>') {
                            depth -= 1;
                            if depth == 0 {
                                g += 1;
                                break;
                            }
                        }
                        g += 1;
                    }
                    paren = g;
                }
                if self.tok(paren).is_some_and(|t| t.is_punct('(')) {
                    // The method token may itself be a site constructor
                    // (context sites anchor to `named_*_context`, collect
                    // sites to `collect`).
                    let m_tok = &self.toks[mi];
                    if let Some(&site) = self.site_at.get(&(m_tok.line, m_tok.col)) {
                        let is_collect = method == "collect";
                        self.seed_site(site, is_collect);
                        self.pos = paren + 1;
                        return;
                    }
                    // `handle.spawn(..)` / `scope.spawn(..)`: same escape
                    // as the free-function form.
                    if method == "spawn" {
                        let (escaped, end) = self.tracked_in_parens(paren);
                        self.mark_spawned(&escaped, self.pos);
                        self.pos = end;
                        return;
                    }
                    let sites = self.tracked(&recv);
                    self.note_use(&recv, self.pos);
                    if breaks_known_length(&method) {
                        self.pending_range = None;
                    }
                    if method == "clone" && !sites.is_empty() {
                        let in_loop = !self.loops.is_empty();
                        let bound = self.pending_let.clone();
                        for &s in &sites {
                            let clones = &mut self.facts[s].clones;
                            clones.count = clones.count.saturating_add(1);
                            clones.in_loop |= in_loop;
                            // Only a *bound* clone is a live version; a
                            // transient `v.clone().len()` dies immediately.
                            if bound.is_some() {
                                clones.max_live_versions =
                                    clones.max_live_versions.max(clones.count + 1);
                            }
                        }
                        if let Some(binding) = bound {
                            self.alias(&binding, &sites);
                        }
                    } else if is_handle_method(&method) && !sites.is_empty() {
                        if let Some(binding) = self.pending_let.clone() {
                            self.alias(&binding, &sites);
                        }
                    } else if is_populating_method(&method) && !sites.is_empty() {
                        if let Some(product) = self.bounded_trip_product() {
                            for &s in &sites {
                                let cap = &mut self.facts[s].capacity;
                                cap.bounded_pushes = cap.bounded_pushes.saturating_add(product);
                                let bound = cap.bounded_pushes;
                                match cap.bound {
                                    Some(CapacityBound::Exact(cur)) if cur >= bound => {}
                                    _ => cap.bound = Some(CapacityBound::Exact(bound)),
                                }
                            }
                        }
                    } else if matches!(method.as_str(), "extend" | "extend_from_slice")
                        && !sites.is_empty()
                    {
                        // `v.extend(0..n)` is exact; `v.extend(xs)` records
                        // a length-of dependence when no bound exists yet.
                        let exact = self.literal_range(paren + 1).map(|(n, _)| n);
                        let len_of = self
                            .tok(paren + 1)
                            .filter(|a| a.kind == TokenKind::Ident)
                            .map(|a| a.text.clone());
                        for &s in &sites {
                            let cap = &mut self.facts[s].capacity;
                            match (exact, &cap.bound) {
                                (Some(n), Some(CapacityBound::Exact(cur))) if *cur >= n => {}
                                (Some(n), _) => cap.bound = Some(CapacityBound::Exact(n)),
                                (None, None) => {
                                    if let Some(src) = &len_of {
                                        cap.bound = Some(CapacityBound::LenOf(src.clone()));
                                    }
                                }
                                _ => {}
                            }
                        }
                    } else if is_screaming_case(&recv)
                        && matches!(method.as_str(), "set" | "get_or_init" | "store" | "lock")
                    {
                        let (escaped, _) = self.tracked_in_parens(paren);
                        for s in escaped {
                            self.facts[s].escape.static_sink = true;
                        }
                    }
                    self.pos = paren + 1;
                    return;
                }
            }
        }

        // Bare tracked ident: a use (args, trailing expression, …).
        let name = t.text.clone();
        let sites = self.tracked(&name);
        if !sites.is_empty() {
            self.note_use(&name, self.pos);
            // Trailing-expression return: `… x }` at the end of a block.
            if self.tok(self.pos + 1).is_some_and(|n| n.is_punct('}')) {
                for s in sites {
                    self.facts[s].escape.returned = true;
                }
            }
        }
        self.pos += 1;
    }
}

/// Runs the dataflow pass over one file, returning facts parallel to
/// `analysis.sites` (the [`extract`](crate::extract::extract) output for
/// the same source, which seeds the alias map).
///
/// # Examples
///
/// ```
/// use cs_analyzer::{dataflow_file, extract, ExtractOptions};
///
/// let src = r#"
/// fn snapshots(ticks: &[u64]) -> Vec<usize> {
///     let mut journal = Vec::new();
///     let mut sizes = Vec::new();
///     for t in ticks {
///         journal.push(*t);
///         let snap = journal.clone();
///         sizes.push(snap.len());
///     }
///     sizes
/// }
/// "#;
/// let analysis = extract("t.rs", src, ExtractOptions::default());
/// let facts = dataflow_file(src, &analysis, ExtractOptions::default());
/// let journal = &facts[0];
/// assert!(journal.clones.in_loop);
/// assert!(journal.persistent_candidate());
/// assert!(facts[1].escape.returned, "`sizes` is returned");
/// ```
pub fn dataflow_file(
    src: &str,
    analysis: &FileAnalysis,
    opts: ExtractOptions,
) -> Vec<SiteFacts> {
    let toks = lex(src);
    let mut site_at = HashMap::new();
    let mut facts = Vec::with_capacity(analysis.sites.len());
    for (i, site) in analysis.sites.iter().enumerate() {
        site_at.insert((site.line, site.col), i);
        let mut f = SiteFacts::default();
        if let Some(b) = &site.binding {
            f.aliases.push(b.clone());
        }
        facts.push(f);
    }
    let mut flow = Flow {
        toks: &toks,
        pos: 0,
        opts,
        depth: 0,
        items: Vec::new(),
        loops: Vec::new(),
        pending_test_attr: false,
        pending_item: false,
        pending_loop: None,
        pending_let: None,
        pending_range: None,
        site_at,
        spawned: vec![None; analysis.sites.len()],
        facts,
    };
    // Pre-seed bindings: a site's declared binding aliases it from the
    // start of its item (the seed also fires at the constructor token, but
    // usage can precede the constructor textually only in pathological
    // macro output, so the token-order seed is the one that matters).
    flow.scan();
    flow.facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;

    fn run(src: &str) -> Vec<SiteFacts> {
        let analysis = extract("t.rs", src, ExtractOptions::default());
        dataflow_file(src, &analysis, ExtractOptions::default())
    }

    #[test]
    fn spawn_capture_is_an_escape() {
        let src = r#"
fn f() {
    let mut seen = HashSet::new();
    seen.insert(1u64);
    std::thread::spawn(move || {
        seen.insert(2u64);
    });
}
"#;
        let facts = run(src);
        assert!(facts[0].escape.spawn);
        assert!(!facts[0].escape.used_after_spawn);
        assert!(facts[0].escape.escapes_concurrently());
        assert!(!facts[0].escape.shared_without_sync());
    }

    #[test]
    fn spawn_then_use_is_race_shaped() {
        let src = r#"
fn f() {
    let mut seen = HashSet::new();
    std::thread::scope(|s| {
        s.spawn(|| seen.contains(&1u64));
        seen.insert(2u64);
    });
}
"#;
        let facts = run(src);
        assert!(facts[0].escape.spawn);
        assert!(facts[0].escape.used_after_spawn);
        assert!(facts[0].escape.shared_without_sync());
    }

    #[test]
    fn arc_mutex_wrap_is_synchronized() {
        let src = r#"
fn f() {
    let mut counters = HashMap::new();
    counters.insert(1u64, 0u64);
    let shared = Arc::new(Mutex::new(counters));
    std::thread::spawn(move || {
        shared.lock();
    });
}
"#;
        let facts = run(src);
        assert!(facts[0].escape.arc);
        assert!(facts[0].escape.mutex);
        assert!(facts[0].escape.spawn, "the Arc alias reaches the spawn");
        assert!(!facts[0].escape.shared_without_sync());
    }

    #[test]
    fn moves_transfer_and_kill() {
        let src = r#"
fn f() {
    let journal = Vec::new();
    let log = journal;
    log.push(1);
    return log;
}
"#;
        let facts = run(src);
        assert!(facts[0].aliases.contains(&"log".to_owned()));
        assert!(facts[0].escape.returned);
    }

    #[test]
    fn borrows_alias_without_killing() {
        let src = r#"
fn f() {
    let journal = Vec::new();
    let view = &journal;
    view.contains(&1);
    journal.push(1);
}
"#;
        let facts = run(src);
        assert!(facts[0].aliases.contains(&"view".to_owned()));
        assert!(facts[0].aliases.contains(&"journal".to_owned()));
    }

    #[test]
    fn clone_in_loop_marks_persistent_candidate() {
        let src = r#"
fn f(n: usize) {
    let mut journal = Vec::new();
    for _ in 0..n {
        journal.push(1);
        let snap = journal.clone();
        snap.len();
    }
}
"#;
        let facts = run(src);
        assert!(facts[0].clones.in_loop);
        assert_eq!(facts[0].clones.count, 1);
        assert!(facts[0].persistent_candidate());
        assert!(facts[0].clones.max_live_versions >= 2);
    }

    #[test]
    fn single_clone_outside_loops_is_not_persistent_shaped_alone() {
        let src = r#"
fn f() {
    let journal = Vec::new();
    journal.push(1);
    let backup = journal.clone();
    backup.len();
}
"#;
        let facts = run(src);
        assert_eq!(facts[0].clones.count, 1);
        assert_eq!(facts[0].clones.max_live_versions, 2);
        assert!(!facts[0].persistent_candidate());
    }

    #[test]
    fn multiple_bound_clones_are_persistent_shaped() {
        let src = r#"
fn f() {
    let journal = Vec::new();
    journal.push(1);
    let gen1 = journal.clone();
    let gen2 = journal.clone();
    gen1.len();
    gen2.len();
}
"#;
        let facts = run(src);
        assert_eq!(facts[0].clones.count, 2);
        assert_eq!(facts[0].clones.max_live_versions, 3);
        assert!(facts[0].persistent_candidate());
    }

    #[test]
    fn bounded_loop_pushes_yield_exact_capacity() {
        let src = r#"
fn f() {
    let mut grid = Vec::new();
    for _ in 0..8 {
        for _ in 0..16 {
            grid.push(0u8);
        }
    }
}
"#;
        let facts = run(src);
        assert_eq!(facts[0].capacity.exact(), Some(128));
        assert_eq!(facts[0].capacity.bounded_pushes, 128);
    }

    #[test]
    fn unbounded_loop_defeats_the_bound() {
        let src = r#"
fn f(xs: &[u8]) {
    let mut out = Vec::new();
    for x in xs {
        for _ in 0..4 {
            out.push(*x);
        }
    }
}
"#;
        let facts = run(src);
        assert_eq!(facts[0].capacity.bound, None);
    }

    #[test]
    fn extend_records_exact_and_len_of_bounds() {
        let src = r#"
fn f(xs: &[u64]) {
    let mut a = Vec::new();
    a.extend(0..64);
    let mut b = Vec::new();
    b.extend(xs);
}
"#;
        let facts = run(src);
        assert_eq!(facts[0].capacity.exact(), Some(64));
        assert_eq!(
            facts[1].capacity.bound,
            Some(CapacityBound::LenOf("xs".to_owned()))
        );
    }

    #[test]
    fn known_length_collect_is_bounded_unless_filtered() {
        let src = r#"
fn f() {
    let squares: Vec<u64> = (0..256).map(|i| i * i).collect();
    let odds: Vec<u64> = (0..256).filter(|i| i % 2 == 1).collect();
    squares.len();
    odds.len();
}
"#;
        let facts = run(src);
        assert_eq!(facts[0].capacity.exact(), Some(256));
        assert_eq!(facts[1].capacity.bound, None, "filter breaks the length");
    }

    #[test]
    fn handle_returns_alias_context_sites() {
        let src = r#"
fn f(engine: &Switch) {
    let ctx = engine.named_list_context::<i64>(ListKind::Array, "h");
    let mut list = ctx.create_list();
    for i in 0..64 {
        list.push(i);
    }
}
"#;
        let facts = run(src);
        assert!(facts[0].aliases.contains(&"list".to_owned()));
        assert_eq!(facts[0].capacity.exact(), Some(64));
    }

    #[test]
    fn static_sinks_and_box_leak_escape() {
        let src = r#"
fn f() {
    let table = HashMap::new();
    GLOBAL_TABLE.set(table);
    let pool = Vec::new();
    let leaked = Box::leak(Box::new(pool));
}
"#;
        let facts = run(src);
        assert!(facts[0].escape.static_sink);
        assert!(facts[1].escape.static_sink);
    }

    #[test]
    fn cfg_test_items_are_skipped_like_extract() {
        let src = r#"
fn prod() {
    let v = Vec::new();
    v.push(1);
}
#[cfg(test)]
mod tests {
    fn t() {
        let w = Vec::new();
        std::thread::spawn(move || w.len());
    }
}
"#;
        let analysis = extract("t.rs", src, ExtractOptions::default());
        assert_eq!(analysis.sites.len(), 1, "extract skipped the test mod");
        let facts = dataflow_file(src, &analysis, ExtractOptions::default());
        assert_eq!(facts.len(), 1);
        assert!(!facts[0].escape.spawn);
    }

    #[test]
    fn facts_are_per_item_not_cross_function() {
        let src = r#"
fn a() {
    let seen = Vec::new();
    seen.push(1);
}
fn b() {
    let seen = Vec::new();
    std::thread::spawn(move || seen.len());
}
"#;
        let facts = run(src);
        assert!(!facts[0].escape.spawn, "fn a's `seen` never escapes");
        assert!(facts[1].escape.spawn);
    }
}
