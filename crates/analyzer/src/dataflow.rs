//! Intraprocedural dataflow over collection bindings: the CFG-lite second
//! pass behind the advisor's escape, capacity, and clone facts.
//!
//! The [extractor](crate::extract()) answers *where* a collection is born and
//! *which methods* its binding receives. This pass answers where the value
//! **goes**: [`extract`](crate::extract()) runs it over the same tokens with
//! the same scope walker, seeds an alias map per item from the extracted
//! [`StaticSite`]s, and tracks each site's value through
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
//!
//! # Examples
//!
//! ```
//! use cs_analyzer::{extract, ExtractOptions};
//!
//! let src = r#"
//! fn snapshots(ticks: &[u64]) -> Vec<usize> {
//!     let mut journal = Vec::new();
//!     let mut sizes = Vec::new();
//!     for t in ticks {
//!         journal.push(*t);
//!         let snap = journal.clone();
//!         sizes.push(snap.len());
//!     }
//!     sizes
//! }
//! "#;
//! let facts = extract("t.rs", src, ExtractOptions::default()).flows;
//! let journal = &facts[0];
//! assert!(journal.clones.in_loop);
//! assert!(journal.persistent_candidate());
//! assert!(facts[1].escape.returned, "`sizes` is returned");
//! ```

use std::collections::HashMap;

use crate::extract::{ExtractOptions, StaticSite};
use crate::lexer::{Token, TokenKind};
use crate::walk::{Step, Walker};

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

/// Everything the dataflow pass derived for one [`StaticSite`], parallel to
/// [`FileAnalysis::sites`](crate::FileAnalysis::sites).
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

#[derive(Default)]
struct Flow<'a> {
    w: Walker<'a>,
    /// Alias map of each enclosing item, innermost last: binding name →
    /// indices into the site list.
    scopes: Vec<HashMap<String, Vec<usize>>>,
    /// `let` binding awaiting its initializer.
    pending_let: Option<String>,
    /// A known-length iterator head (`(a..b)`) seen in the current
    /// statement, still length-preserving so far.
    pending_range: Option<u64>,
    /// Token index of each site's constructor token, ascending.
    site_toks: &'a [usize],
    facts: Vec<SiteFacts>,
    /// Sites that have escaped into a `spawn` already (token position),
    /// for the flow-sensitive used-after-spawn bit.
    spawned: Vec<Option<usize>>,
}

impl<'a> Flow<'a> {
    /// The site whose constructor token sits at index `i`, if any.
    fn site_at(&self, i: usize) -> Option<usize> {
        self.site_toks.binary_search(&i).ok()
    }

    fn tracked(&self, name: &str) -> Vec<usize> {
        self.scopes
            .last()
            .and_then(|m| m.get(name))
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
        if let Some(map) = self.scopes.last_mut() {
            let entry = map.entry(name.to_owned()).or_default();
            for &s in sites {
                if !entry.contains(&s) {
                    entry.push(s);
                }
            }
        }
    }

    fn kill(&mut self, name: &str) {
        if let Some(map) = self.scopes.last_mut() {
            map.remove(name);
        }
    }

    /// All enclosing loops literal-bounded? Their trip product, else `None`.
    fn bounded_trip_product(&self) -> Option<u64> {
        if self.w.loops.is_empty() {
            return None;
        }
        let mut product: u64 = 1;
        for frame in &self.w.loops {
            product = product.saturating_mul(frame.trip?);
        }
        Some(product)
    }

    /// Scans the balanced `(..)` starting at `paren` for tracked idents,
    /// returning every aliased site (deduplicated) and the index past the
    /// closing paren. With `inline`, sites *constructed* inside the parens
    /// count too: `Arc::new(Mutex::new(Vec::with_capacity(n)))` wraps a
    /// site that has no binding of its own yet. Wrappers only — a
    /// constructor inside `spawn(..)` args usually sits in the closure body
    /// and lives entirely on the spawned thread, which is not an escape.
    fn sites_in_parens(&self, paren: usize, inline: bool) -> (Vec<usize>, usize) {
        let mut sites = Vec::new();
        let mut depth = 0i32;
        let mut i = paren;
        while let Some(t) = self.w.tok(i) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    return (sites, i + 1);
                }
            } else if t.kind == TokenKind::Ident {
                let built_here = self.site_at(i).filter(|_| inline);
                for s in self.tracked(&t.text).into_iter().chain(built_here) {
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

    fn scan(&mut self) {
        while let Some(step) = self.w.step() {
            match step {
                Step::Token if self.w.cur().kind == TokenKind::Ident => self.scan_ident(),
                // A literal range head opens a known-length chain (a loop
                // header's counts as the loop's trip count instead).
                Step::Token => match self.w.literal_range(self.w.pos) {
                    Some((trip, end)) if !self.w.in_loop_header() => {
                        self.pending_range = Some(trip);
                        self.w.pos = end;
                    }
                    _ => self.w.pos += 1,
                },
                Step::ItemOpened => self.scopes.push(HashMap::new()),
                Step::Closed { item: true } => {
                    self.scopes.pop();
                }
                Step::End => {
                    self.pending_let = None;
                    self.pending_range = None;
                }
                Step::For(in_at) => self.scan_for(in_at),
                _ => {}
            }
        }
    }

    fn scan_ident(&mut self) {
        let pos = self.w.pos;
        match self.w.cur().text.as_str() {
            "let" => {
                self.scan_let();
            }
            "return" => {
                if let Some(next) = self.w.tok(pos + 1) {
                    if next.kind == TokenKind::Ident {
                        for s in self.tracked(&next.text) {
                            self.facts[s].escape.returned = true;
                        }
                    }
                }
                self.w.pos += 1;
            }
            "spawn" if self.w.tok(pos + 1).is_some_and(|t| t.is_punct('(')) => {
                let (sites, end) = self.sites_in_parens(pos + 1, false);
                self.mark_spawned(&sites, pos);
                // Aliases inside the argument list are captures, not uses.
                self.w.pos = end;
            }
            // `::clone` too: `let worker = Arc::clone(&shared);` re-wraps the
            // same sites and must alias the new binding, or the canonical
            // clone-then-spawn sharing idiom loses its spawn fact.
            "Arc" | "Mutex" | "RwLock"
                if matches!(self.w.path_call(pos), Some("new" | "from" | "clone")) =>
            {
                self.scan_wrapper();
            }
            "Box" if self.w.path_call(pos) == Some("leak") => {
                let (sites, end) = self.sites_in_parens(pos + 4, false);
                for s in sites {
                    self.facts[s].escape.static_sink = true;
                }
                self.w.pos = end;
            }
            _ => self.scan_expr_ident(),
        }
    }

    fn scan_wrapper(&mut self) {
        let wrapper = self.w.cur().text.as_str();
        let (sites, _) = self.sites_in_parens(self.w.pos + 4, true);
        for &s in &sites {
            match wrapper {
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
        self.w.pos += 5;
    }

    /// A `for <pat> in <expr> {` header with its `in` at `in_at`: iterating
    /// a tracked receiver is a use (used-after-spawn). The walker keeps the
    /// loop's literal trip count.
    fn scan_for(&mut self, in_at: usize) {
        let j = self.w.iterated(in_at);
        if self.w.literal_range(j).is_none() {
            if let Some(recv) = self.w.tok(j).filter(|t| t.kind == TokenKind::Ident) {
                self.note_use(&recv.text, j);
            }
        }
    }

    /// `let [mut] name …` — tracks the binding and resolves move/borrow
    /// initializers immediately (`let y = x;`, `let y = &x;`).
    fn scan_let(&mut self) {
        let Some(i) = self.w.let_binding() else {
            self.w.pos += 1;
            return;
        };
        let name = self.w.toks[i].text.as_str();
        self.pending_let = Some(name.to_owned());
        // Skip a `: Type` ascription up to `=` / `;` (types carry `<…>`
        // but never `(` at statement level in the patterns we track).
        let mut j = i + 1;
        let mut guard = 0;
        while let Some(t) = self.w.tok(j) {
            if t.is_punct('=') || t.is_punct(';') {
                break;
            }
            j += 1;
            guard += 1;
            if guard > 48 {
                self.w.pos = i + 1;
                return;
            }
        }
        if self.w.tok(j).is_some_and(|t| t.is_punct(';')) {
            self.w.pos = j;
            return;
        }
        // Initializer starts at j+1.
        let mut k = j + 1;
        let mut borrow = false;
        while self
            .w
            .tok(k)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            borrow |= self.w.tok(k).is_some_and(|t| t.is_punct('&'));
            k += 1;
        }
        if let Some(src) = self.w.tok(k).filter(|t| t.kind == TokenKind::Ident) {
            let src_name = src.text.as_str();
            let sites = self.tracked(src_name);
            if !sites.is_empty() {
                match self.w.tok(k + 1) {
                    // `let y = x;` / `let y = &x;` — move or borrow.
                    Some(t) if t.is_punct(';') => {
                        self.alias(name, &sites);
                        if !borrow {
                            self.kill(src_name);
                        }
                        self.w.pos = k + 1;
                        return;
                    }
                    // `let y = x.clone();` and `let h = ctx.create_list();`
                    // resolve in scan_expr_ident via pending_let.
                    _ => {}
                }
            }
        }
        self.w.pos = i + 1;
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
        let t = self.w.cur();

        // Seed: this token is a known site's constructor token (type heads
        // like `Vec`, or chained `collect`).
        if let Some(site) = self.site_at(self.w.pos) {
            let is_collect = t.text == "collect";
            self.seed_site(site, is_collect);
            self.w.pos += 1;
            return;
        }

        // Chained adapters appear as bare idents (`(0..n).filter(..)…`):
        // a length-changing one invalidates the known-length chain.
        if self.pending_range.is_some()
            && breaks_known_length(&t.text)
            && self.w.tok(self.w.pos + 1).is_some_and(|p| p.is_punct('('))
        {
            self.pending_range = None;
            self.w.pos += 1;
            return;
        }

        // `recv.method(…)` — the shapes the alias map cares about.
        if let Some((mi, paren)) = self.w.method_call(self.w.pos) {
            let recv = t.text.as_str();
            let method = self.w.toks[mi].text.as_str();
            // The method token may itself be a site constructor
            // (context sites anchor to `named_*_context`, collect
            // sites to `collect`).
            if let Some(site) = self.site_at(mi) {
                let is_collect = method == "collect";
                self.seed_site(site, is_collect);
                self.w.pos = paren + 1;
                return;
            }
            // `handle.spawn(..)` / `scope.spawn(..)`: same escape
            // as the free-function form.
            if method == "spawn" {
                let (escaped, end) = self.sites_in_parens(paren, false);
                self.mark_spawned(&escaped, self.w.pos);
                self.w.pos = end;
                return;
            }
            let sites = self.tracked(recv);
            self.note_use(recv, self.w.pos);
            if breaks_known_length(method) {
                self.pending_range = None;
            }
            if method == "clone" && !sites.is_empty() {
                let in_loop = !self.w.loops.is_empty();
                let bound = self.pending_let.clone();
                for &s in &sites {
                    let clones = &mut self.facts[s].clones;
                    clones.count = clones.count.saturating_add(1);
                    clones.in_loop |= in_loop;
                    // Only a *bound* clone is a live version; a
                    // transient `v.clone().len()` dies immediately.
                    if bound.is_some() {
                        clones.max_live_versions = clones.max_live_versions.max(clones.count + 1);
                    }
                }
                if let Some(binding) = bound {
                    self.alias(&binding, &sites);
                }
            } else if is_handle_method(method) && !sites.is_empty() {
                if let Some(binding) = self.pending_let.clone() {
                    self.alias(&binding, &sites);
                }
            } else if is_populating_method(method) && !sites.is_empty() {
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
            } else if matches!(method, "extend" | "extend_from_slice") && !sites.is_empty() {
                // `v.extend(0..n)` is exact; `v.extend(xs)` records
                // a length-of dependence when no bound exists yet.
                let exact = self.w.literal_range(paren + 1).map(|(n, _)| n);
                let len_of = self
                    .w
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
            } else if is_screaming_case(recv)
                && matches!(method, "set" | "get_or_init" | "store" | "lock")
            {
                let (escaped, _) = self.sites_in_parens(paren, false);
                for s in escaped {
                    self.facts[s].escape.static_sink = true;
                }
            }
            self.w.pos = paren + 1;
            return;
        }

        // Bare tracked ident: a use (args, trailing expression, …).
        let name = t.text.clone();
        let sites = self.tracked(&name);
        if !sites.is_empty() {
            self.note_use(&name, self.w.pos);
            // Trailing-expression return: `… x }` at the end of a block.
            if self.w.tok(self.w.pos + 1).is_some_and(|n| n.is_punct('}')) {
                for s in sites {
                    self.facts[s].escape.returned = true;
                }
            }
        }
        self.w.pos += 1;
    }
}

/// Runs the dataflow pass over one file's tokens, returning facts parallel
/// to `sites`. `site_toks` holds each site's constructor-token index, as
/// extraction over the same tokens found them; the pass seeds each site
/// there and aliases its declared binding.
pub(crate) fn flows(
    toks: &[Token],
    sites: &[StaticSite],
    site_toks: &[usize],
    opts: ExtractOptions,
) -> Vec<SiteFacts> {
    let facts = sites
        .iter()
        .map(|site| SiteFacts {
            aliases: site.binding.iter().cloned().collect(),
            ..SiteFacts::default()
        })
        .collect();
    let mut flow = Flow {
        w: Walker::new(toks, opts.skip_cfg_test),
        site_toks,
        facts,
        spawned: vec![None; sites.len()],
        ..Flow::default()
    };
    flow.scan();
    flow.facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;

    fn run(src: &str) -> Vec<SiteFacts> {
        extract("t.rs", src, ExtractOptions::default()).flows
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
        assert_eq!(analysis.flows.len(), 1);
        assert!(!analysis.flows[0].escape.spawn);
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
