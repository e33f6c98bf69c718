//! Allocation-site extraction and usage-fact collection.
//!
//! One pass over the [lexed](crate::lexer) token stream yields:
//!
//! * [`StaticSite`] — every collection allocation site: `std` constructors
//!   (`Vec::new`, `HashMap::with_capacity`, …), `cs_collections` constructors
//!   (`AnyList::new(ListKind::Array)`, adaptive wrappers), and CollectionSwitch
//!   context/runtime registrations (`engine.named_set_context(…)`,
//!   `runtime.concurrent_map(…)`). Each carries a *stable fingerprint* —
//!   `path::enclosing_item#ordinal` — that survives line-number churn, plus
//!   the exact `line:col` for diagnostics.
//! * [`MethodFact`] — every `binding.method(…)` call and `for … in binding`
//!   loop, with its loop-nest depth, so the [advisor](crate::advise) can
//!   reconstruct a synthetic workload per site.
//!
//! Enclosing items, loop nesting and `#[cfg(test)]` skipping come from the
//! scope walker the dataflow pass and the self-lint share, so all three agree
//! on what a site's item is and which code is test code. [`extract`] also
//! runs the [dataflow pass](crate::dataflow) over the same tokens, so each
//! file is lexed once.

use std::fmt;

use cs_collections::{Abstraction, ListKind, MapKind, SetKind};

use crate::dataflow::SiteFacts;
use crate::lexer::{lex, Token, TokenKind};
use crate::walk::{Step, Walker};

/// What a site constructs, mapped into the model's kind space when possible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeclaredVariant {
    /// A list variant with a cost model.
    List(ListKind),
    /// A set variant with a cost model.
    Set(SetKind),
    /// A map variant with a cost model.
    Map(MapKind),
    /// A collection the models do not cover (`BTreeMap`, `VecDeque`, …):
    /// listed in the manifest, skipped by the advisor.
    Unmodeled(Abstraction),
}

impl DeclaredVariant {
    /// The abstraction this site belongs to.
    pub fn abstraction(self) -> Abstraction {
        match self {
            DeclaredVariant::List(_) => Abstraction::List,
            DeclaredVariant::Set(_) => Abstraction::Set,
            DeclaredVariant::Map(_) => Abstraction::Map,
            DeclaredVariant::Unmodeled(a) => a,
        }
    }

    /// The declared variant's model name, or `None` when unmodeled.
    pub fn kind_name(self) -> Option<String> {
        match self {
            DeclaredVariant::List(k) => Some(k.to_string()),
            DeclaredVariant::Set(k) => Some(k.to_string()),
            DeclaredVariant::Map(k) => Some(k.to_string()),
            DeclaredVariant::Unmodeled(_) => None,
        }
    }
}

/// How the site allocates: which API family the constructor belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteCategory {
    /// A plain `std::collections` (or `Vec`) constructor.
    Std,
    /// A `cs_collections` variant constructor (`AnyList::new`, wrappers).
    CsCollections,
    /// An engine allocation context (`list_context`, `named_map_context`).
    Context,
    /// A concurrent runtime site (`concurrent_map`, `named_concurrent_set`).
    Runtime,
}

impl fmt::Display for SiteCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SiteCategory::Std => "std",
            SiteCategory::CsCollections => "cs-collections",
            SiteCategory::Context => "context",
            SiteCategory::Runtime => "runtime",
        };
        f.write_str(s)
    }
}

/// One collection allocation site found in source.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticSite {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line of the constructor token.
    pub line: u32,
    /// 1-based column of the constructor token.
    pub col: u32,
    /// Enclosing item path (`mod::fn`), or `top` at file scope.
    pub item: String,
    /// 0-based index among the sites of the same enclosing item.
    pub ordinal: u32,
    /// Constructor spelling, e.g. `Vec::with_capacity` or `named_set_context`.
    pub constructor: String,
    /// What the site constructs.
    pub declared: DeclaredVariant,
    /// API family of the constructor.
    pub category: SiteCategory,
    /// The `let` binding the site initializes, when directly bound.
    pub binding: Option<String>,
    /// Capacity from a literal `with_capacity(n)` argument.
    pub capacity_hint: Option<u64>,
    /// Explicit site name from a literal `named_*` argument.
    pub declared_name: Option<String>,
    /// `true` when the site sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

impl StaticSite {
    /// The stable fingerprint: `path::item#ordinal`. Resilient to line
    /// drift (formatting, unrelated edits) while still unique per item.
    pub fn fingerprint(&self) -> String {
        format!("{}::{}#{}", self.path, self.item, self.ordinal)
    }

    /// `file:line` form for human-facing diagnostics.
    pub fn location(&self) -> String {
        format!("{}:{}", self.path, self.line)
    }
}

/// One observed `receiver.method(…)` call or `for … in receiver` loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodFact {
    /// The receiver binding name.
    pub receiver: String,
    /// Method name; the pseudo-method `for_in` records loop iteration.
    pub method: String,
    /// Enclosing item path at the call, matching [`StaticSite::item`].
    pub item: String,
    /// `for`/`while`/`loop` nesting depth at the call.
    pub loop_depth: u32,
    /// 1-based source line.
    pub line: u32,
}

/// Extraction output for one source file.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Allocation sites, in source order.
    pub sites: Vec<StaticSite>,
    /// Usage facts, in source order.
    pub facts: Vec<MethodFact>,
    /// Dataflow facts per site, parallel to `sites`.
    pub flows: Vec<SiteFacts>,
}

/// Options for [`extract`].
#[derive(Debug, Clone, Copy)]
pub struct ExtractOptions {
    /// Skip items (and whole modules) guarded by `#[cfg(test)]`.
    pub skip_cfg_test: bool,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            skip_cfg_test: true,
        }
    }
}

/// `std` / `cs_collections` type names the extractor recognizes, mapped to
/// what their default construction yields.
fn type_table(name: &str) -> Option<(DeclaredVariant, SiteCategory)> {
    use DeclaredVariant as V;
    use SiteCategory as C;
    Some(match name {
        "Vec" => (V::List(ListKind::Array), C::Std),
        "LinkedList" => (V::List(ListKind::Linked), C::Std),
        "VecDeque" => (V::Unmodeled(Abstraction::List), C::Std),
        "HashMap" => (V::Map(MapKind::Chained), C::Std),
        "BTreeMap" => (V::Unmodeled(Abstraction::Map), C::Std),
        "HashSet" => (V::Set(SetKind::Chained), C::Std),
        "BTreeSet" => (V::Unmodeled(Abstraction::Set), C::Std),
        "AnyList" => (V::List(ListKind::Array), C::CsCollections),
        "AnySet" => (V::Set(SetKind::Chained), C::CsCollections),
        "AnyMap" => (V::Map(MapKind::Chained), C::CsCollections),
        "ArrayList" => (V::List(ListKind::Array), C::CsCollections),
        "HashArrayList" => (V::List(ListKind::HashArray), C::CsCollections),
        "AdaptiveList" => (V::List(ListKind::Adaptive), C::CsCollections),
        "AdaptiveSet" => (V::Set(SetKind::Adaptive), C::CsCollections),
        "AdaptiveMap" => (V::Map(MapKind::Adaptive), C::CsCollections),
        _ => return None,
    })
}

/// Constructor method names accepted on a recognized type.
fn is_constructor_method(name: &str) -> bool {
    matches!(name, "new" | "with_capacity" | "default")
}

/// Engine/runtime site-creation methods, with abstraction and whether the
/// first argument is the default kind.
fn context_method(name: &str) -> Option<(Abstraction, SiteCategory, bool)> {
    use Abstraction as A;
    use SiteCategory as C;
    Some(match name {
        "list_context" => (A::List, C::Context, false),
        "named_list_context" => (A::List, C::Context, true),
        "set_context" => (A::Set, C::Context, false),
        "named_set_context" => (A::Set, C::Context, true),
        "map_context" => (A::Map, C::Context, false),
        "named_map_context" => (A::Map, C::Context, true),
        "concurrent_set" => (A::Set, C::Runtime, false),
        "named_concurrent_set" => (A::Set, C::Runtime, true),
        "concurrent_map" => (A::Map, C::Runtime, false),
        "named_concurrent_map" => (A::Map, C::Runtime, true),
        _ => return None,
    })
}

/// Paper defaults declared at context creation when the kind argument cannot
/// be parsed (`ListKind::Array`-style first arguments usually can).
fn context_default(abstraction: Abstraction) -> DeclaredVariant {
    match abstraction {
        Abstraction::List => DeclaredVariant::List(ListKind::Array),
        Abstraction::Set => DeclaredVariant::Set(SetKind::Chained),
        Abstraction::Map => DeclaredVariant::Map(MapKind::Chained),
    }
}

#[derive(Default)]
struct Scanner<'a> {
    w: Walker<'a>,
    path: &'a str,
    /// `let` binding awaiting its initializer (cleared at `;` / `=` use).
    pending_let: Option<String>,
    /// Recognized collection type from the binding's `: Type` ascription,
    /// so `let xs: Vec<u64> = … .collect();` anchors a site at the
    /// `collect` even without a turbofish. Cleared at `;` and whenever a
    /// site is pushed (the ascription describes that site's value — a
    /// second `collect` in the same statement must not double-count).
    pending_let_ty: Option<(DeclaredVariant, SiteCategory)>,
    out: FileAnalysis,
    /// Token index of each site's constructor token, parallel to
    /// `out.sites`: where the dataflow pass seeds each site.
    site_toks: Vec<usize>,
    /// Running site ordinal at file scope.
    file_ordinal: u32,
}

impl<'a> Scanner<'a> {
    fn next_ordinal(&mut self) -> u32 {
        let counter = match self.w.items.last_mut() {
            Some(f) => &mut f.ordinal,
            None => &mut self.file_ordinal,
        };
        let n = *counter;
        *counter += 1;
        n
    }

    /// Matches `Type [::<…>] :: method (` with `Type` at the cursor.
    /// Returns `(method index, paren index)`.
    fn match_qualified_call(&self) -> Option<(usize, usize)> {
        let mut head = self.w.pos;
        if self.w.is_path_sep(head + 1) && self.w.tok(head + 3).is_some_and(|t| t.is_punct('<')) {
            // The turbofish's closing `>` stands where the type name would.
            head = self.w.skip_generics(head + 3) - 1;
        }
        self.w.path_call(head).map(|_| (head + 3, head + 4))
    }

    /// Parses a `SomeKind::Variant` argument starting at `i`, returning the
    /// declared variant when the argument is a recognized kind path.
    /// `SetKind::Open(LibraryProfile::Koloboke)` spells two path segments;
    /// the composite maps to `open-koloboke` by probing the inner profile.
    fn parse_kind_arg(&self, i: usize) -> Option<DeclaredVariant> {
        let first = self.w.tok(i)?;
        if first.kind != TokenKind::Ident || !self.w.is_path_sep(i + 1) {
            return None;
        }
        let variant = self.w.tok(i + 3)?;
        if variant.kind != TokenKind::Ident {
            return None;
        }
        let mut name = variant.text.to_lowercase();
        if name == "open" {
            let profile = self
                .w
                .tok(i + 5)
                .filter(|t| t.is_ident("LibraryProfile"))
                .and_then(|_| self.w.tok(i + 8))
                .map(|t| t.text.to_lowercase());
            name = format!("open-{}", profile.as_deref().unwrap_or("koloboke"));
        }
        match first.text.as_str() {
            "ListKind" => name.parse().ok().map(DeclaredVariant::List),
            "SetKind" => name.parse().ok().map(DeclaredVariant::Set),
            "MapKind" => name.parse().ok().map(DeclaredVariant::Map),
            _ => None,
        }
    }

    /// Finds the first string literal among the call arguments starting at
    /// the token after `(` at `paren`, scanning to the matching `)`. Used
    /// for `named_*(…, "site-name")` capture.
    fn literal_str_arg(&self, paren: usize) -> Option<String> {
        let mut depth = 0i32;
        let mut i = paren;
        while let Some(t) = self.w.tok(i) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            } else if t.kind == TokenKind::Str && depth == 1 {
                return Some(t.text.clone());
            }
            i += 1;
        }
        None
    }

    /// A literal integer first argument (capacity hint), if present.
    fn literal_int_arg(&self, paren: usize) -> Option<u64> {
        let arg = self.w.tok(paren + 1)?;
        if self
            .w
            .tok(paren + 2)
            .is_some_and(|t| t.is_punct(')') || t.is_punct(','))
        {
            arg.int_value()
        } else {
            None
        }
    }

    /// Records a site whose constructor token sits at index `at`.
    fn push_site(
        &mut self,
        at: usize,
        constructor: String,
        declared: DeclaredVariant,
        category: SiteCategory,
        capacity_hint: Option<u64>,
        declared_name: Option<String>,
    ) {
        let tok = &self.w.toks[at];
        let ordinal = self.next_ordinal();
        let site = StaticSite {
            path: self.path.to_owned(),
            line: tok.line,
            col: tok.col,
            item: self.w.item_path(),
            ordinal,
            constructor,
            declared,
            category,
            binding: self.pending_let.clone(),
            capacity_hint,
            declared_name,
            in_test: self.w.in_test(),
        };
        self.out.sites.push(site);
        self.site_toks.push(at);
        self.pending_let_ty = None;
    }

    fn scan(&mut self) {
        while let Some(step) = self.w.step() {
            match step {
                Step::Token if self.w.cur().is_ident("let") => {
                    if let Some(at) = self.w.let_binding() {
                        self.pending_let = Some(self.w.toks[at].text.clone());
                        self.pending_let_ty = self.let_ascription_type(at);
                    }
                    self.w.pos += 1;
                }
                Step::Token if self.w.cur().kind == TokenKind::Ident => self.scan_expr_ident(),
                Step::Token => self.w.pos += 1,
                Step::End => {
                    self.pending_let = None;
                    self.pending_let_ty = None;
                }
                Step::For(in_at) => self.scan_for_in(in_at),
                _ => {}
            }
        }
    }

    /// With the cursor at a `collect` ident: the declared variant this
    /// collect materializes plus the index of its call paren, when the
    /// target type is recognizable. Turbofish wins over the pending `let`
    /// ascription (it is syntactically closer to the call).
    fn collect_site_type(&self) -> Option<((DeclaredVariant, SiteCategory), usize)> {
        let pos = self.w.pos;
        // `collect ::< Type … > (`
        if self.w.is_path_sep(pos + 1) && self.w.tok(pos + 3).is_some_and(|t| t.is_punct('<')) {
            let paren = self.w.skip_generics(pos + 3);
            if !self.w.tok(paren).is_some_and(|t| t.is_punct('(')) {
                return None;
            }
            // Head type: last path ident before the nested `<` (or the
            // closing `>` for non-generic spellings).
            let mut i = pos + 4;
            let mut head: Option<&str> = None;
            while let Some(t) = self.w.tok(i) {
                if t.is_punct('<') || t.is_punct('>') {
                    break;
                }
                if t.kind == TokenKind::Ident {
                    head = Some(t.text.as_str());
                }
                i += 1;
            }
            return head.and_then(type_table).map(|d| (d, paren));
        }
        // Plain `collect()` with a recognized `let … : Type =` ascription.
        if self.w.tok(pos + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(decl) = self.pending_let_ty {
                return Some((decl, pos + 1));
            }
        }
        None
    }

    /// The recognized collection type of the `: Type` ascription after the
    /// `let` binding named at `name_at`, if any. Takes the head type ident
    /// before the first `<` (`Vec<Vec<u64>>` → `Vec`,
    /// `std::collections::HashMap<K, V>` → `HashMap`); wrappers like
    /// `Option<Vec<_>>` head at the wrapper and stay unrecognized, which is
    /// the conservative answer.
    fn let_ascription_type(&self, name_at: usize) -> Option<(DeclaredVariant, SiteCategory)> {
        let mut i = name_at + 1;
        if !self.w.tok(i).is_some_and(|t| t.is_punct(':')) || self.w.is_path_sep(i) {
            return None;
        }
        i += 1;
        let mut head = None;
        let mut guard = 0;
        while let Some(t) = self.w.tok(i) {
            if t.is_punct('<') || t.is_punct('=') || t.is_punct(';') {
                break;
            }
            if t.kind == TokenKind::Ident {
                head = Some(t.text.as_str());
            } else if !t.is_punct(':') {
                return None; // `&[u64]`, `(A, B)`, … — not a plain path
            }
            i += 1;
            guard += 1;
            if guard > 16 {
                return None;
            }
        }
        head.and_then(type_table)
    }

    /// Records `for x in <receiver>` iteration facts for the header whose
    /// `in` sits at `in_at` (receiver is the last plain ident of the
    /// iterated expression head: `&xs`, `xs.iter()`, `xs` all attribute to
    /// `xs`).
    fn scan_for_in(&mut self, in_at: usize) {
        // Receiver: first ident after `in`, skipping `&`/`mut`.
        let mut j = in_at + 1;
        while self
            .w
            .tok(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            j += 1;
        }
        if let Some(recv) = self.w.tok(j).filter(|t| t.kind == TokenKind::Ident) {
            self.out.facts.push(MethodFact {
                receiver: recv.text.clone(),
                method: "for_in".to_owned(),
                item: self.w.item_path(),
                loop_depth: self.w.loops.len() as u32,
                line: recv.line,
            });
        }
    }

    /// Non-keyword ident: constructor patterns and method-call facts.
    fn scan_expr_ident(&mut self) {
        let pos = self.w.pos;
        let t = self.w.cur();

        // Pattern 1: `Type[::<…>]::method(` on a recognized collection type.
        if let Some((decl, cat)) = type_table(&t.text) {
            if let Some((mi, paren)) = self.match_qualified_call() {
                let method = &self.w.toks[mi].text;
                if is_constructor_method(method) {
                    let cap = if method == "with_capacity" {
                        self.literal_int_arg(paren)
                    } else {
                        None
                    };
                    // `AnyList::new(ListKind::Linked)` refines the declared
                    // variant from the kind argument.
                    let declared = if cat == SiteCategory::CsCollections {
                        self.parse_kind_arg(paren + 1).unwrap_or(decl)
                    } else {
                        decl
                    };
                    self.push_site(
                        pos,
                        format!("{}::{}", t.text, method),
                        declared,
                        cat,
                        cap,
                        None,
                    );
                    self.w.pos = paren + 1;
                    return;
                }
            }
        }

        // Pattern 1.5: a typed `collect` materializes a collection just
        // like a constructor. Two spellings carry the type: a turbofish
        // (`….collect::<Vec<u64>>()`) and a `let` ascription
        // (`let xs: Vec<u64> = ….collect();`). A bare, untyped `collect()`
        // in expression position stays invisible — there is nothing to
        // advise without knowing what it builds.
        if t.text == "collect" {
            if let Some((declared, paren)) = self.collect_site_type() {
                // The site category mirrors the constructor table, but the
                // spelling is always `collect` so reports distinguish
                // materialized iterators from explicit constructors.
                self.push_site(
                    pos,
                    "collect".to_owned(),
                    declared.0,
                    declared.1,
                    None,
                    None,
                );
                self.w.pos = paren + 1;
                return;
            }
        }

        // Pattern 2: `recv.method(` — context creation or a usage fact.
        // Only direct `recv.method(` calls become facts, by design —
        // chained calls (`map.entry(k).or_insert(0)`) attribute their
        // head (`entry`).
        if let Some((mi, paren)) = self.w.method_call(pos) {
            let m = &self.w.toks[mi];
            if let Some((abstraction, cat, named)) = context_method(&m.text) {
                let declared = self
                    .parse_kind_arg(paren + 1)
                    .unwrap_or(context_default(abstraction));
                let name = if named {
                    self.literal_str_arg(paren)
                } else {
                    None
                };
                self.push_site(mi, m.text.clone(), declared, cat, None, name);
                self.w.pos = paren + 1;
                return;
            }
            self.out.facts.push(MethodFact {
                receiver: t.text.clone(),
                method: m.text.clone(),
                item: self.w.item_path(),
                loop_depth: self.w.loops.len() as u32,
                line: t.line,
            });
            self.w.pos = paren + 1;
            return;
        }
        self.w.pos += 1;
    }
}

/// Extracts allocation sites and usage facts from one source file, and runs
/// the [dataflow pass](crate::dataflow) over the same tokens for each
/// site's [`FileAnalysis::flows`].
///
/// `path` is the label stamped on every site (use a workspace-relative,
/// forward-slash path for stable fingerprints).
///
/// # Examples
///
/// ```
/// use cs_analyzer::{extract, ExtractOptions};
///
/// let src = r#"
/// fn hot(queries: &[u64]) -> usize {
///     let mut blocked = Vec::with_capacity(512);
///     for q in queries {
///         if blocked.contains(q) { continue; }
///         blocked.push(*q);
///     }
///     blocked.len()
/// }
/// "#;
/// let analysis = extract("src/hot.rs", src, ExtractOptions::default());
/// assert_eq!(analysis.sites.len(), 1);
/// let site = &analysis.sites[0];
/// assert_eq!(site.fingerprint(), "src/hot.rs::hot#0");
/// assert_eq!(site.binding.as_deref(), Some("blocked"));
/// assert_eq!(site.capacity_hint, Some(512));
/// ```
pub fn extract(path: &str, src: &str, opts: ExtractOptions) -> FileAnalysis {
    extract_tokens(path, &lex(src), opts)
}

/// [`extract`] over a file already lexed.
pub(crate) fn extract_tokens(path: &str, toks: &[Token], opts: ExtractOptions) -> FileAnalysis {
    let mut scanner = Scanner {
        w: Walker::new(toks, opts.skip_cfg_test),
        path,
        ..Scanner::default()
    };
    scanner.scan();
    let mut out = scanner.out;
    out.flows = crate::dataflow::flows(toks, &out.sites, &scanner.site_toks, opts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(src: &str) -> Vec<StaticSite> {
        extract("t.rs", src, ExtractOptions::default()).sites
    }

    #[test]
    fn std_constructors_with_fingerprints() {
        let src = r#"
fn build() {
    let mut v = Vec::new();
    let m = std::collections::HashMap::with_capacity(32);
    v.push(m);
}
fn other() {
    let s = HashSet::new();
    drop(s);
}
"#;
        let found = sites(src);
        assert_eq!(found.len(), 3);
        assert_eq!(found[0].fingerprint(), "t.rs::build#0");
        assert_eq!(found[0].constructor, "Vec::new");
        assert_eq!(found[0].binding.as_deref(), Some("v"));
        assert_eq!(found[1].fingerprint(), "t.rs::build#1");
        assert_eq!(found[1].capacity_hint, Some(32));
        assert_eq!(found[2].fingerprint(), "t.rs::other#0");
        assert_eq!(found[2].declared, DeclaredVariant::Set(SetKind::Chained));
    }

    #[test]
    fn turbofish_and_nested_generics() {
        let src = "fn f() { let v = Vec::<HashMap<u8, Vec<u8>>>::new(); v.clear(); }";
        let found = sites(src);
        // Only the outer turbofish constructor is a site; the type arguments
        // inside `<…>` must not be mistaken for constructors.
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].constructor, "Vec::new");
        assert_eq!(found[0].binding.as_deref(), Some("v"));
    }

    #[test]
    fn typed_collect_is_a_site_in_both_spellings() {
        let src = r#"
fn f(xs: &[u64]) {
    let squares: Vec<u64> = xs.iter().map(|x| x * x).collect();
    let keys = xs.iter().map(|x| (*x, ())).collect::<HashMap<u64, ()>>();
    squares.len();
    keys.len();
}
"#;
        let found = sites(src);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].constructor, "collect");
        assert_eq!(found[0].declared, DeclaredVariant::List(ListKind::Array));
        assert_eq!(found[0].binding.as_deref(), Some("squares"));
        assert_eq!(found[1].declared, DeclaredVariant::Map(MapKind::Chained));
        assert_eq!(found[1].binding.as_deref(), Some("keys"));
    }

    #[test]
    fn untyped_or_unrecognized_collect_stays_invisible() {
        let src = r#"
fn f(xs: &[u64]) -> usize {
    let pairs: BTreeSet<u64> = xs.iter().copied().collect();
    xs.iter().map(|x| x + 1).collect::<Vec<u64>>().len()
}
fn g(xs: &[u64]) -> String {
    xs.iter().map(|x| x.to_string()).collect()
}
"#;
        let found = sites(src);
        // The BTreeSet ascription is recognized-but-unmodeled; the bare
        // turbofish in `f` is a real site even without a binding; the
        // String collect in `g` is not a collection at all.
        assert_eq!(found.len(), 2);
        assert_eq!(
            found[0].declared,
            DeclaredVariant::Unmodeled(Abstraction::Set)
        );
        assert_eq!(found[1].constructor, "collect");
        assert_eq!(found[1].binding, None);
        assert!(found.iter().all(|s| s.item != "g"));
    }

    #[test]
    fn first_site_consumes_the_let_ascription() {
        // The ascription describes one materialization; once a site is
        // pushed for the statement, a second plain `collect()` further
        // down the chain must not double-count against the same `let`.
        let src = "fn f(xs: &[u64]) { let v: Vec<u64> = xs.iter().copied()\
                   .collect::<Vec<u64>>().into_iter().map(|x| x + 1).collect(); }";
        let found = sites(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].constructor, "collect");
        assert_eq!(found[0].binding.as_deref(), Some("v"));
    }

    #[test]
    fn cs_collections_kind_argument_refines_declared() {
        let src = "fn f() { let l = AnyList::new(ListKind::Linked); }";
        let found = sites(src);
        assert_eq!(found[0].declared, DeclaredVariant::List(ListKind::Linked));
        assert_eq!(found[0].category, SiteCategory::CsCollections);
    }

    #[test]
    fn context_sites_capture_kind_and_name() {
        let src = r#"
fn wire(engine: &Switch) {
    let ctx = engine.named_list_context::<i64>(ListKind::Array, "IndexCursor:70");
    let anon = engine.set_context::<u64>(SetKind::Array);
}
"#;
        let found = sites(src);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].category, SiteCategory::Context);
        assert_eq!(found[0].declared, DeclaredVariant::List(ListKind::Array));
        assert_eq!(found[0].declared_name.as_deref(), Some("IndexCursor:70"));
        assert_eq!(found[1].declared, DeclaredVariant::Set(SetKind::Array));
        assert_eq!(found[1].declared_name, None);
    }

    #[test]
    fn runtime_sites_and_open_kinds() {
        let src = r#"
fn wire(rt: &Runtime) {
    let m = rt.named_concurrent_map::<u64, u64>(
        MapKind::Open(LibraryProfile::Koloboke),
        "session-cache",
    );
}
"#;
        let found = sites(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].category, SiteCategory::Runtime);
        assert_eq!(
            found[0].declared.kind_name().as_deref(),
            Some("open-koloboke")
        );
        assert_eq!(found[0].declared_name.as_deref(), Some("session-cache"));
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = r#"
fn prod() { let v = Vec::new(); }
#[cfg(test)]
mod tests {
    fn helper() { let m = HashMap::new(); }
}
"#;
        let found = sites(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].item, "prod");
    }

    #[test]
    fn cfg_test_fn_without_module_is_skipped_too() {
        let src = r#"
#[cfg(test)]
fn fixture() -> Vec<u8> { let v = Vec::new(); v }
fn prod() { let s = HashSet::new(); }
"#;
        let found = sites(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].item, "prod");
    }

    #[test]
    fn cfg_not_test_items_are_production_code() {
        let src = r#"
#[cfg(not(test))]
fn prod() { let v = Vec::new(); }
#[cfg(test)]
fn fixture() { let m = HashMap::new(); }
"#;
        let found = sites(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].item, "prod");
        assert!(!found[0].in_test);
    }

    #[test]
    fn include_tests_option_keeps_them_with_flag() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn helper() { let m = HashMap::new(); }
}
"#;
        let found = extract(
            "t.rs",
            src,
            ExtractOptions {
                skip_cfg_test: false,
            },
        )
        .sites;
        assert_eq!(found.len(), 1);
        assert!(found[0].in_test);
        assert_eq!(found[0].item, "tests::helper");
    }

    #[test]
    fn constructors_in_strings_and_comments_are_ignored() {
        let src = r##"
fn f() {
    let a = "Vec::new()";
    let b = r#"HashMap::new()"#;
    // let c = HashSet::new();
    /* let d = BTreeMap::new(); */
}
"##;
        assert!(sites(src).is_empty());
    }

    #[test]
    fn method_facts_carry_loop_depth() {
        let src = r#"
fn scan(xs: &[u64]) {
    let mut seen = Vec::new();
    for x in xs {
        if seen.contains(x) { continue; }
        seen.push(*x);
    }
    for v in &seen { use_it(v); }
    seen.sort();
}
"#;
        let a = extract("t.rs", src, ExtractOptions::default());
        let contains = a
            .facts
            .iter()
            .find(|f| f.method == "contains")
            .expect("contains fact");
        assert_eq!(contains.receiver, "seen");
        assert_eq!(contains.loop_depth, 1);
        let sort = a.facts.iter().find(|f| f.method == "sort").unwrap();
        assert_eq!(sort.loop_depth, 0);
        let iter = a
            .facts
            .iter()
            .filter(|f| f.method == "for_in" && f.receiver == "seen")
            .count();
        assert_eq!(iter, 1);
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = r#"
impl Drop for Holder {
    fn drop(&mut self) {
        let mut v = Vec::new();
        v.push(1);
    }
}
"#;
        let a = extract("t.rs", src, ExtractOptions::default());
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.sites[0].item, "Holder::drop");
        let push = a.facts.iter().find(|f| f.method == "push").unwrap();
        assert_eq!(push.loop_depth, 0, "impl-for must not open a loop frame");
    }

    #[test]
    fn ordinals_are_per_item() {
        let src = r#"
fn a() { let x = Vec::new(); let y = Vec::new(); }
fn b() { let z = Vec::new(); }
"#;
        let found = sites(src);
        assert_eq!(
            found.iter().map(|s| s.fingerprint()).collect::<Vec<_>>(),
            vec!["t.rs::a#0", "t.rs::a#1", "t.rs::b#0"]
        );
    }

    #[test]
    fn nested_modules_compose_item_paths() {
        let src = r#"
mod outer {
    mod inner {
        fn build() { let v = Vec::new(); }
    }
}
"#;
        let found = sites(src);
        assert_eq!(found[0].item, "outer::inner::build");
    }
}
