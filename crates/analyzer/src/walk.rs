//! The scope walker the three token passes share.
//!
//! [Extraction](crate::extract()), the [dataflow pass](crate::dataflow) and
//! the [self-lint](crate::lint) each walk one file's [lexed](crate::lexer)
//! tokens front to back. A [`Walker`] owns what the three walks have in
//! common: the cursor, the brace depth, the enclosing item and loop frames,
//! and `#[cfg(test)]` gating. A pass calls [`Walker::step`] until it returns
//! `None` and reads only the tokens handed back as [`Step::Token`];
//! everything else is scope structure the walker has already consumed.
//!
//! What counts as scope:
//!
//! * An **item** is a `fn`, `mod`, `trait`, `struct`, `enum` or `union`
//!   keyword followed by a name (a `fn(u8)` pointer type is not one), or an
//!   `impl`, named after the last identifier before its `{`, `;` or `where`,
//!   `for` excepted: `impl Drop for Holder` is `Holder`, and since generic
//!   arguments count too, `impl<T> A<T> for B<T>` is `T`. The item's frame
//!   opens at the next `{` unless a `;` comes first.
//! * A **loop** is a `for … in`, `while` or `loop` keyword outside an item
//!   header; `impl … for` and a `for<'a>` bound are not loops. A
//!   `for _ in a..b` header over integer literals records its trip count.
//! * A **test item** follows a `#[cfg(…)]` that names `test` outside any
//!   `not(…)`: `#[cfg(test)]` and `#[cfg(any(test, …))]` gate the next item
//!   (an `impl` block included), `#[cfg(not(test))]` does not. When test
//!   items are skipped the walker jumps over the item's body whole.

use crate::lexer::{Token, TokenKind};

/// An enclosing item.
#[derive(Debug)]
pub(crate) struct ItemFrame {
    /// One segment of [`Walker::item_path`].
    pub(crate) name: String,
    /// Brace depth outside the item's body.
    pub(crate) depth: u32,
    /// This item or one enclosing it is a test item (only seen when test
    /// items are walked, not skipped).
    pub(crate) in_test: bool,
    /// Running site ordinal within this item.
    pub(crate) ordinal: u32,
}

/// An enclosing loop body.
#[derive(Debug)]
pub(crate) struct LoopFrame {
    /// Brace depth outside the loop body.
    pub(crate) depth: u32,
    /// Trip count of a `for _ in a..b` header over integer literals.
    pub(crate) trip: Option<u64>,
}

/// What [`Walker::step`] found at the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Not scope structure: the pass reads the token at the cursor and moves
    /// the cursor past what it consumed.
    Token,
    /// Structure no pass reacts to: an item or loop keyword, a
    /// `#[cfg(test)]` marker, a skipped test item, or a `{` that opens a
    /// plain block or a loop body.
    Scope,
    /// A `{` opened an item body; its frame is on top of the item stack.
    ItemOpened,
    /// A `}` closed a block.
    Closed {
        /// The block was an item body, whose frame is now popped.
        item: bool,
    },
    /// A `;` ended a statement or a declaration.
    End,
    /// A `for` loop header whose `in` sits at this token index.
    For(usize),
}

/// The cursor and scope state of one walk over one file's tokens.
#[derive(Debug, Default)]
pub(crate) struct Walker<'a> {
    pub(crate) toks: &'a [Token],
    /// Index of the next token to visit.
    pub(crate) pos: usize,
    /// `{` nesting depth at the cursor.
    pub(crate) depth: u32,
    /// Enclosing items, outermost first.
    pub(crate) items: Vec<ItemFrame>,
    /// Enclosing loops, outermost first.
    pub(crate) loops: Vec<LoopFrame>,
    /// Jump over test items instead of walking them.
    skip_tests: bool,
    /// An item keyword seen: its name and test gate, waiting for its `{`.
    pending_item: Option<(String, bool)>,
    /// A loop keyword seen: its trip count, waiting for its `{`.
    pending_loop: Option<Option<u64>>,
    /// A test gate seen: it applies to the next item.
    pending_test: bool,
}

impl<'a> Walker<'a> {
    pub(crate) fn new(toks: &'a [Token], skip_tests: bool) -> Self {
        Walker {
            toks,
            skip_tests,
            ..Walker::default()
        }
    }

    pub(crate) fn tok(&self, i: usize) -> Option<&'a Token> {
        self.toks.get(i)
    }

    /// The token at the cursor; only valid while [`Walker::step`] hands
    /// back [`Step::Token`].
    pub(crate) fn cur(&self) -> &'a Token {
        &self.toks[self.pos]
    }

    /// `::` at `i`? (two consecutive `:` puncts)
    pub(crate) fn is_path_sep(&self, i: usize) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(':'))
            && self.tok(i + 1).is_some_and(|t| t.is_punct(':'))
    }

    /// Inside a test item (only possible when test items are walked).
    pub(crate) fn in_test(&self) -> bool {
        self.items.last().is_some_and(|f| f.in_test)
    }

    /// The method of a `Name::method(` call whose `Name` sits at `i`.
    pub(crate) fn path_call(&self, i: usize) -> Option<&'a str> {
        let method = self.tok(i + 3).filter(|t| t.kind == TokenKind::Ident)?;
        (self.is_path_sep(i + 1) && self.tok(i + 4).is_some_and(|t| t.is_punct('(')))
            .then_some(method.text.as_str())
    }

    /// With the cursor at `let`: the index of the name a plain
    /// `let [mut] name` binds, followed by `:`, `=` or `;`. Tuple and
    /// struct patterns (`let (a, b)`, `let Some(x)`) bind no single name.
    pub(crate) fn let_binding(&self) -> Option<usize> {
        let mut i = self.pos + 1;
        if self.tok(i).is_some_and(|t| t.is_ident("mut")) {
            i += 1;
        }
        self.tok(i).filter(|t| t.kind == TokenKind::Ident)?;
        self.tok(i + 1)
            .is_some_and(|t| t.is_punct(':') || t.is_punct('=') || t.is_punct(';'))
            .then_some(i)
    }

    /// The enclosing item path (`mod::fn`), or `top` at file scope.
    pub(crate) fn item_path(&self) -> String {
        if self.items.is_empty() {
            "top".to_owned()
        } else {
            self.items
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>()
                .join("::")
        }
    }

    /// Between a loop keyword and its body's `{`.
    pub(crate) fn in_loop_header(&self) -> bool {
        self.pending_loop.is_some()
    }

    /// Literal `a .. b` / `a ..= b` starting at `i` → `(trip, end index)`.
    pub(crate) fn literal_range(&self, i: usize) -> Option<(u64, usize)> {
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

    /// The first token of the expression a `for` header iterates, given
    /// the index of its `in`: past any leading `&`, `mut` and `(`.
    pub(crate) fn iterated(&self, in_at: usize) -> usize {
        let mut j = in_at + 1;
        while self
            .tok(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.is_punct('('))
        {
            j += 1;
        }
        j
    }

    /// Skips a balanced `<…>` generic-argument list starting at `i` (which
    /// must point at `<`); returns the index just past the closing `>`, or
    /// that of the first `(`, `{` or `;` inside, where the skip gives up (a
    /// tuple or `fn(…)` argument stops it too). Char literals and lifetimes
    /// are single tokens, so `<` / `>` counting is exact.
    pub(crate) fn skip_generics(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while let Some(t) = self.tok(i) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            } else if t.is_punct('(') || t.is_punct('{') || t.is_punct(';') {
                break;
            }
            i += 1;
        }
        i
    }

    /// A `recv.method(` call (turbofish allowed) whose receiver sits at
    /// `i`: the indices of the method name and of the call's `(`.
    pub(crate) fn method_call(&self, i: usize) -> Option<(usize, usize)> {
        let m = i + 2;
        if !self.tok(i + 1).is_some_and(|t| t.is_punct('.'))
            || !self.tok(m).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            return None;
        }
        let mut paren = m + 1;
        if self.is_path_sep(paren) && self.tok(paren + 2).is_some_and(|t| t.is_punct('<')) {
            paren = self.skip_generics(paren + 2);
        }
        self.tok(paren)
            .is_some_and(|t| t.is_punct('('))
            .then_some((m, paren))
    }

    /// Consumes the scope structure at the cursor, or hands the token to
    /// the pass as [`Step::Token`] without moving. `None` at end of file.
    pub(crate) fn step(&mut self) -> Option<Step> {
        let t = self.tok(self.pos)?;
        let step = match t.kind {
            TokenKind::Punct => match t.text.as_bytes()[0] {
                b'{' => return Some(self.open()),
                b'}' => self.close(),
                b';' => {
                    self.pending_item = None;
                    self.pending_test = false;
                    Step::End
                }
                b'#' if self.is_cfg_test_attr() => {
                    self.pending_test = true;
                    Step::Scope
                }
                _ => return Some(Step::Token),
            },
            TokenKind::Ident => match t.text.as_str() {
                // An `impl Trait` type: `impl` only ever sits in a type
                // inside a pending fn's arguments or return type.
                "impl" if self.pending_item.is_some() => Step::Scope,
                "fn" | "mod" | "trait" | "struct" | "enum" | "union" | "impl" => {
                    if let Some(name) = self.item_name() {
                        self.pending_item = Some((name, self.pending_test));
                        self.pending_test = false;
                    }
                    Step::Scope
                }
                "for"
                    if self.pending_item.is_none()
                        && !self.tok(self.pos + 1).is_some_and(|t| t.is_punct('<')) =>
                {
                    let in_at = self.find_in();
                    let trip = in_at.and_then(|i| self.literal_range(self.iterated(i)));
                    self.pending_loop = Some(trip.map(|(n, _)| n));
                    in_at.map_or(Step::Scope, Step::For)
                }
                "for" => Step::Scope,
                "while" | "loop" => {
                    if self.pending_item.is_none() {
                        self.pending_loop = Some(None);
                    }
                    Step::Scope
                }
                _ => return Some(Step::Token),
            },
            _ => return Some(Step::Token),
        };
        self.pos += 1;
        Some(step)
    }

    /// At a `{`: opens the pending item or loop, or jumps over a test item.
    fn open(&mut self) -> Step {
        let step = match self.pending_item.take() {
            Some((_, true)) if self.skip_tests => {
                self.skip_balanced_braces();
                return Step::Scope;
            }
            Some((name, test)) => {
                let in_test = test || self.in_test();
                self.items.push(ItemFrame {
                    name,
                    depth: self.depth,
                    in_test,
                    ordinal: 0,
                });
                Step::ItemOpened
            }
            None => {
                if let Some(trip) = self.pending_loop {
                    self.loops.push(LoopFrame {
                        depth: self.depth,
                        trip,
                    });
                }
                Step::Scope
            }
        };
        self.pending_loop = None;
        self.depth += 1;
        self.pos += 1;
        step
    }

    /// At a `}`: pops the item or loop frame the block closes.
    fn close(&mut self) -> Step {
        self.depth = self.depth.saturating_sub(1);
        let item = self.items.last().is_some_and(|f| f.depth == self.depth);
        if item {
            self.items.pop();
        }
        if self.loops.last().is_some_and(|f| f.depth == self.depth) {
            self.loops.pop();
        }
        Step::Closed { item }
    }

    /// With the cursor at a `{`: moves it past the matching `}`.
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

    /// The `in` of the `for` header at the cursor, looked for within a
    /// 24-token pattern that a `{` ends.
    fn find_in(&self) -> Option<usize> {
        let mut i = self.pos + 1;
        let mut guard = 0;
        while let Some(t) = self.tok(i) {
            if t.is_ident("in") {
                return Some(i);
            }
            if t.is_punct('{') || guard > 24 {
                return None;
            }
            i += 1;
            guard += 1;
        }
        None
    }

    /// The name of the item whose keyword is at the cursor: the identifier
    /// after it, or for an `impl` its self type's last path segment — the
    /// last identifier outside any `<…>`, `(…)` or `[…]` before its `{`,
    /// `;` or `where`, `for` excepted. `None` when no item follows
    /// (`fn(u8)`).
    fn item_name(&self) -> Option<String> {
        if !self.cur().is_ident("impl") {
            let next = self.tok(self.pos + 1)?;
            return (next.kind == TokenKind::Ident).then(|| next.text.clone());
        }
        let mut name = "impl";
        let mut nested = 0u32;
        for (i, t) in self.toks.iter().enumerate().skip(self.pos + 1) {
            if nested == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where")) {
                break;
            }
            if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                nested += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                nested = nested.saturating_sub(1);
            } else if t.is_punct('>') && !self.tok(i - 1).is_some_and(|p| p.is_punct('-')) {
                // `>` closes a `<`; the `>` of an `->` does not.
                nested = nested.saturating_sub(1);
            } else if nested == 0 && t.kind == TokenKind::Ident && t.text != "for" {
                name = &t.text;
            }
        }
        Some(name.to_owned())
    }

    /// A `#[cfg(…)]` at the cursor that names `test` outside any `not(…)`.
    fn is_cfg_test_attr(&self) -> bool {
        if !self.tok(self.pos + 1).is_some_and(|t| t.is_punct('['))
            || !self.tok(self.pos + 2).is_some_and(|t| t.is_ident("cfg"))
        {
            return false;
        }
        let mut brackets = 0u32;
        let mut parens = 0u32;
        // Paren depth just outside the `not(…)` being scanned, if any.
        let mut negated = None;
        let mut i = self.pos + 3;
        while let Some(t) = self.tok(i) {
            if t.is_punct('[') {
                brackets += 1;
            } else if t.is_punct(']') {
                if brackets == 0 {
                    return false;
                }
                brackets -= 1;
            } else if t.is_punct('(') {
                parens += 1;
            } else if t.is_punct(')') {
                parens = parens.saturating_sub(1);
                if negated == Some(parens) {
                    negated = None;
                }
            } else if t.is_ident("not")
                && negated.is_none()
                && self.tok(i + 1).is_some_and(|n| n.is_punct('('))
            {
                negated = Some(parens);
            } else if t.is_ident("test") && negated.is_none() {
                return true;
            } else if i > self.pos + 32 {
                return false;
            }
            i += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// One identifier a pass would see: its text, item path and loop depth.
    type Seen = (String, String, usize);

    /// Walks `src` the way every pass does and records each identifier the
    /// walker hands back; identifiers inside skipped test items never show.
    fn walk(src: &str, skip_tests: bool) -> Vec<Seen> {
        let toks = lex(src);
        let mut w = Walker::new(&toks, skip_tests);
        let mut seen = Vec::new();
        while let Some(step) = w.step() {
            if step == Step::Token {
                let t = w.cur();
                if t.kind == TokenKind::Ident {
                    seen.push((t.text.clone(), w.item_path(), w.loops.len()));
                }
                w.pos += 1;
            }
        }
        assert_eq!(w.depth, 0, "braces balance");
        assert!(w.items.is_empty() && w.loops.is_empty());
        seen
    }

    fn at<'s>(seen: &'s [Seen], ident: &str) -> (&'s str, usize) {
        let (_, item, loops) = seen
            .iter()
            .find(|(t, _, _)| t == ident)
            .unwrap_or_else(|| panic!("`{ident}` not walked: {seen:?}"));
        (item, *loops)
    }

    fn walked(seen: &[Seen], ident: &str) -> bool {
        seen.iter().any(|(t, _, _)| t == ident)
    }

    #[test]
    fn fn_pointer_type_opens_no_item() {
        // The `{ a }` after `fn(u8)` is a plain block of `outer`, and the
        // `for` after it still opens a loop.
        let src = "fn outer(flag: bool) {
            let f: fn(u8) = if flag { a } else { b };
            for x in xs { body(x); }
        }";
        let seen = walk(src, true);
        assert_eq!(at(&seen, "a"), ("outer", 0));
        assert_eq!(at(&seen, "body"), ("outer", 1));
    }

    #[test]
    fn impl_for_where_is_named_by_its_self_type() {
        let src = "impl<T> A<T> for B<T> where T: Copy {
            fn m(&self) { for i in 0..4 { body(i); } }
        }
        impl Drop for Holder { fn drop(&mut self) { tail(); } }";
        let seen = walk(src, true);
        // `for` in the header is not a loop, and `where` ends the name.
        assert_eq!(at(&seen, "body"), ("B::m", 1));
        assert_eq!(at(&seen, "tail"), ("Holder::drop", 0));
    }

    #[test]
    fn generic_impls_are_named_by_the_self_type_without_its_arguments() {
        for (header, name) in [
            ("impl<T> AnyList<T>", "AnyList"),
            (
                "impl<T: Eq + Hash> FromIterator<T> for AdaptiveList<T>",
                "AdaptiveList",
            ),
            (
                "impl<K, V> Default for AdaptiveMap<K, V> where K: Eq",
                "AdaptiveMap",
            ),
            ("impl<'a, T> Iterator for Iter<'a, T>", "Iter"),
            (
                "impl<F: Fn(u8) -> bool> fmt::Debug for cs::Filter<F>",
                "Filter",
            ),
            ("unsafe impl<T: Send> Send for Sharded<T>", "Sharded"),
        ] {
            let seen = walk(&format!("{header} {{ fn m() {{ body(); }} }}"), true);
            assert_eq!(
                at(&seen, "body"),
                (format!("{name}::m").as_str(), 0),
                "{header}"
            );
        }
    }

    #[test]
    fn impl_trait_types_open_no_item() {
        let src = "fn f(x: impl Into<String>) -> Vec<u8> where u8: Copy { arg(); }
        fn g() -> impl Iterator<Item = u8> { ret(); }
        fn h(items: &mut impl Extend<u8>, k: Box<impl Fn()>) { nested(); }
        impl Holder { fn m(&self) -> impl Sized { inner(); } }";
        let seen = walk(src, true);
        assert_eq!(at(&seen, "arg"), ("f", 0));
        assert_eq!(at(&seen, "ret"), ("g", 0));
        assert_eq!(at(&seen, "nested"), ("h", 0));
        assert_eq!(at(&seen, "inner"), ("Holder::m", 0));
    }

    #[test]
    fn higher_ranked_for_is_not_a_loop() {
        let src = "fn f() {
            let g: Box<dyn for<'a> Fn(&'a u8)> = Box::new(|v| { body(v); });
            for x in xs { inner(x); }
        }";
        let seen = walk(src, true);
        assert_eq!(at(&seen, "body"), ("f", 0));
        assert_eq!(at(&seen, "inner"), ("f", 1));
    }

    #[test]
    fn literal_for_headers_carry_trip_counts() {
        let toks = lex("fn f() { for i in (0..=7) { for x in xs { b(); } } }");
        let mut w = Walker::new(&toks, true);
        let mut trips = Vec::new();
        while let Some(step) = w.step() {
            if step == Step::Token {
                if w.cur().is_ident("b") {
                    trips = w.loops.iter().map(|l| l.trip).collect();
                }
                w.pos += 1;
            }
        }
        assert_eq!(trips, vec![Some(8), None]);
    }

    #[test]
    fn test_gates_cover_cfg_any_and_impl_blocks_but_not_cfg_not_test() {
        let src = r#"
#[cfg(any(test, feature = "x"))]
fn gated() { hidden(); }
#[cfg(test)]
impl Foo { fn first() -> u32 { one() } fn second() -> u32 { two() } }
#[cfg(not(test))]
fn prod() { shown(); }
#[cfg(all(not(test), feature = "x"))]
fn prod_x() { also_shown(); }
#[cfg(feature = "x")]
fn feature_only() { shown_too(); }
"#;
        let seen = walk(src, true);
        assert!(!walked(&seen, "hidden") && !walked(&seen, "one") && !walked(&seen, "two"));
        assert_eq!(at(&seen, "shown"), ("prod", 0));
        assert_eq!(at(&seen, "also_shown"), ("prod_x", 0));
        assert_eq!(at(&seen, "shown_too"), ("feature_only", 0));
    }

    #[test]
    fn nested_cfg_test_mod_is_skipped_and_the_outer_item_resumes() {
        let src = "fn outer() {
            before();
            #[cfg(test)]
            mod inner { fn t() { hidden(); } }
            after();
        }
        fn next() { last(); }";
        let seen = walk(src, true);
        assert!(!walked(&seen, "hidden"));
        assert_eq!(at(&seen, "after"), ("outer", 0));
        assert_eq!(at(&seen, "last"), ("next", 0));

        // Walked instead of skipped, the module keeps its path.
        let seen = walk(src, false);
        assert_eq!(at(&seen, "hidden"), ("outer::inner::t", 0));
        assert_eq!(at(&seen, "after"), ("outer", 0));
    }
}
