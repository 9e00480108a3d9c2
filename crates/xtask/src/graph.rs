//! Item and call extraction over the [`lex`](crate::lex) token stream:
//! builds the cross-crate symbol table and call graph the taint analysis
//! ([`taint`](crate::taint)) walks.
//!
//! # Model
//!
//! * One [`FnDef`] per non-test `fn` with a body. Methods carry the
//!   enclosing `impl`/`trait` type name (`impl_type`); module paths are
//!   deliberately flattened — resolution is by *name*, tiered same-file →
//!   same-crate → workspace, which is the honest level a lexer-grade
//!   analysis can support (limitations documented in DESIGN.md).
//! * Calls record the full `::` path with `use` imports expanded
//!   (`Instant::now` + `use std::time::Instant` ⇒ `std::time::Instant::now`)
//!   so taint sources match regardless of import style.
//! * Non-call path uses (`Ordering::Relaxed`, a bare imported `HashMap`)
//!   are kept as [`PathUse`]s — several nondeterminism sources are types
//!   or constants, not functions.
//! * `#[cfg(test)]` modules/fns, `#[test]` fns, and files under `tests/`
//!   or `benches/` are skipped entirely: test nondeterminism cannot leak
//!   into a simulation export, and the per-line rules already police test
//!   hygiene where it matters.
//! * Nested `fn`s and closures are attributed to their enclosing function
//!   (an over-approximation in the safe direction for reachability).

use crate::lex::{Kind, Lexed, Tok};
use std::collections::BTreeMap;

/// Rust keywords that must never be mistaken for a call when followed by
/// `(` (`if (x)`, `while (..)`, `return (a, b)`, ...).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// 1-based line of the call.
    pub line: u32,
    /// Callee name (last path segment).
    pub name: String,
    /// Full path segments, imports-expanded. For method calls this is just
    /// `[name]`.
    pub path: Vec<String>,
    /// Whether the call is a `.name(...)` method call.
    pub is_method: bool,
    /// For method calls, the receiver identifier directly before the `.`
    /// (`self` in `self.pump(..)`), when it is a plain identifier.
    pub receiver: Option<String>,
}

impl Call {
    /// The segment qualifying the callee (`Instant` in `Instant::now`),
    /// when the path has one.
    pub fn qualifier(&self) -> Option<&str> {
        (self.path.len() >= 2).then(|| self.path[self.path.len() - 2].as_str())
    }

    /// Path joined with `::` for source-pattern matching.
    pub fn joined(&self) -> String {
        self.path.join("::")
    }
}

/// A multi-segment path used without a call (`Ordering::Relaxed`), or a
/// bare identifier whose import expands into `std::` (`HashMap` under
/// `use std::collections::HashMap`).
#[derive(Debug, Clone)]
pub struct PathUse {
    /// 1-based line.
    pub line: u32,
    /// Imports-expanded segments.
    pub path: Vec<String>,
}

impl PathUse {
    /// Path joined with `::` for source-pattern matching.
    pub fn joined(&self) -> String {
        self.path.join("::")
    }
}

/// One function definition with its outgoing calls and path uses.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Package name of the owning crate (`openoptics-sim`).
    pub crate_name: String,
    /// Path relative to the workspace root.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type for methods (`Engine`, `Session`).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call sites in the body (closures and nested fns included).
    pub calls: Vec<Call>,
    /// Non-call path uses in the body.
    pub paths: Vec<PathUse>,
}

/// Extraction context for one file.
struct Extract<'a> {
    crate_name: &'a str,
    file: &'a str,
    toks: &'a [Tok],
    imports: BTreeMap<String, Vec<String>>,
    out: Vec<FnDef>,
}

/// Extract all non-test function definitions (with their calls and path
/// uses) from one lexed file.
pub fn extract(crate_name: &str, file: &str, lexed: &Lexed) -> Vec<FnDef> {
    let mut ex = Extract {
        crate_name,
        file,
        toks: &lexed.toks,
        imports: collect_imports(&lexed.toks),
        out: Vec::new(),
    };
    let end = ex.toks.len();
    scan_items(&mut ex, 0, end, None, false);
    ex.out
}

/// Collect `use` imports: maps each bound name to its full path segments.
/// Handles `use a::b::C;`, `use a::{B, C as D};` one level deep, and
/// `pub use`. Globs and deeper nesting are ignored (resolution falls back
/// to name tiers).
fn collect_imports(toks: &[Tok]) -> BTreeMap<String, Vec<String>> {
    let mut map = BTreeMap::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("use") {
            // Parse the path prefix up to `;`, `{`, or `as`.
            let mut prefix: Vec<String> = Vec::new();
            let mut j = i + 1;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind == Kind::Ident && t.text != "as" {
                    prefix.push(t.text.clone());
                    j += 1;
                } else if t.is_punct("::") {
                    j += 1;
                } else {
                    break;
                }
            }
            if j < toks.len() && toks[j].is_ident("as") {
                if let Some(alias) = toks.get(j + 1) {
                    if alias.kind == Kind::Ident {
                        map.insert(alias.text.clone(), prefix.clone());
                    }
                }
            } else if j < toks.len() && toks[j].is_punct("{") {
                // One-level group: `use p::{A, B as C, D};`
                let mut k = j + 1;
                let mut seg: Vec<String> = Vec::new();
                while k < toks.len() && !toks[k].is_punct("}") {
                    let t = &toks[k];
                    if t.kind == Kind::Ident && t.text != "as" {
                        seg.push(t.text.clone());
                        k += 1;
                    } else if t.is_punct("::") {
                        k += 1;
                    } else if t.is_ident("as") {
                        if let Some(alias) = toks.get(k + 1) {
                            if alias.kind == Kind::Ident && !seg.is_empty() {
                                let mut full = prefix.clone();
                                full.append(&mut seg);
                                map.insert(alias.text.clone(), full);
                            }
                        }
                        k += 2;
                        seg.clear();
                    } else if t.is_punct(",") {
                        if let Some(last) = seg.last() {
                            let mut full = prefix.clone();
                            full.extend(seg.iter().cloned());
                            map.insert(last.clone(), full);
                        }
                        seg.clear();
                        k += 1;
                    } else {
                        // Nested group or glob: skip to its end naively.
                        k += 1;
                    }
                }
                if let Some(last) = seg.last() {
                    let mut full = prefix.clone();
                    full.extend(seg.iter().cloned());
                    map.insert(last.clone(), full);
                }
                j = k;
            } else if let Some(last) = prefix.last() {
                if last != "*" {
                    map.insert(last.clone(), prefix.clone());
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    map
}

/// Skip a balanced `(..)`/`[..]`/`{..}` group; `i` points at the opener.
/// Returns the index just past the matching closer.
fn skip_group(toks: &[Tok], i: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Skip a balanced `<..>` generic group; `i` points at `<`. `::`/`->`/`=>`
/// are single tokens, so stray `>`s from arrows never unbalance this.
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct("<") {
            depth += 1;
        } else if toks[j].is_punct(">") {
            depth -= 1;
            if depth <= 0 {
                return j + 1;
            }
        } else if toks[j].is_punct(";") || toks[j].is_punct("{") {
            // Safety valve: a lone `<` that was actually a comparison.
            return i + 1;
        }
        j += 1;
    }
    j
}

/// Whether the attribute tokens starting at `i` (pointing at `#`) mark a
/// test (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ..))]` ...). Returns
/// `(is_test_attr, index past the attribute)`.
fn parse_attr(toks: &[Tok], i: usize) -> (bool, usize) {
    if !toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
        return (false, i + 1);
    }
    let end = skip_group(toks, i + 1, "[", "]");
    let mut is_test = false;
    let mut saw_cfg = false;
    let mut saw_not = false;
    for t in &toks[i + 1..end] {
        if t.is_ident("cfg") {
            saw_cfg = true;
        }
        if t.is_ident("not") {
            // `#[cfg(not(test))]` is production code, not a test region.
            saw_not = true;
        }
        if t.is_ident("test") && !saw_not && (saw_cfg || end == i + 4) {
            // `#[test]` is exactly `# [ test ]` (4 tokens from `#`).
            is_test = true;
        }
    }
    (is_test, end)
}

/// Parse the type name out of an `impl`/`trait` header. `i` points just
/// past the `impl`/`trait` keyword; returns `(type_name, body_open_index)`
/// where the index points at the `{` (or `;` for `impl Trait for T;`).
fn parse_impl_header(toks: &[Tok], mut i: usize) -> (Option<String>, usize) {
    // Skip leading generics: `impl<T: Bound> ...`.
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i);
    }
    let mut last_ident: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") || t.is_punct(";") {
            return (last_ident, i);
        }
        if t.is_ident("for") {
            // `impl Trait for Type` — the type follows; reset and keep
            // scanning so `Type`'s last segment wins.
            last_ident = None;
            i += 1;
            continue;
        }
        if t.is_ident("where") {
            // Bounds only from here on; the type name is settled.
            while i < toks.len() && !toks[i].is_punct("{") && !toks[i].is_punct(";") {
                if toks[i].is_punct("<") {
                    i = skip_angles(toks, i);
                } else {
                    i += 1;
                }
            }
            return (last_ident, i);
        }
        if t.is_punct("<") {
            i = skip_angles(toks, i);
            continue;
        }
        if t.kind == Kind::Ident && t.text != "dyn" && t.text != "mut" {
            last_ident = Some(t.text.clone());
        }
        i += 1;
    }
    (last_ident, i)
}

/// Walk items in `toks[lo..hi]`, recursing into `mod`/`impl`/`trait`
/// blocks and extracting function definitions.
fn scan_items(ex: &mut Extract<'_>, lo: usize, hi: usize, impl_type: Option<&str>, in_test: bool) {
    let mut i = lo;
    let mut pending_test = false;
    while i < hi {
        let t = &ex.toks[i];
        if t.is_punct("#") {
            let (is_test, next) = parse_attr(ex.toks, i);
            pending_test |= is_test;
            i = next;
            continue;
        }
        if t.is_ident("mod") {
            // `mod name { ... }` or `mod name;`
            let mut j = i + 1;
            while j < hi && !ex.toks[j].is_punct("{") && !ex.toks[j].is_punct(";") {
                j += 1;
            }
            if j < hi && ex.toks[j].is_punct("{") {
                let end = skip_group(ex.toks, j, "{", "}");
                scan_items(ex, j + 1, end - 1, None, in_test || pending_test);
                i = end;
            } else {
                i = j + 1;
            }
            pending_test = false;
            continue;
        }
        if t.is_ident("impl") || t.is_ident("trait") {
            let (ty, open) = parse_impl_header(ex.toks, i + 1);
            if open < hi && ex.toks[open].is_punct("{") {
                let end = skip_group(ex.toks, open, "{", "}");
                scan_items(ex, open + 1, end - 1, ty.as_deref(), in_test || pending_test);
                i = end;
            } else {
                i = open + 1;
            }
            pending_test = false;
            continue;
        }
        if t.is_ident("fn") {
            let Some(name_tok) = ex.toks.get(i + 1) else {
                break;
            };
            if name_tok.kind != Kind::Ident {
                i += 2;
                continue;
            }
            let fn_line = t.line;
            let name = name_tok.text.clone();
            // Signature: optional generics, the `(..)` args, then scan to
            // the body `{` or a `;` (trait method declaration).
            let mut j = i + 2;
            if ex.toks.get(j).is_some_and(|t| t.is_punct("<")) {
                j = skip_angles(ex.toks, j);
            }
            if ex.toks.get(j).is_some_and(|t| t.is_punct("(")) {
                j = skip_group(ex.toks, j, "(", ")");
            }
            while j < hi && !ex.toks[j].is_punct("{") && !ex.toks[j].is_punct(";") {
                if ex.toks[j].is_punct("<") {
                    j = skip_angles(ex.toks, j);
                } else if ex.toks[j].is_punct("(") {
                    j = skip_group(ex.toks, j, "(", ")");
                } else {
                    j += 1;
                }
            }
            if j >= hi || ex.toks[j].is_punct(";") {
                i = j + 1;
                pending_test = false;
                continue;
            }
            let body_end = skip_group(ex.toks, j, "{", "}");
            if !(in_test || pending_test) {
                let mut def = FnDef {
                    crate_name: ex.crate_name.to_string(),
                    file: ex.file.to_string(),
                    name,
                    impl_type: impl_type.map(str::to_string),
                    line: fn_line,
                    calls: Vec::new(),
                    paths: Vec::new(),
                };
                scan_body(ex, j + 1, body_end.saturating_sub(1), &mut def);
                ex.out.push(def);
            }
            i = body_end;
            pending_test = false;
            continue;
        }
        // `use` at item level inside a scanned region was already handled
        // globally by collect_imports; skip over it here.
        pending_test = false;
        i += 1;
    }
}

/// Scan one function body for calls and path uses.
fn scan_body(ex: &Extract<'_>, lo: usize, hi: usize, def: &mut FnDef) {
    let toks = ex.toks;
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        // Nested `fn name` — skip the name so it is not read as a call;
        // its body tokens keep scanning as part of this def.
        if t.is_ident("fn") {
            i += 2;
            continue;
        }
        // Method call: `.name` [`::<T>`] `(`
        if t.is_punct(".") && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            let receiver =
                (i > lo && toks[i - 1].kind == Kind::Ident).then(|| toks[i - 1].text.clone());
            let mut j = i + 2;
            if toks.get(j).is_some_and(|t| t.is_punct("::"))
                && toks.get(j + 1).is_some_and(|t| t.is_punct("<"))
            {
                j = skip_angles(toks, j + 1);
            }
            if toks.get(j).is_some_and(|t| t.is_punct("(")) {
                def.calls.push(Call {
                    line,
                    name: name.clone(),
                    path: vec![name],
                    is_method: true,
                    receiver,
                });
            }
            i = j;
            continue;
        }
        // Path expression: Ident (:: Ident | ::<..>)*
        if t.kind == Kind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            let line = t.line;
            let mut path = vec![t.text.clone()];
            let mut j = i + 1;
            loop {
                if toks.get(j).is_some_and(|t| t.is_punct("::")) {
                    if toks.get(j + 1).is_some_and(|t| t.kind == Kind::Ident) {
                        path.push(toks[j + 1].text.clone());
                        j += 2;
                        continue;
                    }
                    if toks.get(j + 1).is_some_and(|t| t.is_punct("<")) {
                        j = skip_angles(toks, j + 1);
                        continue;
                    }
                }
                break;
            }
            // Expand the leading segment through this file's imports.
            if let Some(full) = ex.imports.get(&path[0]) {
                let mut expanded = full.clone();
                expanded.extend(path.drain(1..));
                path = expanded;
            }
            let is_macro = toks.get(j).is_some_and(|t| t.is_punct("!"));
            let is_call = !is_macro && toks.get(j).is_some_and(|t| t.is_punct("("));
            if is_call {
                let name = path.last().cloned().unwrap_or_default();
                def.calls.push(Call { line, name, path, is_method: false, receiver: None });
            } else if path.len() >= 2 {
                def.paths.push(PathUse { line, path });
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn ex(src: &str) -> Vec<FnDef> {
        extract("openoptics-test", "src/a.rs", &lex(src))
    }

    #[test]
    fn extracts_free_fns_and_calls() {
        let fns = ex("fn a() { b(); c::d(); }\nfn b() {}\n");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["b", "d"]);
        assert_eq!(fns[0].calls[1].path, ["c", "d"]);
    }

    #[test]
    fn methods_carry_impl_type_and_receiver() {
        let fns = ex("impl Engine {\n    pub fn run_for(&mut self) { self.step(); out.send(0, now, ev); }\n}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Engine"));
        let send = fns[0].calls.iter().find(|c| c.name == "send").expect("send call extracted");
        assert!(send.is_method);
        assert_eq!(send.receiver.as_deref(), Some("out"));
    }

    #[test]
    fn trait_impls_resolve_the_self_type() {
        let fns = ex("impl Handler for Ring {\n    fn handle(&mut self) { go(); }\n}\n\
                      impl<E> Queue<E> {\n    fn send(&mut self) {}\n}\n");
        assert_eq!(fns[0].impl_type.as_deref(), Some("Ring"));
        assert_eq!(fns[1].impl_type.as_deref(), Some("Queue"));
    }

    #[test]
    fn imports_expand_call_paths() {
        let fns = ex("use std::time::Instant;\nfn f() { let t = Instant::now(); }\n");
        let call = &fns[0].calls[0];
        assert_eq!(call.joined(), "std::time::Instant::now");
    }

    #[test]
    fn grouped_imports_and_aliases_expand() {
        let fns = ex("use std::collections::{BTreeMap, HashMap as Map};\n\
                      fn f() { let m = Map::new(); let b = BTreeMap::new(); }\n");
        let paths: Vec<String> = fns[0].calls.iter().map(Call::joined).collect();
        assert!(paths.contains(&"std::collections::HashMap::new".to_string()), "{paths:?}");
        assert!(paths.contains(&"std::collections::BTreeMap::new".to_string()), "{paths:?}");
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_skipped() {
        let fns = ex("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { leak(); }\n    #[test]\n    fn t() {}\n}\n#[test]\nfn toplevel_test() {}\n");
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"], "{names:?}");
    }

    #[test]
    fn path_uses_capture_relaxed_ordering() {
        let fns = ex("use std::sync::atomic::Ordering;\nfn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }\n");
        let uses: Vec<String> = fns[0].paths.iter().map(PathUse::joined).collect();
        assert!(uses.contains(&"std::sync::atomic::Ordering::Relaxed".to_string()), "{uses:?}");
    }

    #[test]
    fn macros_are_not_calls() {
        let fns = ex("fn f() { println!(\"x\"); vec![1, 2]; assert!(g()); }\n");
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["g"], "macro bodies still scan for real calls: {names:?}");
    }

    #[test]
    fn nested_fns_attribute_to_the_outer_def() {
        let fns = ex("fn outer() {\n    fn inner() { leak(); }\n    inner();\n}\n");
        assert_eq!(fns.len(), 1);
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"leak") && names.contains(&"inner"), "{names:?}");
    }

    #[test]
    fn generic_signatures_parse() {
        let fns = ex("pub fn run<W: World>(world: &mut W, until: SimTime) -> (u64, SimTime) {\n    world.handle()\n}\n");
        assert_eq!(fns[0].name, "run");
        assert_eq!(fns[0].calls[0].name, "handle");
    }
}
