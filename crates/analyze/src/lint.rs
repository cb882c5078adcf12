//! Layer-1 source lints: project invariants enforced over the token
//! stream of every workspace `.rs` file.
//!
//! Every finding is a structured [`LintViolation`] witness — file,
//! line, rule, source excerpt — in the same spirit as `xct-verify`'s
//! `Violation`: the analyzer never answers with a bare boolean.
//!
//! Opt-outs are explicit and audited: a `// xct-allow(rule-name):
//! justification` comment on the offending line or the line directly
//! above silences exactly that rule for exactly that line, and an
//! allow with a missing/empty justification or an unknown rule name is
//! itself a violation ([`Rule::AllowJustification`]).

use crate::lexer::{lex, Tok};
use std::collections::HashSet;
use std::fmt;

/// The lint rules. Kebab-case names are the stable identifiers used in
/// `xct-allow(...)` opt-outs, CLI output, and DESIGN.md §3i.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unsafe` outside the sanctioned modules ([`SANCTIONED_UNSAFE`]).
    UnsafeBoundary,
    /// Sanctioned `unsafe` without a `SAFETY:` / `# Safety` comment.
    SafetyComment,
    /// `unwrap`/`expect`/`panic!`-family in library code.
    NoPanic,
    /// `Instant::now` / `SystemTime` outside the telemetry Clock impl.
    WallClock,
    /// Allocating call inside an `// xct-hot` region.
    HotAlloc,
    /// Crate root missing its `forbid(unsafe_code)` /
    /// `deny(unsafe_op_in_unsafe_fn)` header.
    CrateRootHeader,
    /// Malformed `xct-allow` opt-out (unknown rule or no justification).
    AllowJustification,
}

impl Rule {
    /// Stable kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeBoundary => "unsafe-boundary",
            Rule::SafetyComment => "safety-comment",
            Rule::NoPanic => "no-panic",
            Rule::WallClock => "wall-clock",
            Rule::HotAlloc => "hot-alloc",
            Rule::CrateRootHeader => "crate-root-header",
            Rule::AllowJustification => "allow-justification",
        }
    }

    /// Parses a kebab-case rule name (for `xct-allow(...)`).
    pub fn parse(name: &str) -> Option<Rule> {
        match name {
            "unsafe-boundary" => Some(Rule::UnsafeBoundary),
            "safety-comment" => Some(Rule::SafetyComment),
            "no-panic" => Some(Rule::NoPanic),
            "wall-clock" => Some(Rule::WallClock),
            "hot-alloc" => Some(Rule::HotAlloc),
            "crate-root-header" => Some(Rule::CrateRootHeader),
            // allow-justification is not itself opt-out-able: an allow
            // that excuses broken allows would be unauditable.
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding, with enough witness data to act on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Human-readable explanation of what was matched and why it is
    /// disallowed here.
    pub detail: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} | {}",
            self.file, self.line, self.rule, self.detail, self.excerpt
        )
    }
}

/// How a file participates in the build — determines which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library code: all rules apply.
    Lib,
    /// Integration tests (`tests/`): panics and wall clocks allowed.
    Test,
    /// Benchmarks (`benches/`): panics and wall clocks allowed.
    Bench,
    /// Examples: panics and wall clocks allowed.
    Example,
    /// Binaries (`src/bin/`, `src/main.rs`): panics/clocks allowed.
    Bin,
    /// Offline dependency shims (`shims/`): panics/clocks allowed —
    /// they mirror external crates' APIs, not project conventions.
    Shim,
    /// `build.rs`: panics and wall clocks allowed.
    BuildScript,
}

impl Role {
    /// Do the `no-panic` / `wall-clock` rules apply to this role?
    pub fn holds_library_invariants(self) -> bool {
        matches!(self, Role::Lib)
    }
}

/// The only modules allowed to contain `unsafe`, workspace-relative.
/// This list is the single source of truth referenced from DESIGN.md
/// §3h/§3i; widening it is a reviewed change to this file.
pub const SANCTIONED_UNSAFE: &[&str] = &[
    // The SIMD boundary (DESIGN.md §3h): TypeId-proven slice casts and
    // AVX2/FMA intrinsics behind a scalar-identical contract.
    "crates/spmm/src/simd.rs",
    // The counting global allocator behind the allocation-free guards;
    // a GlobalAlloc impl is unsafe by signature.
    "tests/alloc_free.rs",
];

/// The only module allowed to read wall clocks: the injectable Clock's
/// production impl (everything else takes a `&dyn Clock`).
pub const SANCTIONED_WALL_CLOCK: &[&str] = &["crates/telemetry/src/clock.rs"];

/// Idents that allocate when called as `recv.method(...)` in hot code.
const HOT_ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string"];

/// Macros that allocate (`name!(...)`) in hot code.
const HOT_ALLOC_MACROS: &[&str] = &["format", "vec"];

/// `Type::ctor` pairs that allocate in hot code. (`Vec::new` itself is
/// a zero-alloc constructor, but it exists to be grown — a fresh
/// container in a hot region is a design smell the rule rejects.)
const HOT_ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("HashMap", "new"),
    ("HashMap", "with_capacity"),
    ("BTreeMap", "new"),
    ("HashSet", "new"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
];

/// Is `rel_path` a crate root that must carry the unsafe headers?
pub fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.ends_with("/src/lib.rs")
            && (rel_path.starts_with("crates/") || rel_path.starts_with("shims/")))
}

/// Lints one file. Findings are appended to `out`.
pub fn check_file(rel_path: &str, source: &str, role: Role, out: &mut Vec<LintViolation>) {
    let toks = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let ctx = FileCtx {
        rel_path,
        lines: &lines,
        allows: collect_allows(rel_path, &toks, &lines, out),
        test_region: attr_regions(&toks, is_cfg_test_attr),
        hot_region: comment_regions(&toks, "xct-hot"),
        impl_justified: justified_unsafe_impl_regions(&toks, &lines),
    };

    if is_crate_root(rel_path) {
        check_crate_root_header(&toks, &ctx, out);
    }

    let unsafe_sanctioned = SANCTIONED_UNSAFE.contains(&rel_path);
    let clock_sanctioned = SANCTIONED_WALL_CLOCK.contains(&rel_path);

    for (i, tok) in toks.iter().enumerate() {
        let Some(id) = tok.ident() else { continue };
        match id {
            "unsafe" => {
                if !unsafe_sanctioned {
                    ctx.emit(
                        out,
                        tok.line,
                        Rule::UnsafeBoundary,
                        format!(
                            "`unsafe` outside the sanctioned modules ({})",
                            SANCTIONED_UNSAFE.join(", ")
                        ),
                    );
                } else if !ctx.impl_justified.contains(i) && !safety_comment_above(&lines, tok.line)
                {
                    ctx.emit(
                        out,
                        tok.line,
                        Rule::SafetyComment,
                        "sanctioned `unsafe` without a `SAFETY:` justification".into(),
                    );
                }
            }
            "unwrap" | "expect"
                if ctx.lints_library_rules(role, i)
                    && prev_meaningful(&toks, i).is_some_and(|t| t.is_punct('.')) =>
            {
                ctx.emit(
                    out,
                    tok.line,
                    Rule::NoPanic,
                    format!("`.{id}()` in library code — return a typed error"),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if ctx.lints_library_rules(role, i)
                    && next_meaningful(&toks, i).is_some_and(|t| t.is_punct('!')) =>
            {
                ctx.emit(
                    out,
                    tok.line,
                    Rule::NoPanic,
                    format!("`{id}!` in library code — return a typed error"),
                );
            }
            "Instant"
                if ctx.lints_library_rules(role, i)
                    && !clock_sanctioned
                    && path_seg_after(&toks, i) == Some("now") =>
            {
                ctx.emit(
                    out,
                    tok.line,
                    Rule::WallClock,
                    "`Instant::now()` outside telemetry's Clock impl — take a `&dyn Clock`".into(),
                );
            }
            // Only path uses (`SystemTime::now`, `::UNIX_EPOCH`, …) are
            // clock reads; type positions just carry a value.
            "SystemTime"
                if ctx.lints_library_rules(role, i)
                    && !clock_sanctioned
                    && path_seg_after(&toks, i).is_some() =>
            {
                ctx.emit(
                    out,
                    tok.line,
                    Rule::WallClock,
                    "`SystemTime` outside telemetry's Clock impl — take a `&dyn Clock`".into(),
                );
            }
            _ => {}
        }

        // hot-alloc applies in hot regions regardless of role (hot
        // markers only appear in lib code today, but a hot bench inner
        // loop would deserve the same scrutiny).
        if ctx.hot_region.contains(i) && !ctx.test_region.contains(i) {
            check_hot_alloc(&toks, i, id, &ctx, out);
        }
    }
}

fn check_hot_alloc(
    toks: &[Tok],
    i: usize,
    id: &str,
    ctx: &FileCtx<'_>,
    out: &mut Vec<LintViolation>,
) {
    let line = toks[i].line;
    if HOT_ALLOC_METHODS.contains(&id) && prev_meaningful(toks, i).is_some_and(|t| t.is_punct('.'))
    {
        ctx.emit(
            out,
            line,
            Rule::HotAlloc,
            format!("allocating call `.{id}()` inside an `xct-hot` region"),
        );
    } else if HOT_ALLOC_MACROS.contains(&id)
        && next_meaningful(toks, i).is_some_and(|t| t.is_punct('!'))
    {
        ctx.emit(
            out,
            line,
            Rule::HotAlloc,
            format!("allocating macro `{id}!` inside an `xct-hot` region"),
        );
    } else if let Some(ctor) = path_seg_after(toks, i) {
        if HOT_ALLOC_CTORS.iter().any(|&(ty, c)| ty == id && c == ctor) {
            ctx.emit(
                out,
                line,
                Rule::HotAlloc,
                format!("allocating constructor `{id}::{ctor}` inside an `xct-hot` region"),
            );
        }
    }
}

/// Per-file context shared by the rule checks.
struct FileCtx<'a> {
    rel_path: &'a str,
    lines: &'a [&'a str],
    /// `(line, rule)` pairs with a valid opt-out comment on `line`.
    allows: HashSet<(usize, Rule)>,
    test_region: TokenRegions,
    hot_region: TokenRegions,
    impl_justified: TokenRegions,
}

impl FileCtx<'_> {
    /// Do the library-only rules apply at token `i`?
    fn lints_library_rules(&self, role: Role, i: usize) -> bool {
        role.holds_library_invariants() && !self.test_region.contains(i)
    }

    /// Records a violation unless an allow comment on the same line or
    /// the line above excuses it.
    fn emit(&self, out: &mut Vec<LintViolation>, line: usize, rule: Rule, detail: String) {
        let allowed = self.allows.contains(&(line, rule))
            || (line > 1 && self.allows.contains(&(line - 1, rule)));
        if allowed {
            return;
        }
        let excerpt = self
            .lines
            .get(line.saturating_sub(1))
            .map_or(String::new(), |l| l.trim().to_owned());
        out.push(LintViolation {
            file: self.rel_path.to_owned(),
            line,
            rule,
            excerpt,
            detail,
        });
    }
}

/// Sorted, disjoint half-open token-index ranges.
#[derive(Debug, Default)]
struct TokenRegions(Vec<(usize, usize)>);

impl TokenRegions {
    fn contains(&self, i: usize) -> bool {
        self.0.iter().any(|&(a, b)| a <= i && i < b)
    }
}

/// Token-index range of the `{ … }` block starting at the first `{` at
/// or after `from`. Returns `(open_idx, close_idx_exclusive)`.
fn block_after(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let open = (from..toks.len()).find(|&j| toks[j].is_punct('{'))?;
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((open, j + 1));
            }
        }
    }
    Some((open, toks.len()))
}

fn prev_meaningful(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks[..i].iter().rev().find(|t| t.comment().is_none())
}

fn next_meaningful(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks[i + 1..].iter().find(|t| t.comment().is_none())
}

/// If token `i` is followed by `::seg` (possibly through a turbofish,
/// as in `Vec::<u8>::new`), returns `seg`.
fn path_seg_after(toks: &[Tok], i: usize) -> Option<&str> {
    let mut rest = toks[i + 1..].iter().filter(|t| t.comment().is_none());
    if !rest.next()?.is_punct(':') || !rest.next()?.is_punct(':') {
        return None;
    }
    let mut t = rest.next()?;
    if t.is_punct('<') {
        let mut depth = 1usize;
        for t2 in rest.by_ref() {
            if t2.is_punct('<') {
                depth += 1;
            } else if t2.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if !rest.next()?.is_punct(':') || !rest.next()?.is_punct(':') {
            return None;
        }
        t = rest.next()?;
    }
    t.ident()
}

/// Is the attribute token run (between `[` and `]`) a `cfg(test)`-like
/// gate? `not(test)` gates are *compiled-in* code and stay linted.
fn is_cfg_test_attr(attr: &[&str]) -> bool {
    attr.contains(&"cfg") && attr.contains(&"test") && !attr.contains(&"not")
}

/// Regions `{ … }` introduced by an attribute satisfying `pred` over
/// the attribute's identifier list.
fn attr_regions(toks: &[Tok], pred: fn(&[&str]) -> bool) -> TokenRegions {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect idents to the matching `]`.
            let mut idents = Vec::new();
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if let Some(id) = t.ident() {
                    idents.push(id);
                }
                j += 1;
            }
            if pred(&idents) {
                if let Some(r) = block_after(toks, j) {
                    regions.push(r);
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    TokenRegions(regions)
}

/// The payload of a marker comment: text after the leading `//`, `*`,
/// `!` and whitespace. Markers must *start* the comment — prose that
/// merely mentions `xct-hot` or `xct-allow` (docs, this file) is inert.
fn marker_text(comment: &str) -> &str {
    comment.trim_start_matches(['/', '*', '!', ' ', '\t'])
}

/// Regions `{ … }` introduced by a comment starting with `marker`.
fn comment_regions(toks: &[Tok], marker: &str) -> TokenRegions {
    let mut regions = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.comment()
            .is_some_and(|c| marker_text(c).starts_with(marker))
        {
            if let Some(r) = block_after(toks, i + 1) {
                regions.push(r);
            }
        }
    }
    TokenRegions(regions)
}

/// Token ranges of `unsafe impl … { … }` blocks whose `unsafe` carries
/// a SAFETY justification: `unsafe fn` signatures *inside* such an impl
/// (e.g. `GlobalAlloc::alloc`) inherit the impl-level justification.
fn justified_unsafe_impl_regions(toks: &[Tok], lines: &[&str]) -> TokenRegions {
    let mut regions = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.ident() == Some("unsafe")
            && next_meaningful(toks, i).and_then(Tok::ident) == Some("impl")
            && safety_comment_above(lines, t.line)
        {
            if let Some(r) = block_after(toks, i) {
                regions.push(r);
            }
        }
    }
    TokenRegions(regions)
}

/// Does the contiguous run of comment/attribute lines directly above
/// `line` (or `line` itself) contain a SAFETY justification?
fn safety_comment_above(lines: &[&str], line: usize) -> bool {
    let has_marker = |l: &str| l.contains("SAFETY") || l.contains("# Safety");
    if lines.get(line - 1).is_some_and(|l| has_marker(l)) {
        return true;
    }
    let mut idx = line.saturating_sub(1); // 0-based index of `line`
    while idx > 0 {
        idx -= 1;
        let t = lines[idx].trim_start();
        let is_annotation = t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![");
        if !is_annotation {
            return false;
        }
        if has_marker(t) {
            return true;
        }
    }
    false
}

/// Parses every `xct-allow` comment; valid ones land in the returned
/// set keyed by `(line, rule)`, malformed ones are violations.
fn collect_allows(
    rel_path: &str,
    toks: &[Tok],
    lines: &[&str],
    out: &mut Vec<LintViolation>,
) -> HashSet<(usize, Rule)> {
    let mut allows = HashSet::new();
    for t in toks {
        let Some(text) = t.comment().map(marker_text) else {
            continue;
        };
        let Some(rest) = text.strip_prefix("xct-allow") else {
            continue;
        };
        let parsed = parse_allow(rest);
        match parsed {
            Some((rule, reason)) if !reason.trim().is_empty() => {
                allows.insert((t.line, rule));
            }
            Some((rule, _)) => {
                push_allow_violation(
                    out,
                    rel_path,
                    lines,
                    t.line,
                    format!("`xct-allow({rule})` has an empty justification"),
                );
            }
            None => {
                push_allow_violation(
                    out,
                    rel_path,
                    lines,
                    t.line,
                    "malformed `xct-allow` — expected `xct-allow(rule-name): justification`".into(),
                );
            }
        }
    }
    allows
}

/// Parses `"(rule): reason"`; returns the rule and the reason text.
fn parse_allow(rest: &str) -> Option<(Rule, &str)> {
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = Rule::parse(rest[..close].trim())?;
    let after = rest[close + 1..].strip_prefix(':')?;
    Some((rule, after))
}

fn push_allow_violation(
    out: &mut Vec<LintViolation>,
    rel_path: &str,
    lines: &[&str],
    line: usize,
    detail: String,
) {
    out.push(LintViolation {
        file: rel_path.to_owned(),
        line,
        rule: Rule::AllowJustification,
        excerpt: lines
            .get(line.saturating_sub(1))
            .map_or(String::new(), |l| l.trim().to_owned()),
        detail,
    });
}

/// Crate roots must keep `forbid(unsafe_code)` (or, for the gated SIMD
/// crate, `deny(unsafe_op_in_unsafe_fn)` alongside the conditional
/// forbid) in their inner attributes.
fn check_crate_root_header(toks: &[Tok], ctx: &FileCtx<'_>, out: &mut Vec<LintViolation>) {
    let idents: Vec<&str> = toks.iter().filter_map(Tok::ident).collect();
    let has = |a: &str, b: &str| idents.contains(&a) && idents.contains(&b);
    let forbids = has("forbid", "unsafe_code");
    let denies = has("deny", "unsafe_op_in_unsafe_fn");
    if !forbids && !denies {
        ctx.emit(
            out,
            1,
            Rule::CrateRootHeader,
            "crate root lacks `#![forbid(unsafe_code)]` (or the gated \
             `#![deny(unsafe_op_in_unsafe_fn)]` form)"
                .into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str, role: Role) -> Vec<LintViolation> {
        let mut out = Vec::new();
        check_file(path, src, role, &mut out);
        out
    }

    fn rules(v: &[LintViolation]) -> Vec<Rule> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn unsafe_outside_sanctioned_module_is_flagged_with_line() {
        let v = lint(
            "crates/foo/src/x.rs",
            "pub fn f() {\n    unsafe { g() }\n}\n",
            Role::Lib,
        );
        assert_eq!(rules(&v), vec![Rule::UnsafeBoundary]);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].excerpt, "unsafe { g() }");
    }

    #[test]
    fn unsafe_is_flagged_even_in_tests() {
        let v = lint(
            "crates/foo/tests/t.rs",
            "#[test]\nfn t() { unsafe { g() } }\n",
            Role::Test,
        );
        assert_eq!(rules(&v), vec![Rule::UnsafeBoundary]);
    }

    #[test]
    fn sanctioned_unsafe_needs_safety_comment() {
        let path = "crates/spmm/src/simd.rs";
        let bad = lint(path, "pub fn f() { unsafe { g() } }\n", Role::Lib);
        assert_eq!(rules(&bad), vec![Rule::SafetyComment]);
        let good = lint(
            path,
            "pub fn f() {\n    // SAFETY: g upholds its contract here\n    unsafe { g() }\n}\n",
            Role::Lib,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn doc_safety_section_through_attributes_is_accepted() {
        let src = "/// # Safety\n/// Caller checked avx2.\n#[target_feature(enable = \"avx2\")]\npub unsafe fn k() {}\n";
        let v = lint("crates/spmm/src/simd.rs", src, Role::Lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_fns_inside_justified_unsafe_impl_inherit() {
        let src = "// SAFETY: counting wrapper delegates to System.\nunsafe impl GlobalAlloc for A {\n    unsafe fn alloc(&self, l: Layout) -> *mut u8 { todo() }\n}\n";
        let v = lint("tests/alloc_free.rs", src, Role::Test);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_in_lib_is_flagged_but_tests_and_bins_are_exempt() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            rules(&lint("crates/foo/src/l.rs", src, Role::Lib)),
            vec![Rule::NoPanic]
        );
        assert!(lint("crates/foo/src/bin/b.rs", src, Role::Bin).is_empty());
        assert!(lint("shims/p/src/util.rs", src, Role::Shim).is_empty());
    }

    #[test]
    fn cfg_test_region_in_lib_file_is_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { f(); Some(1).unwrap(); }\n}\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_not_test_region_stays_linted() {
        let src = "#[cfg(not(test))]\nmod real {\n    pub fn f() { panic!(\"x\") }\n}\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert_eq!(rules(&v), vec![Rule::NoPanic]);
    }

    #[test]
    fn panic_family_macros_are_flagged_only_with_bang() {
        let src = "#[should_panic]\nfn a() {}\npub fn b() { unreachable!() }\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert_eq!(rules(&v), vec![Rule::NoPanic]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn allow_with_reason_silences_same_and_next_line() {
        let above = "pub fn f(x: Option<u8>) -> u8 {\n    // xct-allow(no-panic): invariant — caller checked is_some\n    x.unwrap()\n}\n";
        assert!(lint("crates/foo/src/l.rs", above, Role::Lib).is_empty());
        let trailing = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // xct-allow(no-panic): invariant — caller checked\n}\n";
        assert!(lint("crates/foo/src/l.rs", trailing, Role::Lib).is_empty());
    }

    #[test]
    fn allow_without_reason_or_unknown_rule_is_a_violation() {
        let empty = "// xct-allow(no-panic):\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint("crates/foo/src/l.rs", empty, Role::Lib);
        assert_eq!(rules(&v), vec![Rule::AllowJustification, Rule::NoPanic]);
        let unknown = "// xct-allow(nonsense): because\npub fn f() {}\n";
        let v = lint("crates/foo/src/l.rs", unknown, Role::Lib);
        assert_eq!(rules(&v), vec![Rule::AllowJustification]);
    }

    #[test]
    fn wall_clock_reads_are_flagged_outside_clock_impl() {
        let src = "pub fn f() -> Instant { Instant::now() }\n";
        assert_eq!(
            rules(&lint("crates/foo/src/l.rs", src, Role::Lib)),
            vec![Rule::WallClock]
        );
        assert!(lint("crates/telemetry/src/clock.rs", src, Role::Lib).is_empty());
        // The bare import/type position is fine; only ::now is a read.
        let ty = "pub struct S { t: Instant }\n";
        assert!(lint("crates/foo/src/l.rs", ty, Role::Lib).is_empty());
        let sys = "pub fn f() -> SystemTime { SystemTime::now() }\n";
        assert_eq!(
            rules(&lint("crates/foo/src/l.rs", sys, Role::Lib)),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn hot_region_rejects_allocations_and_ends_at_brace() {
        let src = "pub fn f(xs: &[u32]) -> u32 {\n    // xct-hot\n    {\n        let v: Vec<u32> = xs.iter().copied().collect();\n        v[0]\n    }\n}\npub fn cold(xs: &[u32]) -> Vec<u32> { xs.to_vec() }\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert_eq!(rules(&v), vec![Rule::HotAlloc]);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn hot_region_macro_and_ctor_forms() {
        let src = "// xct-hot\npub fn f() {\n    let a = vec![1];\n    let b = format!(\"x\");\n    let c = Vec::<u8>::new();\n    let d = Box::new(1);\n}\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::HotAlloc));
    }

    #[test]
    fn hot_alloc_can_be_allowed_with_reason() {
        let src = "// xct-hot\npub fn f(ok: bool) -> Result<(), String> {\n    if ok { return Ok(()); }\n    // xct-allow(hot-alloc): cold error path, never taken steady-state\n    Err(format!(\"bad\"))\n}\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crate_root_header_rule() {
        let v = lint("crates/foo/src/lib.rs", "pub fn f() {}\n", Role::Lib);
        assert_eq!(rules(&v), vec![Rule::CrateRootHeader]);
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint("crates/foo/src/lib.rs", ok, Role::Lib).is_empty());
        let gated = "#![cfg_attr(not(feature = \"simd\"), forbid(unsafe_code))]\n#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}\n";
        assert!(lint("crates/spmm/src/lib.rs", gated, Role::Lib).is_empty());
        // Non-roots are not checked.
        assert!(lint("crates/foo/src/util.rs", "pub fn f() {}\n", Role::Lib).is_empty());
    }

    #[test]
    fn vec_new_is_rejected_in_hot_but_fine_outside() {
        let src = "pub fn f() -> Vec<u8> { Vec::new() }\n";
        assert!(lint("crates/foo/src/l.rs", src, Role::Lib).is_empty());
    }

    #[test]
    fn prose_mentions_of_markers_are_inert() {
        // Doc text that *talks about* the markers must not open a hot
        // region or count as an allow attempt.
        let src = "/// Use an `// xct-hot` marker, or `// xct-allow(rule-name): reason`.\npub fn f() { let v = vec![1]; drop(v); }\n";
        let v = lint("crates/foo/src/l.rs", src, Role::Lib);
        assert!(v.is_empty(), "{v:?}");
    }
}
