//! The rule catalog.
//!
//! Determinism rules (`D`) guard the property the whole reproduction
//! rests on: two runs of the same scenario must produce byte-identical
//! traces, dumps, and wire bytes. Unsafe-hygiene rules (`U`) guard the
//! one crate that is allowed to hold `unsafe` code (the E-Code VM). The
//! public-surface rule (`P`) is the one pass that reads the whole scan
//! set at once ([`p0001`]).
//!
//! All rules are token-stream heuristics over [`crate::lexer::lex`]
//! output — there is no type information, so each rule is written to
//! err on the side of flagging; genuinely order-independent sites get
//! an `analyzer.toml` waiver with a written justification.

use std::collections::BTreeSet;
use std::path::Path;

use crate::diag::Diagnostic;
use crate::lexer::{Lexed, SpannedTok, Tok};

/// Runs every rule against one lexed file. `src` is the raw source (for
/// the D0002 nearby-sort check). Diagnostics come back sorted by line.
pub fn run_all(file: &Path, lexed: &Lexed, src: &str) -> Vec<Diagnostic> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    d0001(file, lexed, &mut out);
    d0002(file, lexed, &lines, &mut out);
    d0003(file, lexed, &mut out);
    d0004(file, lexed, &mut out);
    d0005(file, lexed, &mut out);
    u0001(file, lexed, &mut out);
    u0002(file, lexed, &mut out);
    out.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    out
}

fn ident(t: &[SpannedTok], i: usize) -> Option<&str> {
    match t.get(i)?.tok {
        Tok::Ident(ref s) => Some(s),
        _ => None,
    }
}

fn is_punct(t: &[SpannedTok], i: usize, c: char) -> bool {
    matches!(t.get(i), Some(SpannedTok { tok: Tok::Punct(p), .. }) if *p == c)
}

/// `t[i]` and `t[i+1]` form a `::` path separator.
fn is_path_sep(t: &[SpannedTok], i: usize) -> bool {
    is_punct(t, i, ':') && is_punct(t, i + 1, ':')
}

/// Index just past the bracket group opened at `open` (`(`, `[` or `{`).
fn after_group(t: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < t.len() {
        match t[i].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------- D0001

/// Paths where wall-clock reads are the point (benchmarks and CLI
/// entrypoints report real elapsed time); everywhere else the simulated
/// clock (`SimTime`) is the only time source.
fn wall_clock_exempt(file: &Path) -> bool {
    let p = file.to_string_lossy();
    p.contains("crates/bench/") || p.contains("/bin/") || p.starts_with("examples/")
}

fn d0001(file: &Path, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if wall_clock_exempt(file) {
        return;
    }
    for st in &lexed.toks {
        if let Tok::Ident(name) = &st.tok {
            if name == "Instant" || name == "SystemTime" || name == "UNIX_EPOCH" {
                out.push(Diagnostic::error(
                    "D0001",
                    file.to_path_buf(),
                    st.line,
                    format!("wall-clock time source `{name}` in simulation code"),
                    "wall time differs across runs and machines; any value derived from \
                     it makes traces non-reproducible",
                    "thread `SimTime` from the event loop (or take a time parameter); \
                     wall clocks belong only in bench/CLI code",
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- D0002

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Adapters that preserve the ordering question — keep following the
/// chain; the terminal decides.
const CHAIN_CONTINUE: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "cloned",
    "copied",
    "inspect",
    "map_while",
    "peekable",
    "fuse",
    "by_ref",
    "chain",
];

/// Terminals whose result is independent of iteration order.
const ORDER_FREE: &[&str] = &["sum", "count", "all", "any", "max", "min", "product"];

/// Terminals (or adapters) whose result depends on which element comes
/// first — in hash order, that is a per-process coin flip.
const ORDER_SENSITIVE: &[&str] = &[
    "min_by_key",
    "max_by_key",
    "min_by",
    "max_by",
    "find",
    "find_map",
    "position",
    "last",
    "for_each",
    "reduce",
    "fold",
    "next",
    "nth",
    "take",
    "skip",
    "take_while",
    "skip_while",
    "step_by",
    "zip",
    "rev",
    "partition",
];

const D0002_RATIONALE: &str = "HashMap/HashSet iteration order depends on hash-seed and \
     insertion history; anything order-dependent built from it differs run to run";
const D0002_FIX: &str = "collect into a Vec and sort by a stable key before consuming \
     (see `Lpa::class_summaries`), or use a BTreeMap/BTreeSet";

/// Names bound (via `: HashMap<...>` / `: HashSet<...>` annotations on
/// lets, fields, and params, or `= HashMap::new()`-style initializers)
/// to hash-ordered collections in this file.
fn hash_names(t: &[SpannedTok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..t.len() {
        let Some(name) = ident(t, i) else { continue };
        // `name: path::to::HashMap<...>` — annotation (not a `::` path).
        if is_punct(t, i + 1, ':') && !is_path_sep(t, i + 1) {
            let mut j = i + 2;
            while j < t.len() && j < i + 14 {
                match &t[j].tok {
                    Tok::Ident(ty) if ty == "HashMap" || ty == "HashSet" => {
                        names.insert(name.to_string());
                        break;
                    }
                    Tok::Punct(',' | ';' | '=' | '{' | '(' | ')' | '|') => break,
                    _ => j += 1,
                }
            }
        }
        // `name = HashMap::new()` / `= HashSet::with_capacity(..)`.
        if is_punct(t, i + 1, '=') && !is_punct(t, i + 2, '=') && !is_punct(t, i, '=') {
            let mut j = i + 2;
            while j < t.len() && j < i + 10 {
                match &t[j].tok {
                    Tok::Ident(ty) if ty == "HashMap" || ty == "HashSet" => {
                        names.insert(name.to_string());
                        break;
                    }
                    Tok::Punct('(' | ';' | ',') => break,
                    _ => j += 1,
                }
            }
        }
    }
    names
}

enum ChainVerdict {
    Clean,
    Flag { line: u32, what: String },
}

/// Follows a method chain starting at the `(` of the hash-iteration
/// call and decides whether the hash ordering can be observed.
fn walk_chain(t: &[SpannedTok], open_idx: usize, recv_idx: usize, lines: &[&str]) -> ChainVerdict {
    let mut i = after_group(t, open_idx);
    loop {
        if !is_punct(t, i, '.') {
            // Chain ends undecided (`;`, `{`, passed as an argument...):
            // the hash-ordered iterator escapes to code we cannot see.
            return ChainVerdict::Flag {
                line: t.get(recv_idx).map_or(0, |s| s.line),
                what: "hash-ordered iterator escapes without a decisive order-free \
                       terminal or sort"
                    .into(),
            };
        }
        let Some(m) = ident(t, i + 1) else {
            return ChainVerdict::Flag {
                line: t[i].line,
                what: "hash-ordered iterator used in an unrecognized position".into(),
            };
        };
        let mline = t[i + 1].line;
        if m == "collect" {
            return collect_verdict(t, i + 1, recv_idx, lines);
        }
        if ORDER_FREE.contains(&m) {
            return ChainVerdict::Clean;
        }
        if ORDER_SENSITIVE.contains(&m) {
            return ChainVerdict::Flag {
                line: mline,
                what: format!("`.{m}(...)` consumes hash-ordered items; its result depends on iteration order"),
            };
        }
        if CHAIN_CONTINUE.contains(&m) && is_punct(t, i + 2, '(') {
            i = after_group(t, i + 2);
            continue;
        }
        return ChainVerdict::Flag {
            line: mline,
            what: format!("hash-ordered iterator flows into `.{m}(...)`, which this analyzer cannot prove order-free"),
        };
    }
}

/// A `collect()` ending a hash-iteration chain is fine if it lands in a
/// BTree collection or in a named binding that gets `.sort*`ed within a
/// few lines.
fn collect_verdict(
    t: &[SpannedTok],
    collect_idx: usize,
    recv_idx: usize,
    lines: &[&str],
) -> ChainVerdict {
    let cline = t[collect_idx].line;
    // Turbofish: `collect::<BTreeMap<_, _>>()`.
    if is_path_sep(t, collect_idx + 1) {
        let mut j = collect_idx + 3;
        while j < t.len() && j < collect_idx + 40 && !is_punct(t, j, '(') {
            if ident(t, j).is_some_and(|s| s.contains("BTree")) {
                return ChainVerdict::Clean;
            }
            j += 1;
        }
    }
    // Find the statement start and the `let [mut] NAME` binding.
    let mut s = recv_idx;
    while s > 0 && !matches!(t[s - 1].tok, Tok::Punct(';' | '{' | '}')) {
        s -= 1;
    }
    if ident(t, s) == Some("let") {
        let mut k = s + 1;
        if ident(t, k) == Some("mut") {
            k += 1;
        }
        if let Some(name) = ident(t, k) {
            // `let x: BTreeMap<..> = ...collect()`.
            let mut j = k + 1;
            while j < t.len() && j < k + 40 && !is_punct(t, j, '=') {
                if ident(t, j).is_some_and(|s| s.contains("BTree")) {
                    return ChainVerdict::Clean;
                }
                j += 1;
            }
            // `NAME.sort*` within the next few lines.
            let needle = format!("{name}.sort");
            let from = cline as usize; // line AFTER the collect line, 0-based == cline
            for l in lines.iter().skip(from.saturating_sub(1)).take(8) {
                if l.contains(&needle) {
                    return ChainVerdict::Clean;
                }
            }
            return ChainVerdict::Flag {
                line: cline,
                what: format!(
                    "collected from hash-ordered iteration but `{name}` is never sorted nearby"
                ),
            };
        }
    }
    ChainVerdict::Flag {
        line: cline,
        what: "collect() of hash-ordered iteration in expression position (no binding to sort)"
            .into(),
    }
}

fn d0002(file: &Path, lexed: &Lexed, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let t = &lexed.toks;
    let names = hash_names(t);
    if names.is_empty() {
        return;
    }
    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, line: u32, what: String| {
        if flagged_lines.insert(line) {
            out.push(Diagnostic::error(
                "D0002",
                file.to_path_buf(),
                line,
                what,
                D0002_RATIONALE,
                D0002_FIX,
            ));
        }
    };

    // Method-chain sites: `name.iter()...`, `self.field.keys()...`.
    for i in 0..t.len() {
        if !is_punct(t, i, '.') {
            continue;
        }
        let Some(m) = ident(t, i + 1) else { continue };
        if !ITER_METHODS.contains(&m) || !is_punct(t, i + 2, '(') {
            continue;
        }
        let Some(recv) = (i > 0).then(|| ident(t, i - 1)).flatten() else {
            continue;
        };
        if !names.contains(recv) {
            continue;
        }
        if let ChainVerdict::Flag { line, what } = walk_chain(t, i + 2, i - 1, lines) {
            push(out, line, format!("`{recv}.{m}()`: {what}"));
        }
    }

    // Direct for-loops: `for (k, v) in &self.field { ... }`.
    for i in 0..t.len() {
        if ident(t, i) != Some("for") {
            continue;
        }
        // Find the `in` of this loop header (patterns never contain `in`).
        let mut j = i + 1;
        while j < t.len() && j < i + 24 && ident(t, j) != Some("in") {
            j += 1;
        }
        if ident(t, j) != Some("in") {
            continue;
        }
        let mut k = j + 1;
        while is_punct(t, k, '&') || ident(t, k) == Some("mut") {
            k += 1;
        }
        // Dotted path `a.b.c` directly followed by the loop body `{`.
        let mut last = None;
        while let Some(seg) = ident(t, k) {
            last = Some((seg, t[k].line));
            if is_punct(t, k + 1, '.') {
                k += 2;
            } else {
                k += 1;
                break;
            }
        }
        if let Some((seg, line)) = last {
            if is_punct(t, k, '{') && names.contains(seg) {
                push(
                    out,
                    line,
                    format!("for-loop iterates `{seg}` directly in hash order"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- D0003

fn d0003(file: &Path, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    const ENTROPY: &[&str] = &[
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "RandomState",
    ];
    for st in &lexed.toks {
        if let Tok::Ident(name) = &st.tok {
            if ENTROPY.contains(&name.as_str()) {
                out.push(Diagnostic::error(
                    "D0003",
                    file.to_path_buf(),
                    st.line,
                    format!("OS entropy source `{name}` bypasses the seeded SimRng streams"),
                    "randomness outside the forked SimRng streams cannot be replayed \
                     from a scenario seed; `RandomState` is the same thing inside a hash \
                     table (a per-process SipHash key from the OS), which is why tables on \
                     the per-event path use the seedless `simcore::hash` aliases and only \
                     string-keyed or per-batch tables stay on std's default hasher",
                    "fork a named stream from the scenario's SimRng (`rng.fork(\"...\")`) \
                     and thread it to the use site; for a keyed table use \
                     `simcore::hash::{HashMap, HashSet}`",
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- D0004

fn d0004(file: &Path, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let t = &lexed.toks;
    let mut lines: BTreeSet<u32> = BTreeSet::new();
    for i in 0..t.len() {
        let Some(name) = ident(t, i) else { continue };
        let hit = (name == "thread" && is_path_sep(t, i + 1) && ident(t, i + 3) == Some("spawn"))
            || (name == "thread" && is_path_sep(t, i + 1) && ident(t, i + 3) == Some("Builder"))
            || (name == "sync" && is_path_sep(t, i + 1) && ident(t, i + 3) == Some("atomic"))
            || name == "crossbeam"
            || (name.starts_with("Atomic")
                && name.len() > "Atomic".len()
                && name.as_bytes()["Atomic".len()].is_ascii_uppercase());
        if hit {
            lines.insert(t[i].line);
        }
    }
    for line in lines {
        out.push(Diagnostic::error(
            "D0004",
            file.to_path_buf(),
            line,
            "real thread/atomic use outside the simulation's single-threaded model".into(),
            "the simulator serializes all concurrency through the event loop; real \
             threads introduce scheduling nondeterminism the seed cannot control",
            "model concurrency as simos processes/events; if host-side parallelism is \
             truly required, waive the site with a justification in analyzer.toml",
        ));
    }
}

// ---------------------------------------------------------------- D0005

/// Wall-clock *calls*, flagged everywhere — no path exemption.
///
/// D0001 flags the wall-clock *types* but exempts bench/CLI paths
/// wholesale, which means a new `Instant::now()` in those paths lands
/// silently. This rule makes every call site visible: the simulated
/// clock is the only sanctioned time source, and the handful of
/// legitimate host-side timing reads (benchmark wall timers) each carry
/// an `analyzer.toml` waiver with a written justification.
fn d0005(file: &Path, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let t = &lexed.toks;
    for i in 0..t.len() {
        let Some(name) = ident(t, i) else { continue };
        if (name == "Instant" || name == "SystemTime")
            && is_path_sep(t, i + 1)
            && ident(t, i + 3) == Some("now")
            && is_punct(t, i + 4, '(')
        {
            out.push(Diagnostic::error(
                "D0005",
                file.to_path_buf(),
                t[i].line,
                format!("wall-clock read `{name}::now()` — `SimTime` is the only sanctioned time source"),
                "this rule has no path exemption (unlike D0001): every wall-clock \
                 read is individually accounted for, so one cannot slip into \
                 replayed logic through an exempted directory",
                "derive time from `SimTime`/the event loop; a host-side timer that \
                 genuinely measures real elapsed time gets an analyzer.toml waiver \
                 saying so",
            ));
        }
    }
}

// ---------------------------------------------------------------- U0001

fn u0001(file: &Path, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let t = &lexed.toks;
    for i in 0..t.len() {
        if ident(t, i) != Some("unsafe") {
            continue;
        }
        // `unsafe fn` declarations are contracts, not uses: each unsafe
        // *operation* inside still needs its own block + comment
        // (enforced by `unsafe_op_in_unsafe_fn = "deny"`).
        if ident(t, i + 1) == Some("fn") {
            continue;
        }
        let line = t[i].line;
        let documented =
            (line.saturating_sub(3)..=line).any(|l| lexed.comment_on_line_contains(l, "SAFETY"));
        if !documented {
            out.push(Diagnostic::error(
                "U0001",
                file.to_path_buf(),
                line,
                "`unsafe` without an adjacent `// SAFETY:` comment".into(),
                "every unsafe site must state the invariant that makes it sound, where \
                 the next editor will see it",
                "add a `// SAFETY: ...` comment on the line above (or the same line) \
                 naming the upheld invariant",
            ));
        }
    }
}

// ---------------------------------------------------------------- U0002

const PTR_MATH: &[&str] = &[
    "add",
    "sub",
    "offset",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_offset",
    "byte_add",
    "byte_sub",
];

/// Names bound to raw pointers in this file: `: *const T` / `: *mut T`
/// annotations and `let p = x.as_ptr()` / `as_mut_ptr()` initializers.
fn raw_ptr_names(t: &[SpannedTok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..t.len() {
        let Some(name) = ident(t, i) else { continue };
        if is_punct(t, i + 1, ':') && !is_path_sep(t, i + 1) {
            let mut j = i + 2;
            while j < t.len() && j < i + 10 {
                match &t[j].tok {
                    Tok::Punct('*') if matches!(ident(t, j + 1), Some("const") | Some("mut")) => {
                        names.insert(name.to_string());
                        break;
                    }
                    Tok::Punct(',' | ';' | '=' | '{' | '(' | ')' | '|') => break,
                    _ => j += 1,
                }
            }
        }
    }
    // `let [mut] NAME = <expr>.as_ptr()` — scan statements.
    for i in 0..t.len() {
        if !matches!(ident(t, i), Some("as_ptr") | Some("as_mut_ptr")) {
            continue;
        }
        let mut s = i;
        while s > 0 && !matches!(t[s - 1].tok, Tok::Punct(';' | '{' | '}')) {
            s -= 1;
        }
        if ident(t, s) == Some("let") {
            let mut k = s + 1;
            if ident(t, k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = ident(t, k) {
                names.insert(name.to_string());
            }
        }
    }
    names
}

fn u0002(file: &Path, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let t = &lexed.toks;
    let names = raw_ptr_names(t);
    if names.is_empty() {
        return;
    }
    for i in 0..t.len() {
        if !is_punct(t, i, '.') {
            continue;
        }
        let Some(m) = ident(t, i + 1) else { continue };
        if !PTR_MATH.contains(&m) || !is_punct(t, i + 2, '(') {
            continue;
        }
        let Some(recv) = (i > 0).then(|| ident(t, i - 1)).flatten() else {
            continue;
        };
        if names.contains(recv) {
            out.push(Diagnostic::error(
                "U0002",
                file.to_path_buf(),
                t[i + 1].line,
                format!("raw-pointer arithmetic `{recv}.{m}(...)`"),
                "unchecked pointer math cannot be audited by reading one site; no \
                 file in this workspace is exempt",
                "use slice indexing or iterators here",
            ));
        }
    }
}

// ---------------------------------------------------------------- P0001

/// Item keywords whose `pub` definitions the census covers.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "type"];

/// Whether `file` is product source whose public items P0001 audits
/// (`crates/<name>/src/...`); every other scanned file is read for
/// callers only.
fn is_crate_src(file: &Path) -> bool {
    let mut parts = file.components().map(|c| c.as_os_str());
    parts.next().is_some_and(|p| p == "crates")
        && parts.next().is_some()
        && parts.next().is_some_and(|p| p == "src")
}

/// Marks the tokens of every item gated by `#[cfg(test)]`: from the
/// attribute through the item's closing `}` (or `;`).
fn mark_test_items(t: &[SpannedTok], skip: &mut [bool]) {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let matches_at = |i: usize| {
        CFG_TEST
            .iter()
            .enumerate()
            .all(|(k, want)| match t.get(i + k).map(|s| &s.tok) {
                Some(Tok::Ident(s)) => s == want,
                Some(Tok::Punct(c)) => want.len() == 1 && want.starts_with(*c),
                _ => false,
            })
    };
    let mut i = 0;
    while i < t.len() {
        if !matches_at(i) {
            i += 1;
            continue;
        }
        // Further attributes, then the item header up to its body.
        let mut j = i + CFG_TEST.len();
        while j < t.len() {
            match t[j].tok {
                Tok::Punct('(' | '[') => j = after_group(t, j),
                Tok::Punct('{') => {
                    j = after_group(t, j);
                    break;
                }
                Tok::Punct(';') => {
                    j += 1;
                    break;
                }
                _ => j += 1,
            }
        }
        skip[i..j.min(t.len())].fill(true);
        i = j;
    }
}

/// Marks the tokens of every `use` declaration: an import (or a
/// re-export) names an item without calling it.
fn mark_use_decls(t: &[SpannedTok], skip: &mut [bool]) {
    let mut i = 0;
    while i < t.len() {
        if ident(t, i) == Some("use") {
            while i < t.len() && !is_punct(t, i, ';') {
                skip[i] = true;
                i += 1;
            }
        }
        i += 1;
    }
}

/// The name token of the plain-`pub` item starting at `t[i] == pub`, if
/// it is one of [`ITEM_KEYWORDS`]. `pub(crate)`/`pub(super)` items are
/// rustc's `dead_code` lint's to police.
fn pub_item_name(t: &[SpannedTok], i: usize) -> Option<usize> {
    if ident(t, i) != Some("pub") || is_punct(t, i + 1, '(') {
        return None;
    }
    let mut j = i + 1;
    loop {
        match ident(t, j)? {
            "unsafe" | "async" => j += 1,
            "const" if matches!(ident(t, j + 1), Some("fn" | "unsafe" | "async" | "extern")) => {
                j += 1
            }
            "extern" => {
                j += if matches!(t.get(j + 1)?.tok, Tok::Literal) {
                    2
                } else {
                    1
                }
            }
            kw => {
                return (ITEM_KEYWORDS.contains(&kw) && ident(t, j + 1).is_some()).then_some(j + 1)
            }
        }
    }
}

/// The public-surface census, a pass over the whole scan set: a plain
/// `pub fn/struct/enum/trait/const/type` defined outside test code under
/// `crates/*/src` is a finding when its name is used in no other scanned
/// file and nowhere else in its own file's non-test code. `use`
/// declarations do not count as uses, so a re-export cannot keep an
/// uncalled item alive. Names are compared as bare identifiers — there
/// is no path resolution — so an item that shares its name with
/// anything used elsewhere stays silent.
pub fn p0001(files: &[(&Path, &Lexed)]) -> Vec<Diagnostic> {
    // Per file: which tokens count as uses at all, and which of those
    // are outside test items.
    let masks: Vec<(Vec<bool>, Vec<bool>)> = files
        .iter()
        .map(|(_, lexed)| {
            let mut in_use = vec![false; lexed.toks.len()];
            mark_use_decls(&lexed.toks, &mut in_use);
            let mut in_test = vec![false; lexed.toks.len()];
            mark_test_items(&lexed.toks, &mut in_test);
            (in_use, in_test)
        })
        .collect();
    // Name -> the files it is used in (indices into `files`, ascending).
    let mut used_in: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
    for (f, (_, lexed)) in files.iter().enumerate() {
        for (i, st) in lexed.toks.iter().enumerate() {
            if let (Tok::Ident(name), false) = (&st.tok, masks[f].0[i]) {
                let seen = used_in.entry(name).or_default();
                if seen.last() != Some(&f) {
                    seen.push(f);
                }
            }
        }
    }

    let mut out = Vec::new();
    for (f, (file, lexed)) in files.iter().enumerate() {
        if !is_crate_src(file) {
            continue;
        }
        let t = &lexed.toks;
        let (in_use, in_test) = &masks[f];
        for i in 0..t.len() {
            let Some(def) = pub_item_name(t, i).filter(|_| !in_test[i]) else {
                continue;
            };
            let name = ident(t, def).expect("pub_item_name returns an identifier");
            let elsewhere = used_in
                .get(name)
                .is_some_and(|fs| fs.iter().any(|&g| g != f));
            let own_code = (0..t.len())
                .any(|k| k != def && !in_use[k] && !in_test[k] && ident(t, k) == Some(name));
            if elsewhere || own_code {
                continue;
            }
            out.push(Diagnostic::error(
                "P0001",
                file.to_path_buf(),
                t[def].line,
                format!(
                    "`pub {} {name}` is named nowhere outside its own file's test code",
                    ident(t, def - 1).unwrap_or("item")
                ),
                "public surface nothing reaches is code every reader must still \
                 understand and every refactor must still carry; a unit test that is \
                 the item's only caller tests nothing the product does",
                "delete the item together with the tests that exist only to call it; \
                 if a remaining test needs it to reach a safety behaviour of reachable \
                 code, waive it in analyzer.toml and say which",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        run_all(&PathBuf::from("crates/x/src/lib.rs"), &lex(src), src)
    }

    fn codes(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn d0002_sorted_collect_is_clean() {
        let src = "
struct S { m: HashMap<u32, u32> }
impl S {
    fn f(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.m.keys().copied().collect();
        out.sort();
        out
    }
}";
        assert!(codes(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn d0002_unsorted_collect_flags() {
        let src = "
struct S { m: HashMap<u32, u32> }
impl S {
    fn f(&self) -> Vec<u32> {
        let out: Vec<u32> = self.m.keys().copied().collect();
        out
    }
}";
        assert_eq!(codes(src), vec!["D0002"]);
    }

    #[test]
    fn d0002_order_free_terminal_is_clean() {
        let src = "
fn f(m: &HashMap<u32, u64>) -> u64 {
    m.values().sum()
}";
        assert!(codes(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn d0002_min_by_key_flags_and_btree_collect_clean() {
        let flagged = "
fn f(m: &HashMap<u32, u64>) -> Option<(&u32, &u64)> {
    m.iter().min_by_key(|(_, v)| **v)
}";
        assert_eq!(codes(flagged), vec!["D0002"]);
        let clean = "
fn f(m: &HashMap<u32, u64>) -> BTreeMap<u32, u64> {
    m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u32, u64>>()
}";
        assert!(codes(clean).is_empty(), "{:?}", run(clean));
    }

    #[test]
    fn d0002_direct_for_loop_flags() {
        let src = "
struct S { m: HashMap<u32, u32> }
impl S {
    fn f(&mut self) {
        for (k, v) in &self.m { emit(k, v); }
    }
}";
        assert_eq!(codes(src), vec!["D0002"]);
    }

    #[test]
    fn u0001_needs_adjacent_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(codes(bad), vec!["U0001"]);
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        assert!(codes(good).is_empty(), "{:?}", run(good));
    }

    #[test]
    fn u0001_unsafe_fn_decl_exempt() {
        let src = "unsafe fn f() {}";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn u0002_ptr_math_flagged() {
        let src = "
fn f(v: &[u8]) -> u8 {
    let p = v.as_ptr();
    // SAFETY: in bounds
    unsafe { *p.add(1) }
}";
        assert_eq!(codes(src), vec!["U0002"]);
    }

    #[test]
    fn d0001_d0003_d0004_idents_flag() {
        // A wall-clock call trips both the type rule and the call rule.
        assert_eq!(codes("let t = Instant::now();"), vec!["D0001", "D0005"]);
        assert_eq!(codes("let r = thread_rng();"), vec!["D0003"]);
        assert_eq!(codes("let h = std::thread::spawn(|| {});"), vec!["D0004"]);
        assert_eq!(
            codes("static N: AtomicU64 = AtomicU64::new(0);"),
            vec!["D0004"]
        );
        // Named-thread spawns and channel crates are the same escape
        // hatch as a bare `thread::spawn`.
        assert_eq!(
            codes("let b = std::thread::Builder::new().name(n.into());"),
            vec!["D0004"]
        );
        assert_eq!(codes("use crossbeam::channel::bounded;"), vec!["D0004"]);
    }

    #[test]
    fn d0001_exempt_in_bench_paths_but_d0005_is_not() {
        let src = "let t = Instant::now();";
        let d = run_all(
            &PathBuf::from("crates/bench/src/bin/figures.rs"),
            &lex(src),
            src,
        );
        let codes: Vec<_> = d.iter().map(|d| d.code).collect();
        // The type rule honors the bench exemption; the call rule fires
        // everywhere and the site must be waived instead.
        assert_eq!(codes, vec!["D0005"]);
    }

    #[test]
    fn d0005_flags_calls_not_lookalikes() {
        assert_eq!(
            codes("let t = std::time::SystemTime::now();"),
            vec!["D0001", "D0005"]
        );
        // A method named `now` on some other receiver is not a
        // wall-clock read, nor is the un-called path `Instant::now`.
        assert_eq!(codes("let t = clock.now();"), Vec::<&str>::new());
        assert_eq!(codes("let f = Instant::now;"), vec!["D0001"]);
    }
}
