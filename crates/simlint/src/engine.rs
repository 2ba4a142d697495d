//! The lint engine: file discovery, per-file context (crate, test
//! regions), rule dispatch, and pragma suppression accounting.

use crate::diagnostics::{self, Diagnostic};
use crate::lexer::{self, Tok, TokKind};
use crate::pragma;
use crate::rules;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file prepared for rule matching.
#[derive(Debug)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// The `crates/<dir>` component ("core", "sim-core", ...), or
    /// "root" for the umbrella crate's own sources.
    pub crate_dir: String,
    /// Whether the file lives under a `tests/` directory (integration
    /// tests: scoped rules skip the whole file).
    pub is_test_file: bool,
    /// Code tokens.
    pub toks: Vec<Tok>,
    /// Per-token flag: inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: Vec<bool>,
}

impl FileCtx {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// Whether the token stream is empty.
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }

    /// Identifier text at `i`, if `i` is an identifier.
    pub fn id(&self, i: usize) -> Option<&str> {
        self.toks
            .get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    /// Punctuation char at `i`, if `i` is punctuation.
    pub fn punct(&self, i: usize) -> Option<char> {
        self.toks
            .get(i)
            .filter(|t| t.kind == TokKind::Punct)
            .and_then(|t| t.text.chars().next())
    }

    /// Numeric literal text at `i`, if `i` is a number.
    pub fn num(&self, i: usize) -> Option<&str> {
        self.toks
            .get(i)
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
    }

    /// Raw token text at `i` (empty past the end).
    pub fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    /// `::` at positions `i`, `i + 1`.
    pub fn colons(&self, i: usize) -> bool {
        self.punct(i) == Some(':') && self.punct(i + 1) == Some(':')
    }

    /// 1-based line of token `i` (0 past the end; rules only call this
    /// for matched positions).
    pub fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    /// Whether token `i` is live, non-test code. Scoped rules skip
    /// test regions: test code does not sit on the replay path, and
    /// seeded constructions there are the point of the tests.
    pub fn live(&self, i: usize) -> bool {
        !self.is_test_file && !self.in_test.get(i).copied().unwrap_or(false)
    }
}

/// Marks every token inside an item carrying `#[test]` or a
/// `#[cfg(...)]` attribute that mentions `test` (without `not`). The
/// item's extent is taken as the brace block that follows the
/// attribute. Before any `{`, a `;` at bracket depth 0 ends a bodyless
/// item, and a `,` at bracket and generics depth 0 or a `}` ends a
/// struct field, enum variant or struct-literal field: the brace block
/// after those (say, the next `impl`) is live code. A comma in a test
/// item's `where` clause ends its region early too; its body is then
/// linted as live code, a loud false positive rather than a silent
/// skip.
fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut flag = vec![false; toks.len()];
    let mut depth: u32 = 0;
    let mut paren_depth: u32 = 0;
    // `<`/`>` nesting since the pending attribute: generics in the item
    // header, whose commas do not end the item.
    let mut angle_depth: u32 = 0;
    let mut region_stack: Vec<u32> = Vec::new();
    let mut pending = false;
    let mut i = 0;
    while i < toks.len() {
        // Attribute: `#[...]` or `#![...]`.
        if is_punct(toks, i, '#') {
            let mut k = i + 1;
            if is_punct(toks, k, '!') {
                k += 1;
            }
            if is_punct(toks, k, '[') {
                let mut bd: u32 = 1;
                let mut j = k + 1;
                let mut has_test = false;
                let mut has_not = false;
                while j < toks.len() && bd > 0 {
                    if is_punct(toks, j, '[') {
                        bd += 1;
                    } else if is_punct(toks, j, ']') {
                        bd -= 1;
                    } else if toks[j].kind == TokKind::Ident {
                        match toks[j].text.as_str() {
                            "test" => has_test = true,
                            "not" => has_not = true,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if has_test && !has_not {
                    pending = true;
                    angle_depth = 0;
                }
                let inside = !region_stack.is_empty();
                for f in flag.iter_mut().take(j).skip(i) {
                    *f = inside;
                }
                i = j;
                continue;
            }
        }
        flag[i] = !region_stack.is_empty();
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                if pending {
                    region_stack.push(depth);
                    pending = false;
                    flag[i] = true;
                }
            }
            (TokKind::Punct, "}") => {
                if region_stack.last() == Some(&depth) {
                    region_stack.pop();
                }
                depth = depth.saturating_sub(1);
                pending = false;
            }
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => paren_depth += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => {
                paren_depth = paren_depth.saturating_sub(1);
            }
            (TokKind::Punct, "<") if pending => angle_depth += 1,
            // `->` and `=>` are arrows, not closing generics.
            (TokKind::Punct, ">")
                if pending && !is_punct(toks, i - 1, '-') && !is_punct(toks, i - 1, '=') =>
            {
                angle_depth = angle_depth.saturating_sub(1);
            }
            (TokKind::Punct, ";") if paren_depth == 0 => {
                pending = false;
            }
            (TokKind::Punct, ",") if paren_depth == 0 && angle_depth == 0 => {
                pending = false;
            }
            _ => {}
        }
        i += 1;
    }
    flag
}

fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text.starts_with(c))
}

fn crate_dir_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
        .to_string()
}

/// Lints one file's source as if it lived at `rel`, returning the
/// post-suppression diagnostics (including pragma hygiene findings).
/// This is the whole per-file pipeline; `--fixtures` and the tests
/// call it with pretend paths.
pub fn analyze(rel: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let (pragmas, _markers) = pragma::extract(&lexed);
    let in_test = test_regions(&lexed.toks);
    let ctx = FileCtx {
        rel: rel.to_string(),
        crate_dir: crate_dir_of(rel),
        is_test_file: rel.split('/').any(|c| c == "tests"),
        toks: lexed.toks,
        in_test,
    };

    let mut diags = Vec::new();
    rules::check_file(&ctx, &mut diags);

    // Suppression: a well-formed pragma covering (rule, line) consumes
    // the diagnostic and marks itself used.
    let mut used = vec![false; pragmas.len()];
    diags.retain(|d| {
        let hit = pragmas.iter().position(|p| {
            p.problem.is_none() && p.applies_to == d.line && p.rules.iter().any(|r| r == d.rule)
        });
        match hit {
            Some(pi) => {
                used[pi] = true;
                false
            }
            None => true,
        }
    });

    // Pragma hygiene.
    for (p, was_used) in pragmas.iter().zip(&used) {
        if let Some(problem) = &p.problem {
            diags.push(Diagnostic::new(
                "P0",
                rel,
                p.line,
                format!("malformed pragma: {problem}"),
            ));
        } else if !was_used {
            diags.push(Diagnostic::new(
                "P1",
                rel,
                p.line,
                format!(
                    "unused pragma `allow({})`: it suppresses nothing on line {} — remove it",
                    p.rules.join(", "),
                    p.applies_to
                ),
            ));
        }
    }

    diagnostics::sort_dedup(&mut diags);
    diags
}

/// A whole-workspace lint result.
#[derive(Debug)]
pub struct Report {
    /// All findings, canonically ordered.
    pub diags: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lints every non-vendor workspace source tree under `root`: the
/// umbrella crate's `src/` and `tests/`, and each `crates/*`'s `src/`
/// and `tests/`. `vendor/` (third-party shims), `examples/`, and
/// `benches/` are out of scope by construction.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    collect_tree(root, "src", &mut files)?;
    collect_tree(root, "tests", &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in &members {
            let Some(name) = m.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            collect_tree(root, &format!("crates/{name}/src"), &mut files)?;
            collect_tree(root, &format!("crates/{name}/tests"), &mut files)?;
        }
    }
    files.sort();

    let mut diags = Vec::new();
    let files_scanned = files.len();
    for (rel, path) in &files {
        let bytes = fs::read(path)?;
        let src = String::from_utf8_lossy(&bytes);
        diags.extend(analyze(rel, &src));
    }
    diagnostics::sort_dedup(&mut diags);
    Ok(Report {
        diags,
        files_scanned,
    })
}

/// Collects `.rs` files under `root/sub`, recursively, sorted.
fn collect_tree(root: &Path, sub: &str, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let dir = root.join(sub);
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if p.is_dir() {
            collect_tree(root, &format!("{sub}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            out.push((format!("{sub}/{name}"), p));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn test_flags(src: &str) -> Vec<(String, bool)> {
        let lexed = lex(src);
        let flags = test_regions(&lexed.toks);
        lexed
            .toks
            .into_iter()
            .zip(flags)
            .map(|(t, f)| (t.text, f))
            .collect()
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn inner() { covered(); }\n}\nfn after() {}";
        let flags = test_flags(src);
        let of = |name: &str| flags.iter().find(|(t, _)| t == name).unwrap().1;
        assert!(!of("live"));
        assert!(of("inner"));
        assert!(of("covered"));
        assert!(!of("after"));
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let flags = test_flags("#[cfg(not(test))]\nfn shipped() { body(); }");
        assert!(flags.iter().all(|(_, f)| !f));
    }

    #[test]
    fn test_attr_on_fn_is_marked_and_semicolon_items_are_not_sticky() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { x(); }\n#[test]\nfn t() { y(); }";
        let flags = test_flags(src);
        let of = |name: &str| flags.iter().find(|(t, _)| t == name).unwrap().1;
        assert!(!of("live"));
        assert!(!of("x"));
        assert!(of("y"));
    }

    #[test]
    fn semicolons_inside_brackets_do_not_clear_pending() {
        let src = "#[cfg(test)]\nfn t(a: [u8; 3]) { inner(); }\nfn live() {}";
        let flags = test_flags(src);
        let of = |name: &str| flags.iter().find(|(t, _)| t == name).unwrap().1;
        assert!(of("inner"));
        assert!(!of("live"));
    }

    #[test]
    fn crate_dir_extraction() {
        assert_eq!(crate_dir_of("crates/sim-core/src/rng.rs"), "sim-core");
        assert_eq!(crate_dir_of("src/lib.rs"), "root");
        assert_eq!(crate_dir_of("tests/serving.rs"), "root");
    }
}
