//! Textual variants of a SQL query that must hit the plan cache: the same
//! query re-typed the way a notebook user re-types it.
//!
//! Every variant leaves string literals untouched, so the result cannot
//! change. Whitespace and case variants normalize to the same text (a
//! text-level hit); the alias variant renames derived-table aliases and
//! CTE names, which canonicalize to the same AST (an AST-level hit).

/// Which re-typing a resubmission uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Spaces outside literals become runs of spaces, tabs and newlines.
    Whitespace,
    /// Letters outside literals swap case.
    Case,
    /// Derived-table aliases and CTE names get a suffix.
    Alias,
}

impl Variant {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Whitespace => "whitespace",
            Variant::Case => "case",
            Variant::Alias => "alias",
        }
    }
}

/// A lexical piece of SQL text, just fine enough to rewrite it safely.
#[derive(Debug, Clone, PartialEq)]
enum Piece<'a> {
    /// `'...'`, kept verbatim.
    Literal(&'a str),
    /// An identifier or keyword.
    Word(&'a str),
    /// One space.
    Space,
    /// Any other character.
    Other(char),
}

fn pieces(text: &str) -> Vec<Piece<'_>> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\'' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'\'' {
                j += 1;
            }
            let end = (j + 1).min(bytes.len());
            out.push(Piece::Literal(&text[i..end]));
            i = end;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            out.push(Piece::Word(&text[i..j]));
            i = j;
        } else if c == b' ' {
            out.push(Piece::Space);
            i += 1;
        } else {
            let ch = text[i..].chars().next().expect("non-empty remainder");
            out.push(Piece::Other(ch));
            i += ch.len_utf8();
        }
    }
    out
}

/// Words that may follow a closing parenthesis without being an alias.
const KEYWORDS: &[&str] = &[
    "and", "anti", "as", "asc", "by", "cross", "desc", "from", "full", "group", "having", "in",
    "inner", "join", "left", "like", "limit", "not", "on", "or", "order", "outer", "right",
    "select", "semi", "union", "where", "with",
];

/// Names the alias variant renames: identifiers right after `)` that are
/// not keywords (derived-table aliases) and identifiers followed by
/// `AS (` (CTE names). Lower-cased, sorted, deduplicated.
pub fn renamable(text: &str) -> Vec<String> {
    let ps: Vec<Piece<'_>> = pieces(text)
        .into_iter()
        .filter(|p| *p != Piece::Space)
        .collect();
    let mut names = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        let Piece::Word(w) = p else { continue };
        let lw = w.to_ascii_lowercase();
        if KEYWORDS.contains(&lw.as_str()) {
            continue;
        }
        let after_paren = i > 0 && ps[i - 1] == Piece::Other(')');
        let cte = matches!(ps.get(i + 1), Some(Piece::Word(a)) if a.eq_ignore_ascii_case("as"))
            && ps.get(i + 2) == Some(&Piece::Other('('));
        if after_paren || cte {
            names.push(lw);
        }
    }
    names.sort();
    names.dedup();
    names
}

/// The variants available for `text`: the alias variant only when the
/// query has something to rename.
pub fn available(text: &str) -> Vec<Variant> {
    let mut v = vec![Variant::Whitespace, Variant::Case];
    if !renamable(text).is_empty() {
        v.push(Variant::Alias);
    }
    v
}

/// Rewrites `text` as `variant`; `pick` draws the whitespace runs.
pub fn rewrite(text: &str, variant: Variant, mut pick: impl FnMut(usize) -> usize) -> String {
    const RUNS: [&str; 4] = ["  ", "\n", " \t ", "\n    "];
    let rename = match variant {
        Variant::Alias => renamable(text),
        _ => Vec::new(),
    };
    let mut out = String::with_capacity(text.len() + 64);
    for p in pieces(text) {
        match p {
            Piece::Literal(s) => out.push_str(s),
            Piece::Space => match variant {
                Variant::Whitespace => out.push_str(RUNS[pick(RUNS.len())]),
                _ => out.push(' '),
            },
            Piece::Other(c) => out.push(c),
            Piece::Word(w) => match variant {
                Variant::Case => out.extend(w.chars().map(|c| {
                    if c.is_ascii_uppercase() {
                        c.to_ascii_lowercase()
                    } else {
                        c.to_ascii_uppercase()
                    }
                })),
                Variant::Alias if rename.contains(&w.to_ascii_lowercase()) => {
                    out.push_str(w);
                    out.push_str("_v");
                }
                _ => out.push_str(w),
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_survive_every_variant() {
        let q = "SELECT a FROM (SELECT * FROM t WHERE s = 'Mixed Case x') x WHERE b = 'o n'";
        for v in [Variant::Whitespace, Variant::Case, Variant::Alias] {
            let out = rewrite(q, v, |n| n - 1);
            assert!(out.contains("'Mixed Case x'"), "{v:?}: {out}");
            assert!(out.contains("'o n'"), "{v:?}: {out}");
            assert_ne!(out, q, "{v:?} must change the text");
        }
    }

    #[test]
    fn aliases_and_cte_names_are_found() {
        let q = "WITH lp AS (SELECT * FROM t) SELECT COUNT(x) AS n FROM lp \
                 JOIN (SELECT k FROM u) a ON lp.k = a.k";
        assert_eq!(renamable(q), vec!["a".to_string(), "lp".to_string()]);
        let out = rewrite(q, Variant::Alias, |_| 0);
        assert!(out.contains("lp_v.k = a_v.k"), "{out}");
        assert!(out.contains("AS n"), "column aliases are kept: {out}");
    }

    /// Every re-typing of every TPC-H text must land on the same plan-cache
    /// key: whitespace and case on the normalized text, aliases on the
    /// canonical AST.
    #[test]
    fn tpch_variants_keep_their_cache_keys() {
        use xorbits_core::sql::{ast::canonicalize, normalize, parse};
        let canon = |t: &str| canonicalize(&parse(t).expect("parses")).to_string();
        let mut with_alias = 0;
        for q in 1..=22 {
            let base = xorbits_workloads::tpch::sql_text(q).expect("TPC-H text");
            for v in available(base) {
                let out = rewrite(base, v, |n| q as usize % n);
                assert_ne!(out, base, "Q{q} {v:?} must change the text");
                if v == Variant::Alias {
                    with_alias += 1;
                    assert_ne!(normalize(&out), normalize(base), "Q{q} alias");
                    assert_eq!(canon(&out), canon(base), "Q{q} alias");
                } else {
                    assert_eq!(normalize(&out), normalize(base), "Q{q} {v:?}");
                }
            }
        }
        assert!(with_alias >= 15, "only {with_alias} queries have aliases");
    }

    #[test]
    fn queries_without_aliases_offer_no_alias_variant() {
        let q = "SELECT SUM(x) AS s FROM t WHERE y < 3";
        assert_eq!(available(q), vec![Variant::Whitespace, Variant::Case]);
    }
}
