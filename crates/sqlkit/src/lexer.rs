//! SQL lexer.
//!
//! Produces a flat token stream with byte offsets for error reporting. The
//! lexer is case-preserving for identifiers and string literals; keyword
//! recognition happens case-insensitively in the parser.

use crate::error::SqlError;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (undifferentiated; the parser decides).
    Word(String),
    /// Quoted identifier: `"name"` or `` `name` ``.
    QuotedIdent(String),
    /// String literal with quotes removed and `''` unescaped.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    Lte,
    Gt,
    Gte,
    Semicolon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => f.write_str(w),
            Token::QuotedIdent(w) => write!(f, "\"{w}\""),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Comma => f.write_str(","),
            Token::Dot => f.write_str("."),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Star => f.write_str("*"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Eq => f.write_str("="),
            Token::Neq => f.write_str("!="),
            Token::Lt => f.write_str("<"),
            Token::Lte => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::Gte => f.write_str(">="),
            Token::Semicolon => f.write_str(";"),
        }
    }
}

/// A token plus its starting byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    pub token: Token,
    pub offset: usize,
}

/// The most tokens one query may have. [`tokenize`] stops at the first
/// token past it with a [`SqlError`], so the token vector, and with it
/// the parser's work, is bounded by the cap however long the input is.
pub const MAX_TOKENS: usize = 4_096;

/// Tokenizes `input` into a vector of spanned tokens under
/// PostgreSQL's lexical rules: identifiers may be `"double-quoted"` or
/// `` `backtick` ``-quoted, never `[bracket]`-quoted. Fails on the
/// token past [`MAX_TOKENS`].
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, SqlError> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity((input.len() / 4 + 4).min(MAX_TOKENS + 1));
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b',' => {
                out.push(Spanned {
                    token: Token::Comma,
                    offset: start,
                });
                i += 1;
            }
            b'.' => {
                out.push(Spanned {
                    token: Token::Dot,
                    offset: start,
                });
                i += 1;
            }
            b'(' => {
                out.push(Spanned {
                    token: Token::LParen,
                    offset: start,
                });
                i += 1;
            }
            b')' => {
                out.push(Spanned {
                    token: Token::RParen,
                    offset: start,
                });
                i += 1;
            }
            b'*' => {
                out.push(Spanned {
                    token: Token::Star,
                    offset: start,
                });
                i += 1;
            }
            b'+' => {
                out.push(Spanned {
                    token: Token::Plus,
                    offset: start,
                });
                i += 1;
            }
            b'-' => {
                out.push(Spanned {
                    token: Token::Minus,
                    offset: start,
                });
                i += 1;
            }
            b'/' => {
                out.push(Spanned {
                    token: Token::Slash,
                    offset: start,
                });
                i += 1;
            }
            b'%' => {
                out.push(Spanned {
                    token: Token::Percent,
                    offset: start,
                });
                i += 1;
            }
            b';' => {
                out.push(Spanned {
                    token: Token::Semicolon,
                    offset: start,
                });
                i += 1;
            }
            b'=' => {
                // Accept both `=` and `==`.
                i += 1;
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                }
                out.push(Spanned {
                    token: Token::Eq,
                    offset: start,
                });
            }
            b'!' => {
                i += 1;
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    out.push(Spanned {
                        token: Token::Neq,
                        offset: start,
                    });
                } else {
                    return Err(SqlError::lex(start, "unexpected '!'"));
                }
            }
            b'<' => {
                i += 1;
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    out.push(Spanned {
                        token: Token::Lte,
                        offset: start,
                    });
                } else if i < bytes.len() && bytes[i] == b'>' {
                    i += 1;
                    out.push(Spanned {
                        token: Token::Neq,
                        offset: start,
                    });
                } else {
                    out.push(Spanned {
                        token: Token::Lt,
                        offset: start,
                    });
                }
            }
            b'>' => {
                i += 1;
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    out.push(Spanned {
                        token: Token::Gte,
                        offset: start,
                    });
                } else {
                    out.push(Spanned {
                        token: Token::Gt,
                        offset: start,
                    });
                }
            }
            b'\'' => {
                // String literal; '' escapes a quote.
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(SqlError::lex(start, "unterminated string literal"));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // Strings may contain multi-byte UTF-8; copy a char.
                        let ch_start = i;
                        let ch = input[ch_start..].chars().next().unwrap();
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                out.push(Spanned {
                    token: Token::Str(s),
                    offset: start,
                });
            }
            b'"' | b'`' => {
                let quote = b;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(SqlError::lex(start, "unterminated quoted identifier"));
                    }
                    if bytes[i] == quote {
                        i += 1;
                        break;
                    }
                    let ch = input[i..].chars().next().unwrap();
                    s.push(ch);
                    i += ch.len_utf8();
                }
                out.push(Spanned {
                    token: Token::QuotedIdent(s),
                    offset: start,
                });
            }
            b'0'..=b'9' => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                if end < bytes.len()
                    && bytes[end] == b'.'
                    && end + 1 < bytes.len()
                    && bytes[end + 1].is_ascii_digit()
                {
                    is_float = true;
                    end += 1;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                }
                let text = &input[i..end];
                let token = if is_float {
                    Token::Float(text.parse().map_err(|_| {
                        SqlError::lex(start, format!("invalid float literal {text:?}"))
                    })?)
                } else {
                    Token::Int(text.parse().map_err(|_| {
                        SqlError::lex(start, format!("invalid integer literal {text:?}"))
                    })?)
                };
                out.push(Spanned {
                    token,
                    offset: start,
                });
                i = end;
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let mut end = i;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                out.push(Spanned {
                    token: Token::Word(input[i..end].to_string()),
                    offset: start,
                });
                i = end;
            }
            _ => {
                let ch = input[i..].chars().next().unwrap();
                return Err(SqlError::lex(start, format!("unexpected character {ch:?}")));
            }
        }
        if out.len() > MAX_TOKENS {
            return Err(SqlError::lex(
                start,
                format!("query longer than {MAX_TOKENS} tokens"),
            ));
        }
    }
    Ok(out)
}

/// Counts SQL tokens in `input` (used for the paper's #Tokens/Query
/// statistic, Table 8). Lexing failures fall back to whitespace splitting
/// so the statistic is always defined.
pub fn token_count(input: &str) -> usize {
    match tokenize(input) {
        Ok(tokens) => tokens.len(),
        Err(_) => input.split_whitespace().count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn lexes_simple_select() {
        let t = toks("SELECT * FROM match;");
        assert_eq!(
            t,
            vec![
                Token::Word("SELECT".into()),
                Token::Star,
                Token::Word("FROM".into()),
                Token::Word("match".into()),
                Token::Semicolon,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let t = toks("a <= 1 AND b >= 2 AND c <> 3 AND d != 4 AND e = 5");
        assert!(t.contains(&Token::Lte));
        assert!(t.contains(&Token::Gte));
        assert_eq!(t.iter().filter(|x| **x == Token::Neq).count(), 2);
        assert!(t.contains(&Token::Eq));
    }

    #[test]
    fn lexes_string_with_escape() {
        let t = toks("'it''s'");
        assert_eq!(t, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn lexes_unicode_strings() {
        let t = toks("'Côte d''Ivoire'");
        assert_eq!(t, vec![Token::Str("Côte d'Ivoire".into())]);
    }

    #[test]
    fn lexes_numbers() {
        let t = toks("42 3.25");
        assert_eq!(t, vec![Token::Int(42), Token::Float(3.25)]);
    }

    #[test]
    fn dot_after_number_is_separate() {
        // `T1.col` style qualification must survive even when the
        // identifier starts like a number is impossible, but `1.x` should
        // not parse as a float.
        let t = toks("T1.team_id");
        assert_eq!(
            t,
            vec![
                Token::Word("T1".into()),
                Token::Dot,
                Token::Word("team_id".into())
            ]
        );
    }

    #[test]
    fn quoted_identifiers() {
        let t = toks("\"match\" `world cup`");
        assert_eq!(
            t,
            vec![
                Token::QuotedIdent("match".into()),
                Token::QuotedIdent("world cup".into())
            ]
        );
    }

    #[test]
    fn line_comments_are_skipped() {
        let t = toks("SELECT 1 -- trailing comment\n, 2");
        assert_eq!(
            t,
            vec![
                Token::Word("SELECT".into()),
                Token::Int(1),
                Token::Comma,
                Token::Int(2)
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn bare_bang_errors() {
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn token_count_counts_tokens() {
        assert_eq!(token_count("SELECT count(*) FROM t"), 7);
        // Fallback path on unlexable input.
        assert_eq!(token_count("ß ¶"), 2);
    }

    #[test]
    fn offsets_point_at_token_starts() {
        let spans = tokenize("SELECT a").unwrap();
        assert_eq!(spans[0].offset, 0);
        assert_eq!(spans[1].offset, 7);
    }
}
