//! Tokenizer for the feature expression language.

use fstore_common::{FsError, Result};

/// A token with its byte offset (for error reporting).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub(crate) kind: TokenKind,
    pub(crate) pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    // keywords (case-insensitive in source)
    And,
    Or,
    Not,
    Case,
    When,
    Then,
    Else,
    End,
    Null,
    True,
    False,
    Is,
    In,
    Between,
    // punctuation
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LParen,
    RParen,
    Comma,
    Eof,
}

/// Tokenize `src`; returns tokens ending with `Eof`.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let pos = i;
        let kind = match c {
            '+' => {
                i += 1;
                TokenKind::Plus
            }
            '-' => {
                i += 1;
                TokenKind::Minus
            }
            '*' => {
                i += 1;
                TokenKind::Star
            }
            '/' => {
                i += 1;
                TokenKind::Slash
            }
            '%' => {
                i += 1;
                TokenKind::Percent
            }
            '(' => {
                i += 1;
                TokenKind::LParen
            }
            ')' => {
                i += 1;
                TokenKind::RParen
            }
            ',' => {
                i += 1;
                TokenKind::Comma
            }
            '=' => {
                i += 1;
                TokenKind::Eq
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Ne
                } else {
                    return Err(FsError::Parse {
                        message: "expected `!=`".into(),
                        position: pos,
                    });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Le
                } else if bytes.get(i + 1) == Some(&b'>') {
                    i += 2;
                    TokenKind::Ne
                } else {
                    i += 1;
                    TokenKind::Lt
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Ge
                } else {
                    i += 1;
                    TokenKind::Gt
                }
            }
            '\'' => {
                // single-quoted string, '' escapes a quote
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(FsError::Parse {
                                message: "unterminated string literal".into(),
                                position: pos,
                            })
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                TokenKind::Str(s)
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len() && bytes[i] == b'.' {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                if is_float {
                    TokenKind::Float(text.parse().map_err(|_| FsError::Parse {
                        message: format!("bad float literal `{text}`"),
                        position: pos,
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| FsError::Parse {
                        message: format!("integer literal `{text}` out of range"),
                        position: pos,
                    })?)
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                match word.to_ascii_uppercase().as_str() {
                    "AND" => TokenKind::And,
                    "OR" => TokenKind::Or,
                    "NOT" => TokenKind::Not,
                    "CASE" => TokenKind::Case,
                    "WHEN" => TokenKind::When,
                    "THEN" => TokenKind::Then,
                    "ELSE" => TokenKind::Else,
                    "END" => TokenKind::End,
                    "NULL" => TokenKind::Null,
                    "TRUE" => TokenKind::True,
                    "FALSE" => TokenKind::False,
                    "IS" => TokenKind::Is,
                    "IN" => TokenKind::In,
                    "BETWEEN" => TokenKind::Between,
                    _ => TokenKind::Ident(word.to_string()),
                }
            }
            other => {
                return Err(FsError::Parse {
                    message: format!("unexpected character `{other}`"),
                    position: pos,
                })
            }
        };
        out.push(Token { kind, pos });
    }
    out.push(Token {
        kind: TokenKind::Eof,
        pos: src.len(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 3e2 4.5E-1"),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Float(300.0),
                TokenKind::Float(0.45),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds("'it''s' 'sf'"),
            vec![
                TokenKind::Str("it's".into()),
                TokenKind::Str("sf".into()),
                TokenKind::Eof
            ]
        );
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            kinds("case WHEN null And TrUe"),
            vec![
                TokenKind::Case,
                TokenKind::When,
                TokenKind::Null,
                TokenKind::And,
                TokenKind::True,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn identifiers_keep_case() {
        assert_eq!(
            kinds("fare_USD"),
            vec![TokenKind::Ident("fare_USD".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("<= >= != <> = < >"),
            vec![
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Eq,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn error_positions() {
        let err = lex("a + $").unwrap_err();
        match err {
            FsError::Parse { position, .. } => assert_eq!(position, 4),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(lex("!x").is_err());
    }

    #[test]
    fn huge_int_is_an_error_not_a_panic() {
        assert!(lex("99999999999999999999999").is_err());
    }
}
