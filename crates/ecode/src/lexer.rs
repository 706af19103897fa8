//! Tokenizer for the E-Code C subset.

use crate::EcodeError;

/// Token kinds. An identifier borrows its text from the source, so a
/// token is a plain copyable value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'src> {
    // Literals and identifiers
    Int(i64),
    Double(f64),
    Ident(&'src str),
    // Keywords
    KwInt,
    KwDouble,
    KwBool,
    KwStatic,
    KwIf,
    KwElse,
    KwReturn,
    KwTrue,
    KwFalse,
    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    // Operators
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    AndAnd,
    OrOr,
    Not,
    Eof,
}

/// A token with its source line (for error messages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    pub tok: Tok<'src>,
    pub line: u32,
}

/// Tokenizes a whole program.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, EcodeError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    let err = |line: u32, msg: &str| EcodeError::Lex {
        line,
        msg: msg.to_owned(),
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(err(line, "unterminated block comment"));
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len() && bytes[i] == b'.' {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let tok = if is_float {
                    Tok::Double(text.parse().map_err(|_| err(line, "bad float literal"))?)
                } else {
                    Tok::Int(
                        text.parse()
                            .map_err(|_| err(line, "integer literal overflows"))?,
                    )
                };
                out.push(Token { tok, line });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                let tok = match word {
                    "int" => Tok::KwInt,
                    "double" => Tok::KwDouble,
                    "bool" => Tok::KwBool,
                    "static" => Tok::KwStatic,
                    "if" => Tok::KwIf,
                    "else" => Tok::KwElse,
                    "return" => Tok::KwReturn,
                    "true" => Tok::KwTrue,
                    "false" => Tok::KwFalse,
                    _ => Tok::Ident(word),
                };
                out.push(Token { tok, line });
            }
            _ => {
                // Two-byte operators are matched on raw bytes: slicing the
                // &str at i..i+2 would panic inside multibyte characters.
                let two: &[u8] = if i + 1 < bytes.len() {
                    &bytes[i..i + 2]
                } else {
                    b""
                };
                let (tok, adv) = match two {
                    b"==" => (Tok::EqEq, 2),
                    b"!=" => (Tok::NotEq, 2),
                    b"<=" => (Tok::LtEq, 2),
                    b">=" => (Tok::GtEq, 2),
                    b"&&" => (Tok::AndAnd, 2),
                    b"||" => (Tok::OrOr, 2),
                    _ => match c {
                        '(' => (Tok::LParen, 1),
                        ')' => (Tok::RParen, 1),
                        '{' => (Tok::LBrace, 1),
                        '}' => (Tok::RBrace, 1),
                        ',' => (Tok::Comma, 1),
                        ';' => (Tok::Semi, 1),
                        '=' => (Tok::Assign, 1),
                        '+' => (Tok::Plus, 1),
                        '-' => (Tok::Minus, 1),
                        '*' => (Tok::Star, 1),
                        '/' => (Tok::Slash, 1),
                        '%' => (Tok::Percent, 1),
                        '<' => (Tok::Lt, 1),
                        '>' => (Tok::Gt, 1),
                        '!' => (Tok::Not, 1),
                        _ => {
                            // Decode the real (possibly multibyte) char for
                            // the error message.
                            let ch = src[i..].chars().next().expect("in bounds");
                            return Err(err(line, &format!("unexpected character {ch:?}")));
                        }
                    },
                };
                out.push(Token { tok, line });
                i += adv;
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_declaration() {
        assert_eq!(
            kinds("int x = 3;"),
            vec![
                Tok::KwInt,
                Tok::Ident("x"),
                Tok::Assign,
                Tok::Int(3),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_floats_and_exponents() {
        assert_eq!(kinds("1.5")[0], Tok::Double(1.5));
        assert_eq!(kinds("2e3")[0], Tok::Double(2000.0));
        assert_eq!(kinds("2.5e-1")[0], Tok::Double(0.25));
        assert_eq!(kinds("42")[0], Tok::Int(42));
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            kinds("a == b != c <= d >= e && f || !g"),
            vec![
                Tok::Ident("a"),
                Tok::EqEq,
                Tok::Ident("b"),
                Tok::NotEq,
                Tok::Ident("c"),
                Tok::LtEq,
                Tok::Ident("d"),
                Tok::GtEq,
                Tok::Ident("e"),
                Tok::AndAnd,
                Tok::Ident("f"),
                Tok::OrOr,
                Tok::Not,
                Tok::Ident("g"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let toks = lex("// line one\nint /* inline */ x;\n").unwrap();
        assert_eq!(toks[0].tok, Tok::KwInt);
        assert_eq!(toks[0].line, 2);
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(matches!(lex("/* oops"), Err(EcodeError::Lex { .. })));
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(matches!(lex("int x @ 3;"), Err(EcodeError::Lex { .. })));
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(kinds("iffy")[0], Tok::Ident("iffy"));
        assert_eq!(kinds("if")[0], Tok::KwIf);
        assert_eq!(kinds("static")[0], Tok::KwStatic);
    }
}
