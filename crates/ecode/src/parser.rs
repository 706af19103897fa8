//! Recursive-descent parser producing the E-Code AST.

use crate::lexer::{lex, Tok, Token};
use crate::EcodeError;

/// Fixed limits on program text. Source arrives over the wire (a remote
/// `Subscribe`, a digest install) and every pass after this one recurses
/// on the AST, so the parser is where a hostile string must stop: past
/// either limit it is a parse error, never a stack overflow.
pub(crate) const MAX_SOURCE_BYTES: usize = 64 * 1024;
/// Parser recursion depth: nested parentheses, unary operators, call
/// arguments and `if`s each count one level, and so does every link of
/// a binary-operator chain (`a + b + c` builds a left spine as deep as
/// it is long). No AST path is longer than twice this.
pub(crate) const MAX_AST_DEPTH: u32 = 32;

/// Lexes and parses a whole program: the one entry for program text, so
/// the limits hold for `Program::compile` and `verify` alike.
pub fn parse(src: &str) -> Result<Vec<Stmt<'_>>, EcodeError> {
    if src.len() > MAX_SOURCE_BYTES {
        return Err(EcodeError::Parse {
            line: 1,
            msg: format!(
                "source is {} bytes; the limit is {MAX_SOURCE_BYTES}",
                src.len()
            ),
        });
    }
    Parser::new(lex(src)?).program()
}

/// Declared types in source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstType {
    Int,
    Double,
    Bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions. Names borrow the program text they were parsed from.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'src> {
    Int(i64),
    Double(f64),
    Bool(bool),
    Var(&'src str),
    Un {
        op: UnOp,
        expr: Box<Expr<'src>>,
        line: u32,
    },
    Bin {
        op: BinOp,
        lhs: Box<Expr<'src>>,
        rhs: Box<Expr<'src>>,
        line: u32,
    },
    Call {
        name: &'src str,
        args: Vec<Expr<'src>>,
        line: u32,
    },
}

/// Statements, with names borrowed like [`Expr`]'s.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'src> {
    Decl {
        is_static: bool,
        ty: AstType,
        name: &'src str,
        init: Option<Expr<'src>>,
        line: u32,
    },
    Assign {
        name: &'src str,
        expr: Expr<'src>,
        line: u32,
    },
    If {
        cond: Expr<'src>,
        then_block: Vec<Stmt<'src>>,
        else_block: Vec<Stmt<'src>>,
        line: u32,
    },
    Return {
        expr: Option<Expr<'src>>,
        line: u32,
    },
    Expr {
        expr: Expr<'src>,
        line: u32,
    },
}

struct Parser<'src> {
    toks: Vec<Token<'src>>,
    pos: usize,
    /// Current recursion depth, bounded by [`MAX_AST_DEPTH`].
    depth: u32,
}

/// The binary operator `tok` spells and its precedence level, loosest
/// first: `||` < `&&` < `== !=` < relational < additive < multiplicative.
fn bin_op(tok: Tok<'_>) -> Option<(BinOp, u32)> {
    Some(match tok {
        Tok::OrOr => (BinOp::Or, 0),
        Tok::AndAnd => (BinOp::And, 1),
        Tok::EqEq => (BinOp::Eq, 2),
        Tok::NotEq => (BinOp::Ne, 2),
        Tok::Lt => (BinOp::Lt, 3),
        Tok::LtEq => (BinOp::Le, 3),
        Tok::Gt => (BinOp::Gt, 3),
        Tok::GtEq => (BinOp::Ge, 3),
        Tok::Plus => (BinOp::Add, 4),
        Tok::Minus => (BinOp::Sub, 4),
        Tok::Star => (BinOp::Mul, 5),
        Tok::Slash => (BinOp::Div, 5),
        Tok::Percent => (BinOp::Mod, 5),
        _ => return None,
    })
}

impl<'src> Parser<'src> {
    fn new(toks: Vec<Token<'src>>) -> Self {
        Parser {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    /// Enters one more level of nesting, or refuses.
    fn descend(&mut self) -> Result<(), EcodeError> {
        if self.depth == MAX_AST_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_AST_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> Tok<'src> {
        self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok<'src> {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> EcodeError {
        EcodeError::Parse {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn expect(&mut self, want: Tok<'src>, what: &str) -> Result<(), EcodeError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    /// Parses a whole program (a statement list up to EOF).
    fn program(&mut self) -> Result<Vec<Stmt<'src>>, EcodeError> {
        let mut stmts = Vec::new();
        while self.peek() != Tok::Eof {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn ty(&mut self) -> Option<AstType> {
        let t = match self.peek() {
            Tok::KwInt => AstType::Int,
            Tok::KwDouble => AstType::Double,
            Tok::KwBool => AstType::Bool,
            _ => return None,
        };
        self.bump();
        Some(t)
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, EcodeError> {
        let line = self.line();
        match self.peek() {
            Tok::KwStatic => {
                self.bump();
                let ty = self
                    .ty()
                    .ok_or_else(|| self.err("expected type after 'static'"))?;
                self.finish_decl(true, ty, line)
            }
            Tok::KwInt | Tok::KwDouble | Tok::KwBool => {
                let ty = self.ty().expect("peeked a type");
                self.finish_decl(false, ty, line)
            }
            Tok::KwIf => self.if_stmt(),
            Tok::KwReturn => {
                self.bump();
                let expr = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi, "';'")?;
                Ok(Stmt::Return { expr, line })
            }
            Tok::Ident(name)
                // Lookahead: assignment or expression statement.
                if self.toks[self.pos + 1].tok == Tok::Assign => {
                    self.bump(); // ident
                    self.bump(); // '='
                    let expr = self.expr()?;
                    self.expect(Tok::Semi, "';'")?;
                    Ok(Stmt::Assign { name, expr, line })
                }
            _ => {
                let expr = self.expr()?;
                self.expect(Tok::Semi, "';'")?;
                Ok(Stmt::Expr { expr, line })
            }
        }
    }

    fn finish_decl(
        &mut self,
        is_static: bool,
        ty: AstType,
        line: u32,
    ) -> Result<Stmt<'src>, EcodeError> {
        let name = match self.bump() {
            Tok::Ident(n) => n,
            other => return Err(self.err(format!("expected identifier, found {other:?}"))),
        };
        let init = if self.peek() == Tok::Assign {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi, "';'")?;
        Ok(Stmt::Decl {
            is_static,
            ty,
            name,
            init,
            line,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt<'src>, EcodeError> {
        let line = self.line();
        self.descend()?;
        self.expect(Tok::KwIf, "'if'")?;
        self.expect(Tok::LParen, "'('")?;
        let cond = self.expr()?;
        self.expect(Tok::RParen, "')'")?;
        let then_block = self.block()?;
        let else_block = if self.peek() == Tok::KwElse {
            self.bump();
            if self.peek() == Tok::KwIf {
                vec![self.if_stmt()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        self.depth -= 1;
        Ok(Stmt::If {
            cond,
            then_block,
            else_block,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt<'src>>, EcodeError> {
        self.expect(Tok::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while self.peek() != Tok::RBrace {
            if self.peek() == Tok::Eof {
                return Err(self.err("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        self.bump();
        Ok(stmts)
    }

    fn expr(&mut self) -> Result<Expr<'src>, EcodeError> {
        self.binary(0)
    }

    /// Precedence climbing: a chain of left-associative operators at
    /// `min` level or tighter; unary and primary expressions bind
    /// tightest.
    fn binary(&mut self, min: u32) -> Result<Expr<'src>, EcodeError> {
        let mut lhs = self.unary_expr()?;
        let entry = self.depth;
        while let Some((op, level)) = bin_op(self.peek()).filter(|&(_, level)| level >= min) {
            let line = self.line();
            self.bump();
            self.descend()?; // the left spine grows one level per link
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        self.depth = entry;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr<'src>, EcodeError> {
        let line = self.line();
        let op = match self.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Not => UnOp::Not,
            _ => return self.primary(),
        };
        self.bump();
        self.descend()?;
        let expr = Box::new(self.unary_expr()?);
        self.depth -= 1;
        Ok(Expr::Un { op, expr, line })
    }

    fn primary(&mut self) -> Result<Expr<'src>, EcodeError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Double(v) => Ok(Expr::Double(v)),
            Tok::KwTrue => Ok(Expr::Bool(true)),
            Tok::KwFalse => Ok(Expr::Bool(false)),
            Tok::Ident(name) => {
                if self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    self.descend()?;
                    if self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.depth -= 1;
                    self.expect(Tok::RParen, "')'")?;
                    Ok(Expr::Call { name, args, line })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Tok::LParen => {
                self.descend()?;
                let e = self.expr()?;
                self.depth -= 1;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            other => Err(EcodeError::Parse {
                line,
                msg: format!("expected expression, found {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_declarations() {
        let stmts = parse("static int n = 0; double x; bool b = true;").unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(
            &stmts[0],
            Stmt::Decl { is_static: true, ty: AstType::Int, name, .. } if *name == "n"
        ));
        assert!(matches!(
            &stmts[1],
            Stmt::Decl {
                is_static: false,
                ty: AstType::Double,
                init: None,
                ..
            }
        ));
    }

    #[test]
    fn precedence_mul_over_add() {
        let stmts = parse("return 1 + 2 * 3;").unwrap();
        let Stmt::Return { expr: Some(e), .. } = &stmts[0] else {
            panic!("not a return");
        };
        // (1 + (2*3))
        let Expr::Bin {
            op: BinOp::Add,
            rhs,
            ..
        } = e
        else {
            panic!("top is not add: {e:?}");
        };
        assert!(matches!(**rhs, Expr::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn precedence_cmp_over_and() {
        let stmts = parse("return a < b && c > d;").unwrap();
        let Stmt::Return { expr: Some(e), .. } = &stmts[0] else {
            panic!()
        };
        assert!(matches!(e, Expr::Bin { op: BinOp::And, .. }));
    }

    #[test]
    fn if_else_chain() {
        let stmts =
            parse("if (a > 1) { x = 1; } else if (a > 0) { x = 2; } else { x = 3; }").unwrap();
        let Stmt::If { else_block, .. } = &stmts[0] else {
            panic!()
        };
        assert_eq!(else_block.len(), 1);
        assert!(matches!(&else_block[0], Stmt::If { .. }));
    }

    #[test]
    fn call_with_args() {
        let stmts = parse("out(0, x / n);").unwrap();
        let Stmt::Expr {
            expr: Expr::Call { name, args, .. },
            ..
        } = &stmts[0]
        else {
            panic!()
        };
        assert_eq!(*name, "out");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn unary_chain() {
        let stmts = parse("return !-x;").unwrap();
        let Stmt::Return {
            expr:
                Some(Expr::Un {
                    op: UnOp::Not,
                    expr,
                    ..
                }),
            ..
        } = &stmts[0]
        else {
            panic!()
        };
        assert!(matches!(**expr, Expr::Un { op: UnOp::Neg, .. }));
    }

    #[test]
    fn missing_semicolon_errors() {
        assert!(matches!(parse("int x = 3"), Err(EcodeError::Parse { .. })));
    }

    #[test]
    fn unclosed_block_errors() {
        assert!(matches!(
            parse("if (x) { y = 1;"),
            Err(EcodeError::Parse { .. })
        ));
    }
}
