//! A fluent builder for constructing [`Program`]s programmatically — the
//! Rust-native alternative to the textual frontend, for tooling and tests
//! that generate programs.
//!
//! ```
//! use mitos_lang::builder::ProgramBuilder;
//! use mitos_lang::{SurfExpr, Lambda, BinOp};
//!
//! let program = ProgramBuilder::new()
//!     .assign("total", SurfExpr::lit(0i64))
//!     .for_loop("d", SurfExpr::lit(1i64), SurfExpr::lit(3i64), |body| {
//!         body.assign(
//!             "total",
//!             SurfExpr::bin(BinOp::Add, SurfExpr::var("total"), SurfExpr::var("d")),
//!         )
//!     })
//!     .output(SurfExpr::var("total"), "total")
//!     .build();
//! assert!(program.to_string().contains("while"));
//! ```

use crate::ast::{Program, Stmt, SurfExpr};
use crate::expr::BinOp;
use std::sync::Arc;

/// Accumulates statements; see the module docs for an example.
#[derive(Default, Debug)]
pub struct ProgramBuilder {
    stmts: Vec<Stmt>,
    fresh: usize,
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// `name = value;`
    pub fn assign(mut self, name: impl AsRef<str>, value: SurfExpr) -> Self {
        self.stmts.push(Stmt::Assign {
            name: Arc::from(name.as_ref()),
            value,
        });
        self
    }

    /// `if (cond) { then } else { els }`
    pub fn if_else(
        mut self,
        cond: SurfExpr,
        then: impl FnOnce(ProgramBuilder) -> ProgramBuilder,
        els: impl FnOnce(ProgramBuilder) -> ProgramBuilder,
    ) -> Self {
        let then_body = block(then);
        let else_body = block(els);
        self.stmts.push(Stmt::If {
            cond,
            then_body,
            else_body,
        });
        self
    }

    /// `if (cond) { then }` with an empty else branch.
    pub fn if_then(
        self,
        cond: SurfExpr,
        then: impl FnOnce(ProgramBuilder) -> ProgramBuilder,
    ) -> Self {
        self.if_else(cond, then, |b| b)
    }

    /// `while (cond) { body }`
    pub fn while_loop(
        mut self,
        cond: SurfExpr,
        body: impl FnOnce(ProgramBuilder) -> ProgramBuilder,
    ) -> Self {
        let body = block(body);
        self.stmts.push(Stmt::While { cond, body });
        self
    }

    /// `do { body } while (cond);`
    pub fn do_while(
        mut self,
        body: impl FnOnce(ProgramBuilder) -> ProgramBuilder,
        cond: SurfExpr,
    ) -> Self {
        let body = block(body);
        self.stmts.push(Stmt::DoWhile { body, cond });
        self
    }

    /// `for var = from to to { body }` — desugared to the same
    /// init/while/increment shape the parser produces.
    pub fn for_loop(
        mut self,
        var: impl AsRef<str>,
        from: SurfExpr,
        to: SurfExpr,
        body: impl FnOnce(ProgramBuilder) -> ProgramBuilder,
    ) -> Self {
        let var: Arc<str> = Arc::from(var.as_ref());
        self.fresh += 1;
        let end: Arc<str> = Arc::from(format!("__built_for_end{}", self.fresh).as_str());
        let mut stmts = block(body);
        stmts.push(Stmt::Assign {
            name: var.clone(),
            value: SurfExpr::bin(BinOp::Add, SurfExpr::Var(var.clone()), SurfExpr::lit(1i64)),
        });
        self.stmts.push(Stmt::Assign {
            name: var.clone(),
            value: from,
        });
        self.stmts.push(Stmt::Assign {
            name: end.clone(),
            value: to,
        });
        self.stmts.push(Stmt::While {
            cond: SurfExpr::bin(BinOp::Le, SurfExpr::Var(var), SurfExpr::Var(end)),
            body: stmts,
        });
        self
    }

    /// `writeFile(value, name);`
    pub fn write_file(mut self, value: SurfExpr, name: SurfExpr) -> Self {
        self.stmts.push(Stmt::WriteFile { value, name });
        self
    }

    /// `output(value, "tag");`
    pub fn output(mut self, value: SurfExpr, tag: impl AsRef<str>) -> Self {
        self.stmts.push(Stmt::Output {
            value,
            tag: Arc::from(tag.as_ref()),
        });
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        Program::new(self.stmts)
    }
}

/// The statements `body` appends to an empty builder.
///
/// Never inlined: rustc 1.95 at `-O` miscompiles two of these bodies
/// inlined back to back into one frame (`if_else`'s `then` and `els`) — the
/// second `Vec<Stmt>` aliases the first, so the `else` body also holds the
/// `then` statements and dropping the `Stmt::If` frees them twice. The
/// workspace has no `unsafe`; `builder_matches_parser_for_equivalent_source`
/// aborts in `cargo test --release` if this attribute goes.
#[inline(never)]
fn block(body: impl FnOnce(ProgramBuilder) -> ProgramBuilder) -> Vec<Stmt> {
    body(ProgramBuilder::new()).stmts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn builder_matches_parser_for_equivalent_source() {
        let built = ProgramBuilder::new()
            .assign("x", SurfExpr::lit(1i64))
            .if_else(
                SurfExpr::bin(BinOp::Gt, SurfExpr::var("x"), SurfExpr::lit(0i64)),
                |b| b.assign("y", SurfExpr::lit(10i64)),
                |b| b.assign("y", SurfExpr::lit(20i64)),
            )
            .output(SurfExpr::var("y"), "y")
            .build();
        let parsed =
            parse("x = 1; if ((x > 0)) { y = 10; } else { y = 20; } output(y, \"y\");").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn nested_builders_compose() {
        let p = ProgramBuilder::new()
            .assign("s", SurfExpr::lit(0i64))
            .while_loop(
                SurfExpr::bin(BinOp::Lt, SurfExpr::var("s"), SurfExpr::lit(5i64)),
                |b| {
                    b.if_then(
                        SurfExpr::bin(BinOp::Eq, SurfExpr::var("s"), SurfExpr::lit(2i64)),
                        |b| b.output(SurfExpr::var("s"), "hit"),
                    )
                    .assign(
                        "s",
                        SurfExpr::bin(BinOp::Add, SurfExpr::var("s"), SurfExpr::lit(1i64)),
                    )
                },
            )
            .build();
        // Round-trips through the printer/parser.
        let reparsed = parse(&p.to_string()).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn for_loop_counts() {
        let p = ProgramBuilder::new()
            .assign("n", SurfExpr::lit(0i64))
            .for_loop("i", SurfExpr::lit(1i64), SurfExpr::lit(4i64), |b| {
                b.assign(
                    "n",
                    SurfExpr::bin(BinOp::Add, SurfExpr::var("n"), SurfExpr::lit(1i64)),
                )
            })
            .output(SurfExpr::var("n"), "n")
            .build();
        let text = p.to_string();
        assert!(text.contains("while"), "{text}");
        assert!(text.contains("__built_for_end1"), "{text}");
    }
}
