//! # mitos-lang
//!
//! The frontend of the Mitos reproduction: the dynamically typed [`Value`]
//! model, the scalar expression language ([`expr`]), the surface AST of the
//! imperative data-analysis language ([`ast`]), and a textual
//! lexer/parser ([`parser`]) with source-located diagnostics ([`diag`]).
//!
//! The paper obtains the user's imperative program via Scala macros over
//! Emma; in Rust we provide the equivalent ingestion path as a small textual
//! language plus a fluent AST builder (see `DESIGN.md` for the substitution
//! rationale). Everything downstream of the AST — simplification, SSA,
//! dataflow building, runtime coordination — follows the paper directly.

#![warn(missing_docs)]

pub mod ast;
pub mod batch;
pub mod builder;
pub mod diag;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ast::{Lambda, Program, Stmt, SurfExpr};
pub use batch::{Batch, DecodeError};
pub use builder::ProgramBuilder;
pub use diag::{Diagnostic, Span};
pub use expr::{eval, BinOp, EvalError, Expr, Func, UnOp};
pub use parser::{parse, parse_expr};
pub use value::{canonicalize, stable_hash, Value};
