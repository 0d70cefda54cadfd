//! Lexer and recursive-descent parser for the mini-language.
//!
//! The syntax follows the paper's figures closely. It is line-oriented:
//! every top-level statement lives on one line, except `FORALL ... END
//! FORALL` which encloses body lines. Keywords are case-insensitive.
//! Comment lines start with `C `, `c `, or `!`; the paper's directive prefix
//! `C$` is stripped so Figures 4 and 5 parse as written.

use crate::ast::*;
use crate::error::LangError;

/// How deep an expression may nest. Every node of the tree — a literal, a
/// reference, an operator, an intrinsic call — and every parenthesised group
/// counts one level, so a left-deep chain `a + b + c` counts each operator.
/// Parsing, lowering, compiling and dropping a tree each recurse once per
/// level; a body nested deeper is a parse error, not an exhausted stack.
const MAX_EXPR_DEPTH: usize = 256;

/// Parse a whole program from source text.
pub fn parse_program(source: &str) -> Result<Program, LangError> {
    let mut stmts = Vec::new();
    let mut lines = source.lines().enumerate().peekable();
    let mut loop_counter = 0usize;

    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let Some(line) = significant(raw) else {
            continue;
        };
        let mut toks = Lexer::new(&line, lineno)?;

        let first = toks.peek_word().unwrap_or_default();
        match first.as_str() {
            "REAL" | "REAL*8" | "INTEGER" => {
                let ty = if first.starts_with("REAL") {
                    ElemType::Real
                } else {
                    ElemType::Integer
                };
                toks.next_word()?;
                let arrays = parse_decl_list(&mut toks)?;
                stmts.push(Stmt::Declare { ty, arrays });
            }
            "DYNAMIC" | "DECOMPOSITION" => {
                let mut dynamic = false;
                if first == "DYNAMIC" {
                    dynamic = true;
                    toks.next_word()?;
                    toks.eat_punct_opt(',');
                    toks.expect_word("DECOMPOSITION")?;
                } else {
                    toks.next_word()?;
                }
                let decomps = parse_decl_list(&mut toks)?;
                stmts.push(Stmt::Decomposition { decomps, dynamic });
            }
            "DISTRIBUTE" => {
                toks.next_word()?;
                let decomp = toks.next_ident()?;
                toks.expect_punct('(')?;
                let format = toks.next_ident()?;
                toks.expect_punct(')')?;
                stmts.push(Stmt::Distribute { decomp, format });
            }
            "ALIGN" => {
                toks.next_word()?;
                let mut arrays = vec![toks.next_ident()?];
                while toks.eat_punct_opt(',') {
                    arrays.push(toks.next_ident()?);
                }
                toks.expect_word("WITH")?;
                let decomp = toks.next_ident()?;
                stmts.push(Stmt::Align { arrays, decomp });
            }
            "CALL" | "READ_DATA" => {
                if first == "CALL" {
                    toks.next_word()?;
                }
                toks.expect_word("READ_DATA")?;
                toks.expect_punct('(')?;
                let mut arrays = vec![toks.next_ident()?];
                while toks.eat_punct_opt(',') {
                    arrays.push(toks.next_ident()?);
                }
                toks.expect_punct(')')?;
                stmts.push(Stmt::ReadData { arrays });
            }
            "CONSTRUCT" => {
                toks.next_word()?;
                let name = toks.next_ident()?;
                toks.expect_punct('(')?;
                let nvertices = parse_size(&mut toks)?;
                let mut sections = Vec::new();
                while toks.eat_punct_opt(',') {
                    sections.push(parse_section(&mut toks)?);
                }
                toks.expect_punct(')')?;
                stmts.push(Stmt::Construct {
                    name,
                    nvertices,
                    sections,
                });
            }
            "SET" => {
                toks.next_word()?;
                let distfmt = toks.next_ident()?;
                toks.expect_word("BY")?;
                toks.expect_word("PARTITIONING")?;
                let geocol = toks.next_ident()?;
                toks.expect_word("USING")?;
                let partitioner = toks.next_ident()?;
                stmts.push(Stmt::SetPartition {
                    distfmt,
                    geocol,
                    partitioner,
                });
            }
            "REDISTRIBUTE" => {
                toks.next_word()?;
                let decomp = toks.next_ident()?;
                toks.expect_punct('(')?;
                let distfmt = toks.next_ident()?;
                toks.expect_punct(')')?;
                stmts.push(Stmt::Redistribute { decomp, distfmt });
            }
            "FORALL" => {
                toks.next_word()?;
                let var = toks.next_ident()?;
                toks.expect_punct('=')?;
                let lo = parse_size(&mut toks)?;
                toks.expect_punct(',')?;
                let hi = parse_size(&mut toks)?;
                loop_counter += 1;
                let label = format!("L{loop_counter}");
                let mut body = Vec::new();
                loop {
                    let Some((bidx, braw)) = lines.next() else {
                        return Err(LangError::parse(lineno, "FORALL without END FORALL"));
                    };
                    let blineno = bidx + 1;
                    let Some(bline) = significant(braw) else {
                        continue;
                    };
                    let upper = bline.to_ascii_uppercase();
                    if upper.starts_with("END FORALL") || upper.trim() == "ENDFORALL" {
                        break;
                    }
                    let mut btoks = Lexer::new(&bline, blineno)?;
                    body.push(parse_loop_stmt(&mut btoks)?);
                }
                stmts.push(Stmt::Forall {
                    label,
                    var,
                    lo,
                    hi,
                    body,
                });
            }
            other => {
                return Err(LangError::parse(
                    lineno,
                    format!("unrecognized statement starting with '{other}'"),
                ));
            }
        }
    }

    Ok(Program { stmts })
}

/// Strip comments and the `C$` directive prefix; return `None` for blank /
/// comment-only lines.
fn significant(raw: &str) -> Option<String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    let upper = trimmed.to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("C$") {
        let body = &trimmed[trimmed.len() - rest.trim_start().len()..];
        return Some(body.to_string());
    }
    if upper.starts_with('!') || upper.starts_with("C ") || upper == "C" {
        return None;
    }
    Some(trimmed.to_string())
}

fn parse_decl_list(toks: &mut Lexer) -> Result<Vec<(String, SizeExpr)>, LangError> {
    let mut out = Vec::new();
    loop {
        let name = toks.next_ident()?;
        toks.expect_punct('(')?;
        let size = parse_size(toks)?;
        toks.expect_punct(')')?;
        out.push((name, size));
        if !toks.eat_punct_opt(',') {
            break;
        }
    }
    Ok(out)
}

fn parse_size(toks: &mut Lexer) -> Result<SizeExpr, LangError> {
    if let Some(n) = toks.eat_number_opt() {
        return Ok(SizeExpr::Lit(n as usize));
    }
    let name = toks.next_ident()?;
    if toks.eat_punct_opt('-') {
        let n = toks
            .eat_number_opt()
            .ok_or_else(|| toks.error("expected literal after '-' in size expression"))?;
        return Ok(SizeExpr::NameMinus(name, n as usize));
    }
    Ok(SizeExpr::Name(name))
}

fn parse_section(toks: &mut Lexer) -> Result<ConstructSection, LangError> {
    let kw = toks.next_word()?;
    match kw.as_str() {
        "GEOMETRY" => {
            toks.expect_punct('(')?;
            // First argument is the dimensionality; we infer it from the
            // coordinate list, so just consume it.
            let _dim = parse_size(toks)?;
            let mut axes = Vec::new();
            while toks.eat_punct_opt(',') {
                axes.push(toks.next_ident()?);
            }
            toks.expect_punct(')')?;
            Ok(ConstructSection::Geometry(axes))
        }
        "LOAD" => {
            toks.expect_punct('(')?;
            let weight = toks.next_ident()?;
            toks.expect_punct(')')?;
            Ok(ConstructSection::Load(weight))
        }
        "LINK" => {
            toks.expect_punct('(')?;
            let count = parse_size(toks)?;
            toks.expect_punct(',')?;
            let list1 = toks.next_ident()?;
            toks.expect_punct(',')?;
            let list2 = toks.next_ident()?;
            toks.expect_punct(')')?;
            Ok(ConstructSection::Link {
                count,
                list1,
                list2,
            })
        }
        other => Err(toks.error(format!("unknown CONSTRUCT section '{other}'"))),
    }
}

fn parse_loop_stmt(toks: &mut Lexer) -> Result<LoopStmt, LangError> {
    if toks.peek_word().as_deref() == Some("REDUCE") {
        toks.next_word()?;
        toks.expect_punct('(')?;
        let opname = toks.next_word()?;
        let op = match opname.as_str() {
            "ADD" | "SUM" => ReduceOp::Add,
            "MAX" => ReduceOp::Max,
            "MIN" => ReduceOp::Min,
            other => return Err(toks.error(format!("unknown reduction operator '{other}'"))),
        };
        toks.expect_punct(',')?;
        let target = parse_array_ref(toks)?;
        toks.expect_punct(',')?;
        let (value, _) = parse_expr(toks, 1)?;
        toks.expect_punct(')')?;
        Ok(LoopStmt::Reduce { op, target, value })
    } else {
        let target = parse_array_ref(toks)?;
        toks.expect_punct('=')?;
        let (value, _) = parse_expr(toks, 1)?;
        Ok(LoopStmt::Assign { target, value })
    }
}

fn parse_array_ref(toks: &mut Lexer) -> Result<ArrayRef, LangError> {
    let array = toks.next_ident()?;
    toks.expect_punct('(')?;
    let inner = toks.next_ident()?;
    let index = if toks.eat_punct_opt('(') {
        let var = toks.next_ident()?;
        toks.expect_punct(')')?;
        // inner(var): inner is the indirection array; var must be the loop
        // variable (checked later by the analyzer).
        let _ = var;
        Index::Indirect(inner)
    } else {
        Index::LoopVar
    };
    toks.expect_punct(')')?;
    Ok(ArrayRef { array, index })
}

/// Parse an expression whose root sits `level` levels deep (a statement's
/// value is level 1), returning it with its height: the levels from its
/// root to its deepest leaf. No leaf lies below [`MAX_EXPR_DEPTH`].
fn parse_expr(toks: &mut Lexer, level: usize) -> Result<(Expr, usize), LangError> {
    let (mut lhs, mut height) = parse_term(toks, level)?;
    loop {
        let op = if toks.eat_punct_opt('+') {
            BinOp::Add
        } else if toks.eat_punct_opt('-') {
            BinOp::Sub
        } else {
            break;
        };
        let (rhs, rhs_height) = parse_term(toks, level + 1)?;
        height = 1 + height.max(rhs_height);
        toks.within_depth(level + height - 1)?;
        lhs = Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
    }
    Ok((lhs, height))
}

/// [`parse_expr`] for a product.
fn parse_term(toks: &mut Lexer, level: usize) -> Result<(Expr, usize), LangError> {
    let (mut lhs, mut height) = parse_primary(toks, level)?;
    loop {
        let op = if toks.eat_punct_opt('*') {
            BinOp::Mul
        } else if toks.eat_punct_opt('/') {
            BinOp::Div
        } else {
            break;
        };
        let (rhs, rhs_height) = parse_primary(toks, level + 1)?;
        height = 1 + height.max(rhs_height);
        toks.within_depth(level + height - 1)?;
        lhs = Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
    }
    Ok((lhs, height))
}

/// [`parse_expr`] for a parenthesised group, a literal, an intrinsic call or
/// an array reference.
fn parse_primary(toks: &mut Lexer, level: usize) -> Result<(Expr, usize), LangError> {
    toks.within_depth(level)?;
    if toks.eat_punct_opt('(') {
        let (e, height) = parse_expr(toks, level + 1)?;
        toks.expect_punct(')')?;
        return Ok((e, height + 1));
    }
    if let Some(n) = toks.eat_number_opt() {
        return Ok((Expr::Lit(n), 1));
    }
    // Identifier: intrinsic call or array reference.
    let name = toks
        .peek_word()
        .ok_or_else(|| toks.error("expected expression"))?;
    let intrinsic = match name.as_str() {
        "EFLUX1" => Some((Intrinsic::Eflux1, 2)),
        "EFLUX2" => Some((Intrinsic::Eflux2, 2)),
        "SQRT" => Some((Intrinsic::Sqrt, 1)),
        "ABS" => Some((Intrinsic::Abs, 1)),
        _ => None,
    };
    if let Some((intrinsic, arity)) = intrinsic {
        toks.next_word()?;
        toks.expect_punct('(')?;
        let (first, mut height) = parse_expr(toks, level + 1)?;
        let mut args = vec![first];
        while toks.eat_punct_opt(',') {
            let (arg, arg_height) = parse_expr(toks, level + 1)?;
            height = height.max(arg_height);
            args.push(arg);
        }
        toks.expect_punct(')')?;
        // The one arity check: no kernel mode ever sees a wrong count.
        if args.len() != arity {
            return Err(toks.error(format!(
                "intrinsic {name} takes {arity} argument(s), got {}",
                args.len()
            )));
        }
        return Ok((Expr::Call { intrinsic, args }, height + 1));
    }
    Ok((Expr::Ref(parse_array_ref(toks)?), 1))
}

/// A trivial token stream over one source line.
struct Lexer {
    tokens: Vec<Token>,
    pos: usize,
    line: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Number(f64),
    Punct(char),
}

impl Lexer {
    fn new(line: &str, lineno: usize) -> Result<Self, LangError> {
        let mut tokens = Vec::new();
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '$')
                {
                    i += 1;
                }
                let mut word: String = chars[start..i].iter().collect();
                // Allow REAL*8 as a single keyword.
                if word.eq_ignore_ascii_case("REAL") && i + 1 < chars.len() && chars[i] == '*' {
                    let mut j = i + 1;
                    while j < chars.len() && chars[j].is_ascii_digit() {
                        j += 1;
                    }
                    if j > i + 1 {
                        word = format!("{word}*{}", chars[i + 1..j].iter().collect::<String>());
                        i = j;
                    }
                }
                tokens.push(Token::Word(word.to_ascii_uppercase()));
            } else if c.is_ascii_digit()
                || (c == '.' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit())
            {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E')
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let value: f64 = text
                    .parse()
                    .map_err(|_| LangError::parse(lineno, format!("bad number '{text}'")))?;
                tokens.push(Token::Number(value));
            } else {
                tokens.push(Token::Punct(c));
                i += 1;
            }
        }
        Ok(Lexer {
            tokens,
            pos: 0,
            line: lineno,
        })
    }

    fn error(&self, message: impl Into<String>) -> LangError {
        LangError::parse(self.line, message)
    }

    /// The parse error for an expression that reaches `depth` levels, when
    /// that is past [`MAX_EXPR_DEPTH`].
    fn within_depth(&self, depth: usize) -> Result<(), LangError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.error(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn peek_word(&self) -> Option<String> {
        match self.tokens.get(self.pos) {
            Some(Token::Word(w)) => Some(w.clone()),
            _ => None,
        }
    }

    fn next_word(&mut self) -> Result<String, LangError> {
        match self.tokens.get(self.pos).cloned() {
            Some(Token::Word(w)) => {
                self.pos += 1;
                Ok(w)
            }
            other => Err(self.error(format!("expected a keyword, found {other:?}"))),
        }
    }

    fn next_ident(&mut self) -> Result<String, LangError> {
        self.next_word().map(|w| w.to_ascii_lowercase())
    }

    fn expect_word(&mut self, word: &str) -> Result<(), LangError> {
        let w = self.next_word()?;
        if w == word {
            Ok(())
        } else {
            Err(self.error(format!("expected '{word}', found '{w}'")))
        }
    }

    fn expect_punct(&mut self, p: char) -> Result<(), LangError> {
        if self.eat_punct_opt(p) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{p}', found {:?}",
                self.tokens.get(self.pos)
            )))
        }
    }

    fn eat_punct_opt(&mut self, p: char) -> bool {
        if matches!(self.tokens.get(self.pos), Some(Token::Punct(c)) if *c == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_number_opt(&mut self) -> Option<f64> {
        if let Some(Token::Number(n)) = self.tokens.get(self.pos) {
            let n = *n;
            self.pos += 1;
            Some(n)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 4 program, lightly adapted (READ_DATA call form).
    pub const FIGURE4: &str = r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(end_pt1, end_pt2)
C$      CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$      SET distfmt BY PARTITIONING G USING RSB
C$      REDISTRIBUTE reg(distfmt)
C Loop over edges involving x, y
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
    "#;

    #[test]
    fn parses_figure4() {
        let p = parse_program(FIGURE4).expect("figure 4 should parse");
        assert_eq!(p.stmts.len(), 12);
        assert_eq!(p.loop_labels(), vec!["L1"]);
        // Spot-check a few statements.
        assert!(
            matches!(&p.stmts[0], Stmt::Declare { ty: ElemType::Real, arrays } if arrays.len() == 2)
        );
        assert!(
            matches!(&p.stmts[2], Stmt::Decomposition { dynamic: true, decomps } if decomps.len() == 2)
        );
        match &p.stmts[8] {
            Stmt::Construct { name, sections, .. } => {
                assert_eq!(name, "g");
                assert!(
                    matches!(&sections[0], ConstructSection::Link { list1, list2, .. }
                    if list1 == "end_pt1" && list2 == "end_pt2")
                );
            }
            other => panic!("expected CONSTRUCT, got {other:?}"),
        }
        match &p.stmts[9] {
            Stmt::SetPartition {
                distfmt,
                geocol,
                partitioner,
            } => {
                assert_eq!(distfmt, "distfmt");
                assert_eq!(geocol, "g");
                assert_eq!(partitioner, "rsb");
            }
            other => panic!("expected SET, got {other:?}"),
        }
        match &p.stmts[11] {
            Stmt::Forall { body, var, .. } => {
                assert_eq!(var, "i");
                assert_eq!(body.len(), 2);
                assert!(
                    matches!(&body[0], LoopStmt::Reduce { op: ReduceOp::Add, target, .. }
                    if target.array == "y" && target.index == Index::Indirect("end_pt1".into()))
                );
            }
            other => panic!("expected FORALL, got {other:?}"),
        }
    }

    #[test]
    fn parses_geometry_construct() {
        let src = r#"
            REAL*8 xc(n), yc(n), zc(n)
C$          CONSTRUCT G (n, GEOMETRY(3, xc, yc, zc))
C$          SET fmt BY PARTITIONING G USING RCB
        "#;
        let p = parse_program(src).unwrap();
        match &p.stmts[1] {
            Stmt::Construct { sections, .. } => {
                assert_eq!(
                    sections,
                    &[ConstructSection::Geometry(vec![
                        "xc".into(),
                        "yc".into(),
                        "zc".into()
                    ])]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_assignment_and_arithmetic() {
        let src = "FORALL i = 1, n\n y(ia(i)) = x(ib(i)) * 2.0 + x(ic(i)) / 4\nEND FORALL";
        let p = parse_program(src).unwrap();
        match &p.stmts[0] {
            Stmt::Forall { body, .. } => match &body[0] {
                LoopStmt::Assign { target, value } => {
                    assert_eq!(target.index, Index::Indirect("ia".into()));
                    assert!(matches!(value, Expr::Binary { op: BinOp::Add, .. }));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_direct_loop_index() {
        let src = "FORALL i = 1, n\n y(i) = x(i) + 1\nEND FORALL";
        let p = parse_program(src).unwrap();
        match &p.stmts[0] {
            Stmt::Forall { body, .. } => match &body[0] {
                LoopStmt::Assign { target, .. } => assert_eq!(target.index, Index::LoopVar),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reports_unterminated_forall() {
        let err = parse_program("FORALL i = 1, n\n y(i) = 1").unwrap_err();
        assert!(err.to_string().contains("END FORALL"));
    }

    #[test]
    fn reports_unknown_statement() {
        let err = parse_program("FROBNICATE x").unwrap_err();
        assert!(matches!(err, LangError::Parse { line: 1, .. }));
    }

    #[test]
    fn intrinsic_with_the_wrong_argument_count_is_a_parse_error() {
        for (body, name, arity, got) in [
            ("y(ia(i)) = EFLUX1(x(ia(i)))", "EFLUX1", 2, 1),
            ("y(ia(i)) = SQRT(x(ia(i)), x(ib(i)))", "SQRT", 1, 2),
        ] {
            let src = format!("FORALL i = 1, n\n {body}\nEND FORALL");
            let err = parse_program(&src).unwrap_err();
            assert!(matches!(err, LangError::Parse { line: 2, .. }), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains(name)
                    && msg.contains(&format!("takes {arity} argument(s), got {got}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn an_expression_nested_past_the_limit_is_a_parse_error() {
        // Each shape recurses once per level in every later walk of the
        // tree; unchecked, both exhaust even an 8 MiB stack and abort the
        // process. Here they come back as typed errors on a test thread.
        let past_the_limit = [
            format!("{}x(ia(i)){}", "(".repeat(10_000), ")".repeat(10_000)),
            vec!["x(ia(i))"; 100_000].join(" + "),
        ];
        for value in past_the_limit {
            let src = format!("FORALL i = 1, n\n y(ia(i)) = {value}\nEND FORALL");
            let err = parse_program(&src).unwrap_err();
            let LangError::Parse { line, message } = &err else {
                panic!("{err}");
            };
            assert_eq!(*line, 2);
            assert_eq!(message, "expression nested deeper than 256 levels");
        }
    }

    #[test]
    fn load_section_and_size_arithmetic() {
        let src = "C$ CONSTRUCT G2 (nnode - 1, LOAD(weight))";
        let p = parse_program(src).unwrap();
        match &p.stmts[0] {
            Stmt::Construct {
                nvertices,
                sections,
                ..
            } => {
                assert_eq!(nvertices, &SizeExpr::NameMinus("nnode".into(), 1));
                assert_eq!(sections, &[ConstructSection::Load("weight".into())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comment_lines_are_skipped() {
        let p = parse_program("C this is a comment\n! another\n\nREAL x(n)").unwrap();
        assert_eq!(p.stmts.len(), 1);
    }
}
