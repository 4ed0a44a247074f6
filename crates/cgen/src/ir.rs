//! The loop-nest program representation shared by the C emitter, the HLS
//! model and the direct evaluator.

/// Role of a kernel parameter (flat 64-bit word array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamRole {
    /// Written by the host, read by the kernel.
    Input,
    /// Written by the kernel, read by the host.
    Output,
    /// Compiler temporary exported to the PLM (decoupled mode).
    Temp,
}

/// A kernel parameter or local array.
#[derive(Debug, Clone, PartialEq)]
pub struct CParam {
    pub name: String,
    /// Number of 64-bit words.
    pub words: usize,
    pub role: ParamRole,
}

/// An affine address over the loop variables of the enclosing nest
/// (outermost loop is variable 0).
#[derive(Debug, Clone, PartialEq)]
pub struct AffineAddr {
    pub coeffs: Vec<i64>,
    pub constant: i64,
}

impl AffineAddr {
    /// Evaluate at a loop-variable vector.
    pub fn eval(&self, vars: &[i64]) -> i64 {
        self.constant
            + self
                .coeffs
                .iter()
                .zip(vars)
                .map(|(c, v)| c * v)
                .sum::<i64>()
    }

    /// Number of multiply terms a naive C compiler / HLS front end emits
    /// for this address (non-zero, non-unit strides).
    pub fn mul_terms(&self) -> usize {
        self.coeffs.iter().filter(|&&c| c != 0 && c != 1).count()
    }

    /// Number of addition terms.
    pub fn add_terms(&self) -> usize {
        let nz = self.coeffs.iter().filter(|&&c| c != 0).count();
        nz.saturating_sub(1) + usize::from(self.constant != 0 && nz > 0)
    }

    /// Render as a C expression over `vars`.
    pub fn to_c(&self, vars: &[String]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (d, &c) in self.coeffs.iter().enumerate() {
            match c {
                0 => {}
                1 => parts.push(vars[d].clone()),
                _ => parts.push(format!("{c} * {}", vars[d])),
            }
        }
        if self.constant != 0 || parts.is_empty() {
            parts.push(self.constant.to_string());
        }
        parts.join(" + ")
    }
}

/// A flat array access `name[addr]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrAccess {
    pub array: String,
    pub addr: AffineAddr,
}

/// Scalar C expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    Load(ArrAccess),
    Const(f64),
    /// Reference to a scalar local (accumulator).
    Var(String),
    Bin {
        op: cfdlang::BinOp,
        lhs: Box<CExpr>,
        rhs: Box<CExpr>,
    },
}

impl CExpr {
    /// Count `(loads, flops)` in the expression.
    pub fn counts(&self) -> (usize, usize) {
        match self {
            CExpr::Load(_) => (1, 0),
            CExpr::Const(_) | CExpr::Var(_) => (0, 0),
            CExpr::Bin { lhs, rhs, .. } => {
                let (l1, f1) = lhs.counts();
                let (l2, f2) = rhs.counts();
                (l1 + l2, f1 + f2 + 1)
            }
        }
    }

    /// All array accesses in the expression.
    pub fn loads(&self) -> Vec<&ArrAccess> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads<'a>(&'a self, out: &mut Vec<&'a ArrAccess>) {
        match self {
            CExpr::Load(a) => out.push(a),
            CExpr::Const(_) | CExpr::Var(_) => {}
            CExpr::Bin { lhs, rhs, .. } => {
                lhs.collect_loads(out);
                rhs.collect_loads(out);
            }
        }
    }
}

/// A statement of the loop program.
#[derive(Debug, Clone, PartialEq)]
pub enum CStmt {
    /// `for (int var = 0; var < extent; ++var) body`
    For {
        var: String,
        extent: usize,
        body: Vec<CStmt>,
    },
    /// `double name = init;`
    DeclScalar { name: String, init: f64 },
    /// `name += expr;` (scalar accumulator)
    AccumScalar { name: String, expr: CExpr },
    /// `array[addr] = expr;`
    Store { target: ArrAccess, expr: CExpr },
    /// `array[addr] += expr;` (in-memory accumulation)
    StoreAccum { target: ArrAccess, expr: CExpr },
}

/// A complete kernel: parameters (exported arrays), locals (arrays kept
/// inside the accelerator in non-decoupled mode) and the loop program.
#[derive(Debug, Clone, PartialEq)]
pub struct CKernel {
    pub name: String,
    pub params: Vec<CParam>,
    pub locals: Vec<CParam>,
    pub body: Vec<CStmt>,
}

impl CKernel {
    /// Find a parameter or local by name.
    pub fn array(&self, name: &str) -> Option<&CParam> {
        self.params
            .iter()
            .chain(self.locals.iter())
            .find(|p| p.name == name)
    }

    /// Depth-first visit of all statements.
    pub fn visit_stmts<'a>(&'a self, f: &mut impl FnMut(&'a CStmt)) {
        fn walk<'a>(stmts: &'a [CStmt], f: &mut impl FnMut(&'a CStmt)) {
            for s in stmts {
                f(s);
                if let CStmt::For { body, .. } = s {
                    walk(body, f);
                }
            }
        }
        walk(&self.body, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_addr_eval_and_c() {
        let a = AffineAddr {
            coeffs: vec![121, 11, 1],
            constant: 0,
        };
        assert_eq!(a.eval(&[1, 2, 3]), 146);
        let vars = vec!["i0".into(), "i1".into(), "i2".into()];
        assert_eq!(a.to_c(&vars), "121 * i0 + 11 * i1 + i2");
        assert_eq!(a.mul_terms(), 2);
        assert_eq!(a.add_terms(), 2);
    }

    #[test]
    fn affine_addr_constant_only() {
        let a = AffineAddr {
            coeffs: vec![0, 0],
            constant: 7,
        };
        assert_eq!(a.to_c(&["x".into(), "y".into()]), "7");
        assert_eq!(a.mul_terms(), 0);
        assert_eq!(a.add_terms(), 0);
    }

    #[test]
    fn expr_counts() {
        let load = |n: &str| {
            CExpr::Load(ArrAccess {
                array: n.into(),
                addr: AffineAddr {
                    coeffs: vec![1],
                    constant: 0,
                },
            })
        };
        let e = CExpr::Bin {
            op: cfdlang::BinOp::Mul,
            lhs: Box::new(load("a")),
            rhs: Box::new(CExpr::Bin {
                op: cfdlang::BinOp::Add,
                lhs: Box::new(load("b")),
                rhs: Box::new(CExpr::Const(1.0)),
            }),
        };
        assert_eq!(e.counts(), (2, 2));
        assert_eq!(e.loads().len(), 2);
    }
}
