//! The seeded cfdlang program generator the generated-program tests
//! share. It writes sources the six examples never reach: one to three
//! kernels chained through name-matched handoffs; tensors of rank 1 to
//! 4 with extents 1 to 12 (extent 1 gives degenerate loops);
//! contractions across two or three operands (one of them possibly
//! twice, as `S` in `S # S # u`, the first possibly a parenthesised
//! element-wise expression) and within one (a trace), sometimes
//! contracted again (`A # B . [[1 2]] . [[0 1]]`), down to a scalar, or
//! inside an element-wise term; element-wise chains over tensors,
//! scalars and literals; and a statement that reads its own output
//! (`c = x + c # s . [[1 2]]`, or `c = c # s . [[1 2]]` alone). A
//! tensor is zero where its own statement reads it, so the same shape
//! also reads data in its place: the previous statement's result or an
//! input (`c = x + y # s . [[1 2]]`, or `c = y # s . [[1 2]]`).
//! [`Coverage`] counts what it wrote, so a weakened generator fails its
//! test.

// Each test crate that includes this module uses part of it.
#![allow(dead_code)]

/// Words a generated tensor holds at most, and iteration points a
/// statement spans at most: small enough that a debug build compiles
/// a program on five boards in milliseconds.
const MAX_WORDS: usize = 1728;
const MAX_POINTS: usize = 20_000;

/// splitmix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// True with probability `percent` / 100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() - 1)]
    }
}

fn words(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// What the generated programs covered, so a weakened generator fails.
#[derive(Default, Debug)]
pub struct Coverage {
    pub kernels: [usize; 4],
    pub ranks: [usize; 5],
    pub unit_extents: usize,
    pub contractions: usize,
    pub three_operand_products: usize,
    pub repeated_operands: usize,
    pub parenthesized_operands: usize,
    pub chained_contractions: usize,
    pub scalar_results: usize,
    pub mixed_statements: usize,
    pub traces: usize,
    pub elementwise: usize,
    pub self_reads: usize,
    pub pure_self_reads: usize,
    /// Statements of the self-read shape whose contraction reads data:
    /// an earlier statement's result or an input.
    pub carried_reads: usize,
}

/// One kernel under construction.
struct Kernel {
    /// Kernel index: it prefixes every input so that only handoffs link.
    index: usize,
    decls: Vec<String>,
    stmts: Vec<String>,
    /// Tensors a statement may read: the handoff, inputs and results.
    readable: Vec<(String, Vec<usize>)>,
    /// The previous statement's result (at first, the handoff): the
    /// next statement usually reads it, so that few results are dead.
    last: Option<(String, Vec<usize>)>,
    inputs: usize,
    temps: usize,
}

impl Kernel {
    fn shape_text(shape: &[usize]) -> String {
        let dims: Vec<String> = shape.iter().map(|e| e.to_string()).collect();
        format!("[{}]", dims.join(" "))
    }

    /// Declare a fresh external input of `shape`.
    fn input(&mut self, shape: &[usize]) -> String {
        let name = format!("x{}_{}", self.index, self.inputs);
        self.inputs += 1;
        self.decls
            .push(format!("var input {name} : {}", Self::shape_text(shape)));
        self.readable.push((name.clone(), shape.to_vec()));
        name
    }

    /// A tensor of `shape` to read: an existing one when there is one
    /// (usually), else a fresh input.
    fn operand(&mut self, rng: &mut Rng, shape: &[usize]) -> String {
        let existing: Vec<String> = self
            .readable
            .iter()
            .filter(|(_, s)| s == shape)
            .map(|(n, _)| n.clone())
            .collect();
        if !existing.is_empty() && rng.chance(70) {
            return rng.pick(&existing).clone();
        }
        self.input(shape)
    }

    /// Declare the statement target `name` of `shape`, an output or a
    /// local.
    fn target(&mut self, name: &str, shape: &[usize], output: bool) {
        let kind = if output { "var output" } else { "var" };
        self.decls
            .push(format!("{kind} {name} : {}", Self::shape_text(shape)));
    }
}

/// A random shape of rank `rank` holding at most `MAX_WORDS` words;
/// about one extent in seven is 1.
fn shape(rng: &mut Rng, rank: usize) -> Vec<usize> {
    let mut shape: Vec<usize> = (0..rank)
        .map(|_| if rng.chance(15) { 1 } else { rng.range(2, 12) })
        .collect();
    while words(&shape) > MAX_WORDS {
        let largest = (0..rank).max_by_key(|&d| shape[d]).unwrap();
        shape[largest] = (shape[largest] / 2).max(1);
    }
    shape
}

/// An element-wise expression of `shape`: two to four terms joined by
/// `+ - *`, some of them scalars or literals, at least one a tensor of
/// `shape`, with an occasional literal division and parentheses.
fn elementwise(k: &mut Kernel, rng: &mut Rng, shape: &[usize], cov: &mut Coverage) -> String {
    cov.elementwise += 1;
    let terms = rng.range(2, 4);
    let tensor_at = rng.range(0, terms - 1);
    let mut expr = String::new();
    for t in 0..terms {
        let term = if t == tensor_at {
            match &k.last {
                Some((name, s)) if s == shape => name.clone(),
                _ => k.operand(rng, shape),
            }
        } else if rng.chance(60) {
            k.operand(rng, shape)
        } else if rng.chance(50) {
            k.operand(rng, &[])
        } else {
            rng.range(1, 9).to_string()
        };
        let term = if rng.chance(15) {
            format!("{term} / {}", rng.range(2, 7))
        } else {
            term
        };
        if t == 0 {
            expr = term;
        } else {
            let op = rng.pick(&["+", "-", "*"]);
            expr = format!("{expr} {op} {term}");
            if t + 1 < terms && rng.chance(30) {
                expr = format!("({expr})");
            }
        }
    }
    expr
}

/// A contraction and its result shape: two or three operands whose
/// paired dimensions have equal extents, or one operand with a traced
/// pair, sometimes contracted again. The result has rank 0 to 4.
fn contraction(k: &mut Kernel, rng: &mut Rng, cov: &mut Coverage) -> (String, Vec<usize>) {
    if rng.chance(15) {
        // A trace: `T . [[i j]]` over two equal-extent dimensions.
        cov.traces += 1;
        let rank = rng.range(1, 2);
        let mut t_shape = shape(rng, rank);
        let mut e = rng.range(1, 12);
        while words(&t_shape) * e * e > MAX_WORDS {
            e = (e / 2).max(1);
            t_shape.iter_mut().for_each(|d| *d = (*d / 2).max(1));
        }
        let (i, j) = (rng.range(0, t_shape.len()), rng.range(0, t_shape.len()));
        let (i, j) = (i.min(j), i.max(j) + 1);
        t_shape.insert(i, e);
        t_shape.insert(j, e);
        let t = k.input(&t_shape);
        let result: Vec<usize> = (0..t_shape.len())
            .filter(|&d| d != i && d != j)
            .map(|d| t_shape[d])
            .collect();
        return (format!("{t} . [[{i} {j}]]"), result);
    }
    cov.contractions += 1;
    let (decls, readable, inputs) = (k.decls.len(), k.readable.len(), k.inputs);
    loop {
        // Start over from this statement's first draw.
        k.decls.truncate(decls);
        k.readable.truncate(readable);
        k.inputs = inputs;
        // The first operand: any readable tensor of rank >= 1, or fresh.
        let first: Vec<(String, Vec<usize>)> = k
            .readable
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .cloned()
            .collect();
        let (a, a_shape) = match &k.last {
            Some((name, s)) if !s.is_empty() && rng.chance(75) => (name.clone(), s.clone()),
            _ if !first.is_empty() && rng.chance(50) => rng.pick(&first).clone(),
            _ => {
                let rank = rng.range(1, 4);
                let s = shape(rng, rank);
                (k.input(&s), s)
            }
        };
        // Sometimes an element-wise sum or product of it instead.
        let a = if rng.chance(15) {
            let b = if rng.chance(50) {
                k.operand(rng, &a_shape)
            } else {
                k.operand(rng, &[])
            };
            format!("({a} {} {b})", rng.pick(&["+", "-", "*"]))
        } else {
            a
        };
        let mut names = vec![a];
        let mut dims = a_shape.clone();
        let mut paired = vec![false; dims.len()];
        let mut pairs = Vec::new();
        let operands = if rng.chance(25) { 3 } else { 2 };
        for _ in 1..operands {
            let open: Vec<usize> = (0..dims.len()).filter(|&d| !paired[d]).collect();
            if open.is_empty() {
                break;
            }
            let contracted = rng.range(1, open.len().min(2));
            let mut sources: Vec<usize> = Vec::new();
            while sources.len() < contracted {
                let d = *rng.pick(&open);
                if !sources.contains(&d) {
                    sources.push(d);
                }
            }
            // The operand's dimensions: the contracted extents plus up
            // to two free ones, in a random order. A square operand
            // (`S` of `S # S # u`) has one of each, of equal extent.
            let square = contracted == 1 && rng.chance(30);
            let mut own: Vec<Option<usize>> = sources.iter().map(|&d| Some(d)).collect();
            for _ in 0..if square { 1 } else { rng.range(0, 2) } {
                own.push(None);
            }
            for i in (1..own.len()).rev() {
                own.swap(i, rng.range(0, i));
            }
            let free = if square {
                vec![dims[sources[0]]]
            } else {
                shape(rng, own.iter().filter(|o| o.is_none()).count())
            };
            let mut free = free.into_iter();
            let b_shape: Vec<usize> = own
                .iter()
                .map(|o| match o {
                    Some(d) => dims[*d],
                    None => free.next().unwrap(),
                })
                .collect();
            for (offset, o) in own.iter().enumerate() {
                paired.push(o.is_some());
                if let Some(d) = o {
                    paired[*d] = true;
                    pairs.push((*d, dims.len() + offset));
                }
            }
            dims.extend(&b_shape);
            // Usually reuse a tensor of that shape, so that one operand
            // can appear twice in a product.
            let same: Vec<String> = k
                .readable
                .iter()
                .filter(|(_, s)| *s == b_shape)
                .map(|(n, _)| n.clone())
                .collect();
            let b = if !same.is_empty() && rng.chance(60) {
                rng.pick(&same).clone()
            } else {
                k.input(&b_shape)
            };
            names.push(b);
        }
        let mut result: Vec<usize> = (0..dims.len())
            .filter(|&d| !paired[d])
            .map(|d| dims[d])
            .collect();
        let points = words(&dims) / pairs.iter().map(|&(a, _)| dims[a]).product::<usize>();
        if pairs.is_empty()
            || (result.is_empty() && !rng.chance(20))
            || result.len() > 4
            || words(&result) > MAX_WORDS
            || points > MAX_POINTS
        {
            continue;
        }
        if names.len() == 3 {
            cov.three_operand_products += 1;
        }
        if (1..names.len()).any(|i| names[..i].contains(&names[i])) {
            cov.repeated_operands += 1;
        }
        if names[0].starts_with('(') {
            cov.parenthesized_operands += 1;
        }
        let pairs: Vec<String> = pairs.iter().map(|(a, b)| format!("[{a} {b}]")).collect();
        let mut expr = format!("{} . [{}]", names.join(" # "), pairs.join(" "));
        // A second contraction of the result over two equal extents.
        let equal = (0..result.len())
            .flat_map(|i| (i + 1..result.len()).map(move |j| (i, j)))
            .find(|&(i, j)| result[i] == result[j]);
        if let Some((i, j)) = equal.filter(|_| rng.chance(50)) {
            cov.chained_contractions += 1;
            expr = format!("{expr} . [[{i} {j}]]");
            result.remove(j);
            result.remove(i);
        }
        if result.is_empty() {
            cov.scalar_results += 1;
        }
        return (expr, result);
    }
}

/// One kernel reading `handoff` (the previous kernel's output) and
/// writing `output`; returns its source and the output's shape.
fn kernel(
    index: usize,
    handoff: Option<&(String, Vec<usize>)>,
    output: &str,
    rng: &mut Rng,
    cov: &mut Coverage,
) -> (Vec<String>, Vec<usize>) {
    let mut k = Kernel {
        index,
        decls: Vec::new(),
        stmts: Vec::new(),
        readable: Vec::new(),
        last: handoff.cloned(),
        inputs: 0,
        temps: 0,
    };
    if let Some((name, shape)) = handoff {
        k.decls
            .push(format!("var input {name} : {}", Kernel::shape_text(shape)));
        k.readable.push((name.clone(), shape.clone()));
    }
    let statements = rng.range(1, 4);
    let mut out_shape = Vec::new();
    for i in 0..statements {
        let last = i + 1 == statements;
        let name = if last {
            output.to_string()
        } else {
            k.temps += 1;
            format!("t{}", k.temps - 1)
        };
        let rhs = if rng.chance(20) {
            // A statement that reads its own output: `c = x + c # s .
            // [[r-1 r]]`, where `s` is square over c's last extent, or
            // the pure self-contraction `c = c # s . [[r-1 r]]`, which
            // alone lowers to one statement reading what it writes. Its
            // own output reads as zeros, so half the time the contraction
            // reads data of c's shape instead: the previous statement's
            // result (a written tensor's earlier value) or an input.
            let c_shape = match &k.last {
                Some((_, s)) if (1..=3).contains(&s.len()) && rng.chance(60) => s.clone(),
                _ => {
                    let rank = rng.range(1, 3);
                    shape(rng, rank)
                }
            };
            let rank = c_shape.len();
            let m = c_shape[rank - 1];
            let square = k.input(&[m, m]);
            let read = if rng.chance(50) {
                cov.carried_reads += 1;
                match &k.last {
                    Some((last, shape)) if *shape == c_shape => last.clone(),
                    _ => k.operand(rng, &c_shape),
                }
            } else {
                cov.self_reads += 1;
                name.clone()
            };
            let own = format!("{read} # {square} . [[{} {rank}]]", rank - 1);
            let rhs = if rng.chance(40) {
                cov.pure_self_reads += usize::from(read == name);
                own
            } else {
                let x = match &k.last {
                    Some((last, shape)) if *shape == c_shape => last.clone(),
                    _ => k.operand(rng, &c_shape),
                };
                format!("{x} + {own}")
            };
            out_shape = c_shape;
            rhs
        } else if rng.chance(55) {
            let (expr, shape) = contraction(&mut k, rng, cov);
            out_shape = shape;
            if rng.chance(25) {
                // The contraction as a term of an element-wise expression.
                cov.mixed_statements += 1;
                let term = k.operand(rng, &out_shape);
                format!("{term} {} ({expr})", rng.pick(&["+", "-", "*"]))
            } else {
                expr
            }
        } else {
            let target = match &k.last {
                Some((_, s)) if !s.is_empty() && rng.chance(75) => s.clone(),
                _ => {
                    let rank = rng.range(1, 4);
                    shape(rng, rank)
                }
            };
            out_shape = target.clone();
            elementwise(&mut k, rng, &target, cov)
        };
        k.target(&name, &out_shape, last || rng.chance(20));
        k.stmts.push(format!("{name} = {rhs}"));
        k.readable.push((name.clone(), out_shape.clone()));
        k.last = Some((name, out_shape.clone()));
    }
    for (_, shape) in &k.readable {
        cov.ranks[shape.len()] += 1;
        cov.unit_extents += shape.iter().filter(|&&e| e == 1).count();
    }
    let mut lines = k.decls;
    lines.extend(k.stmts);
    (lines, out_shape)
}

/// The program of `seed`: one to three kernels, kernel `i` reading
/// kernel `i - 1`'s output `h{i-1}`. A one-kernel program is written
/// as a plain source half the time.
pub fn program(seed: u64, cov: &mut Coverage) -> (String, usize) {
    let mut rng = Rng(seed);
    let count = rng.range(1, 3);
    cov.kernels[count] += 1;
    let plain = count == 1 && rng.chance(50);
    let mut source = String::new();
    let mut handoff: Option<(String, Vec<usize>)> = None;
    for i in 0..count {
        let output = format!("h{i}");
        let (lines, shape) = kernel(i, handoff.as_ref(), &output, &mut rng, cov);
        if plain {
            for line in lines {
                source.push_str(&format!("{line}\n"));
            }
        } else {
            source.push_str(&format!("kernel k{i} {{\n"));
            for line in lines {
                source.push_str(&format!("\t{line}\n"));
            }
            source.push_str("}\n");
        }
        handoff = Some((output, shape));
    }
    (source, count)
}

/// A single-edit mutant of the ASCII `source`: one character deleted,
/// swapped with the next or replaced, one line dropped or repeated, or a
/// `0` inserted. `seed` picks the edit and where it lands.
pub fn mutant(source: &str, seed: u64) -> String {
    const ALPHABET: &[u8] = b"0123456789 \t\n[]{}()#.,=+-*/:_acdehikrstuvx";
    let mut rng = Rng(seed);
    let mut bytes = source.as_bytes().to_vec();
    let at = rng.range(0, bytes.len() - 1);
    match rng.range(0, 5) {
        0 => {
            bytes.remove(at);
        }
        1 => bytes.swap(at, (at + 1).min(source.len() - 1)),
        2 => bytes[at] = *rng.pick(ALPHABET),
        3 | 4 => {
            let mut lines: Vec<&str> = source.lines().collect();
            let line = rng.range(0, lines.len() - 1);
            if rng.chance(50) {
                lines.remove(line);
            } else {
                let repeated = lines[line];
                lines.insert(line, repeated);
            }
            bytes = format!("{}\n", lines.join("\n")).into_bytes();
        }
        _ => bytes.insert(at, b'0'),
    }
    String::from_utf8(bytes).expect("an ASCII edit of an ASCII source")
}

/// The program count: `CFD_GENERATED_PROGRAMS`, default 200.
pub fn program_count() -> u64 {
    std::env::var("CFD_GENERATED_PROGRAMS")
        .ok()
        .map(|n| n.parse().expect("CFD_GENERATED_PROGRAMS is a count"))
        .unwrap_or(200)
}
