//! The one JSON writer behind every report in this workspace.
//!
//! Reports are emitted by appending to one caller-owned `String`, not
//! through a serializer: the shapes are small and stable, and the
//! byte-identical replay guarantee is easier to state over a fixed
//! emitter. A report's `to_json` reserves a tight upper bound of its
//! document once and its `write_json` appends into that buffer; an
//! embedded report (a fleet's boards) writes straight into its parent's
//! buffer behind a pad. Record rows are arrays of `(literal key,
//! [`Val`])` that a [`Row`] assembles in a stack buffer and appends with
//! one `push_str`, and that [`fields_len`] sizes. The values are
//! integers, flags, [`push_fixed`] floats (what `format!("{v:.prec$}")`
//! prints), escaped strings ([`push_escaped`] — board names, fault-plan
//! labels and kernel names flow into the output, so a quote or
//! backslash in a label would otherwise emit invalid JSON) and
//! [`Val::Secs6`].
//!
//! `Secs6` is how a service report's per-request times reach the
//! document. The report keeps every request once, as integer
//! picosecond ticks (`runtime::Traces`); seconds exist only here, at
//! emission. `Secs6(t)` prints what `format!("{:.6}", to_secs(t))`
//! prints, by integer division: the microsecond count `t / 10^6`
//! rounded on the remainder. The float's error stays under half a tick
//! while `t < 2^51`, so the two can only disagree on an exact decimal
//! tie (`t % 10^6 == 500 000`), where the float sits on one side or the
//! other; ties and larger ticks go through `push_fixed(to_secs(t), 6)`.
//!
//! [`validate`] is a minimal JSON parser (structure only, no value
//! tree) used by tests to prove emitted documents stay well-formed even
//! under hostile labels.

use std::fmt::Write;

use zynq::des::to_secs;

/// Bytes a row collects on the stack between two appends.
const ROW: usize = 256;
/// Literals of a row — pad, keys, end — a [`Row`] remembers: the rows
/// worth it (a trace, a fleet placement) are short.
const LITS: usize = 12;

/// A row under assembly, and what is left in the buffer of the row
/// before it. The buffer only ever holds whole `&str`s and ASCII
/// digits, so its bytes are UTF-8 whenever they are flushed.
///
/// The rows of one table repeat their literals, mostly at the same
/// offsets, and copying them is most of what a row of numbers costs. So
/// a row that went out in one piece leaves behind where each literal
/// lay, as (address, length, offset), and the next row skips a literal
/// that lands on itself: the bytes are there already. Literals are
/// `&'static str`, so equal address and length mean equal bytes; a row
/// is written left to right, so until it is flushed part-way nothing at
/// or past the cursor has been touched since the row before.
pub struct Row {
    buf: [u8; ROW],
    len: usize,
    lits: [(usize, usize, usize); LITS],
    /// Leading entries of `lits` that describe the row before.
    kept: usize,
    /// Whether this row has been flushed part-way.
    spilled: bool,
}

/// Decimal digits of `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// `v` in decimal over the whole of `slot`, zero-padded on the left.
fn fill(slot: &mut [u8], mut v: u64) {
    for digit in slot.iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

impl Default for Row {
    fn default() -> Row {
        Row {
            buf: [0; ROW],
            len: 0,
            lits: [(0, 0, 0); LITS],
            kept: 0,
            spilled: false,
        }
    }
}

impl Row {
    /// Append `pad`, `key value` for every field, then `end` to `out`.
    /// Does not allocate; a row of up to `ROW` (256) bytes without a `Str`
    /// is one append.
    pub fn push(
        &mut self,
        out: &mut String,
        pad: &'static str,
        fields: &[(&'static str, Val)],
        end: &'static str,
    ) {
        self.spilled = false;
        self.lit(out, 0, pad);
        for (i, (key, val)) in fields.iter().enumerate() {
            self.lit(out, i + 1, key);
            match *val {
                Val::Int(v) => fill(self.claim(out, digits(v)), v),
                Val::Flag(v) => self.put(out, if v { "true" } else { "false" }),
                Val::Fixed(v, prec) => self.put_fixed(out, v, prec),
                Val::Secs6(ticks) => self.put_secs6(out, ticks),
                Val::Str(s) => {
                    self.flush(out);
                    push_escaped(out, s);
                }
                Val::Lit(s) => self.put(out, s),
            }
        }
        self.lit(out, fields.len() + 1, end);
        let whole = !self.spilled;
        self.flush(out);
        self.kept = if whole { LITS.min(fields.len() + 2) } else { 0 };
    }

    /// Literal `i` of the row: copied, unless the row before left it here.
    fn lit(&mut self, out: &mut String, i: usize, s: &'static str) {
        let here = (s.as_ptr() as usize, s.len(), self.len);
        if !self.spilled && i < self.kept && self.lits[i] == here {
            self.len += s.len();
        } else {
            if let Some(lit) = self.lits.get_mut(i) {
                *lit = here;
            }
            self.put(out, s);
        }
    }

    /// Append what has collected to `out`.
    fn flush(&mut self, out: &mut String) {
        out.push_str(std::str::from_utf8(&self.buf[..self.len]).expect("strs and ascii digits"));
        self.len = 0;
        self.spilled = true;
    }

    /// The next `n <= ROW` bytes of the buffer, flushing first when they
    /// would not fit.
    fn claim(&mut self, out: &mut String, n: usize) -> &mut [u8] {
        if self.len + n > ROW {
            self.flush(out);
        }
        self.len += n;
        &mut self.buf[self.len - n..self.len]
    }

    fn put(&mut self, out: &mut String, s: &str) {
        if s.len() > ROW {
            self.flush(out);
            out.push_str(s);
        } else {
            self.claim(out, s.len()).copy_from_slice(s.as_bytes());
        }
    }

    /// `int.frac` with `prec` fractional digits.
    fn put_decimal(&mut self, out: &mut String, int: u64, frac: u64, prec: usize) {
        let int_digits = digits(int);
        let slot = self.claim(out, int_digits + usize::from(prec > 0) + prec);
        fill(&mut slot[..int_digits], int);
        if let [point, frac_digits @ ..] = &mut slot[int_digits..] {
            *point = b'.';
            fill(frac_digits, frac);
        }
    }

    /// See [`push_fixed`].
    fn put_fixed(&mut self, out: &mut String, v: f64, prec: usize) {
        let bits = v.to_bits();
        let exp = (bits >> 52) as usize;
        if exp >= 1075 || prec > 9 {
            // Sign bit set (`exp >= 2048`), NaN, infinite or no fraction bits.
            self.flush(out);
            return write!(out, "{v:.prec$}").expect("writing to a String cannot fail");
        }
        // Subnormals (`exp == 0`) share the smallest normal exponent and
        // lack the implicit bit. A shift past 127 leaves nothing of the
        // 83-bit product either way, so clamping it is exact.
        let m = (bits & ((1 << 52) - 1) | u64::from(exp > 0) << 52) as u128;
        let shift = (1075 - exp.max(1)).min(127);
        let pow = 10u64.pow(prec as u32);
        let scaled = (m & ((1 << shift) - 1)) * pow as u128;
        let (mut int, mut frac) = ((m >> shift) as u64, (scaled >> shift) as u64);
        let (rest, half) = (scaled & ((1 << shift) - 1), 1 << (shift - 1));
        // Parity of the whole scaled value; wrapping keeps the low bit.
        let odd = int.wrapping_mul(pow).wrapping_add(frac) & 1 == 1;
        if rest > half || (rest == half && odd) {
            frac += 1;
            if frac == pow {
                (int, frac) = (int + 1, 0);
            }
        }
        self.put_decimal(out, int, frac, prec);
    }

    /// See [`Val::Secs6`].
    fn put_secs6(&mut self, out: &mut String, ticks: u64) {
        let (micros, rest) = (ticks / 1_000_000, ticks % 1_000_000);
        if rest == 500_000 || ticks >= 1 << 51 {
            return self.put_fixed(out, to_secs(ticks), 6);
        }
        let micros = micros + u64::from(rest > 500_000);
        self.put_decimal(out, micros / 1_000_000, micros % 1_000_000, 6);
    }
}

/// Append `v` with `prec` fractional digits, byte for byte what
/// `format!("{v:.prec$}")` prints: the exact binary value rounded half
/// to even at the last digit. `v = m * 2^-shift` splits into an integer
/// part and fraction bits; the fraction bits times `10^prec` fit a
/// `u128`, so the digits and the exact remainder come from one shift.
/// Negative, non-finite and `>= 2^52` values and `prec > 9` — none
/// occurs in a report — take `core::fmt`.
pub fn push_fixed(out: &mut String, v: f64, prec: usize) {
    push_fields(out, &[("", Val::Fixed(v, prec))]);
}

/// [`push_fixed`], or `null` for `None`.
pub fn push_opt_fixed(out: &mut String, v: Option<f64>, prec: usize) {
    match v {
        Some(v) => push_fixed(out, v, prec),
        None => out.push_str("null"),
    }
}

/// Append `s` escaped for a JSON string literal (between the quotes):
/// the two mandatory characters (`"` and `\`), the common control
/// characters by mnemonic, and the rest of the C0 range as `\u00XX`.
/// Clean labels pass through unchanged, one copy per clean run.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if escaped_width(b) == 1 {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 15) as usize] as char);
            }
        }
    }
    out.push_str(&s[clean..]);
}

/// Bytes [`push_escaped`] appends for the byte `b`.
fn escaped_width(b: u8) -> usize {
    match b {
        b'"' | b'\\' | b'\n' | b'\t' | b'\r' => 2,
        0..=0x1f => 6,
        _ => 1,
    }
}

/// Bytes [`push_escaped`] appends for `s`.
pub(crate) fn escaped_len(s: &str) -> usize {
    s.bytes().map(escaped_width).sum()
}

/// [`push_escaped`] into a fresh `String`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Close row `i` of a JSON array of `len` one-line objects.
pub fn row_end(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        "}\n"
    } else {
        "},\n"
    }
}

/// One value of a report row, next to its literal key.
pub enum Val<'a> {
    Int(u64),
    Flag(bool),
    /// Value and fractional digits, as [`push_fixed`] takes them.
    Fixed(f64, usize),
    /// Picosecond ticks, printed as seconds with six fractional digits:
    /// byte for byte `Fixed(to_secs(ticks), 6)`, without the float.
    Secs6(u64),
    /// Escaped on the way out.
    Str(&'a str),
    /// A token that needs no escaping, verbatim.
    Lit(&'a str),
}

/// Append `key value` for every field of a part of a row.
pub fn push_fields(out: &mut String, fields: &[(&'static str, Val)]) {
    Row::default().push(out, "", fields, "");
}

/// Upper bound on the bytes [`push_fields`] appends, exact but for a
/// `true`, for a `Fixed` within one of its next integer digit and for a
/// `Secs6` within a microsecond of it. Values [`push_fixed`] hands to
/// `core::fmt` are not covered.
pub fn fields_len(fields: &[(&str, Val)]) -> usize {
    let width = |val: &Val| match *val {
        Val::Int(v) => digits(v),
        Val::Flag(_) => "false".len(),
        // The common case (seconds, fractions) without the cast.
        Val::Fixed(v, prec) if v < 9.0 => 2 + prec,
        Val::Fixed(v, prec) => digits((v as u64).saturating_add(1)) + 1 + prec,
        // A microsecond on top covers the rounding, float error included.
        Val::Secs6(ticks) => digits(ticks.saturating_add(1_000_000) / 1_000_000_000_000) + 7,
        Val::Str(s) => escaped_len(s),
        Val::Lit(s) => s.len(),
    };
    fields.iter().map(|(key, val)| key.len() + width(val)).sum()
}

/// Validate that `s` is one well-formed JSON document. Returns the
/// parse error (with byte offset) if not. Numbers are checked
/// shallowly (the emitters only write `{:.N}` floats and integers);
/// strings accept the escapes [`json_escape`] can produce plus the
/// rest of RFC 8259's set.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at offset {i}", *c as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {i}"))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad number at offset {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad number at offset {start}"));
        }
    }
    Ok(())
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*i], b'"');
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        *i += 1;
                        for _ in 0..4 {
                            if !b.get(*i).is_some_and(|c| c.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at offset {i}"));
                            }
                            *i += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at offset {i}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte at offset {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*i], b'{');
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at offset {i}"));
        }
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at offset {i}"));
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {i}")),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*i], b'[');
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {i}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_labels_pass_through_unchanged() {
        for s in ["zcu106", "retries=3,deadline=0.5s", "poisson(150.0)", ""] {
            assert_eq!(json_escape(s), s);
        }
    }

    #[test]
    fn hostile_labels_escape_and_validate() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g";
        let doc = format!("{{\"label\": \"{}\"}}", json_escape(nasty));
        validate(&doc).unwrap();
        assert!(!doc.contains('\n'));
    }

    /// `push_fixed` and `Val::Int` against their definitions,
    /// `format!("{v:.p$}")` and `to_string`, for every precision a
    /// report uses and the ones around them.
    #[test]
    fn number_writers_print_what_core_fmt_prints() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use zynq::des::to_secs;

        let mut rng = StdRng::seed_from_u64(0x5EED_F1ED);
        let mut floats = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.0078125,
            0.9999995,
            9.9999995,
            999_999.999_999_5,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::EPSILON,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            1e15,
            1e300,
            f64::MAX,
            -1.25,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut ints = vec![0, 9, 10, 99, 100, u64::MAX, u64::MAX - 1];
        for k in 0..4_096u64 {
            // Dyadic ties: exactly representable, exactly halfway at
            // some precision.
            floats.extend([k as f64 / 2.0, k as f64 / 64.0, k as f64 / 128.0]);
            ints.push(10u64.pow((k % 20) as u32).wrapping_add(k).wrapping_sub(2));
        }
        for _ in 0..20_000 {
            let bits = rng.next_u64();
            floats.push(f64::from_bits(bits));
            // Tick-derived seconds, every magnitude up to 10^16 ticks.
            let ticks = rng.next_u64() % 10u64.pow(1 + (bits % 16) as u32);
            floats.push(to_secs(ticks));
            floats.push(rng.gen_range(0.0..1e7));
            ints.push(bits >> (ticks % 64));
        }
        let mut out = String::new();
        for &v in &floats {
            for p in 0..=9 {
                out.clear();
                push_fixed(&mut out, v, p);
                assert_eq!(
                    out,
                    format!("{v:.p$}"),
                    "{v:e} ({:#x}) at .{p}",
                    v.to_bits()
                );
                if v.is_sign_positive() && v < 4e15 {
                    let bound = fields_len(&[("", Val::Fixed(v, p))]);
                    assert!(
                        out.len() <= bound && bound <= out.len() + 2,
                        "{v:e} at .{p}"
                    );
                }
            }
        }
        for &v in &ints {
            out.clear();
            push_fields(&mut out, &[("", Val::Int(v))]);
            assert_eq!(out, v.to_string());
            assert_eq!(out.len(), fields_len(&[("", Val::Int(v))]));
        }
        out.clear();
        push_opt_fixed(&mut out, None, 6);
        push_opt_fixed(&mut out, Some(0.25), 3);
        assert_eq!(out, "null0.250");
    }

    /// `Secs6` against its definition, `format!("{:.6}", to_secs(t))`:
    /// ten million drawn ticks of every magnitude, every decimal tie of
    /// the first second and a million drawn ones with both neighbours,
    /// and the ticks either side of the `2^51` hand-over to the float.
    #[test]
    fn secs6_prints_what_the_float_prints() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (mut got, mut want) = (String::new(), String::new());
        let mut check = |ticks: u64| {
            got.clear();
            want.clear();
            push_fields(&mut got, &[("", Val::Secs6(ticks))]);
            write!(want, "{:.6}", to_secs(ticks)).unwrap();
            assert_eq!(got, want, "{ticks} ticks");
            let bound = fields_len(&[("", Val::Secs6(ticks))]);
            assert!(
                got.len() <= bound && bound <= got.len() + 1,
                "{ticks} ticks"
            );
        };
        let mut rng = StdRng::seed_from_u64(0x5EC5_0006);
        for i in 0..10_000_000u64 {
            check(rng.next_u64() >> (i % 64));
        }
        for i in 0..2_000_000u64 {
            let micros = if i < 1_000_000 {
                i
            } else {
                rng.next_u64() >> (21 + i % 40)
            };
            let tie = micros * 1_000_000 + 500_000;
            for ticks in [tie - 1, tie, tie + 1] {
                check(ticks);
            }
        }
        for near in [1u64 << 51, (1 << 51) / 1_000_000 * 1_000_000 + 500_000] {
            for ticks in near - 5_000..near + 5_000 {
                check(ticks);
            }
        }
        for ticks in [0, 1, 499_999, 999_999_499_999, 999_999_500_000, u64::MAX] {
            check(ticks);
        }
    }

    /// A `Row` reused from row to row writes what a fresh one writes:
    /// values whose widths move the literals behind them and move them
    /// back, tables of different shapes taking turns, rows that spill on
    /// a string, on a `core::fmt` float and on their own length.
    #[test]
    fn a_reused_row_writes_what_a_fresh_row_writes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x0520_0123);
        let long = "x".repeat(ROW - 20);
        let (mut reused, mut got, mut want) = (Row::default(), String::new(), String::new());
        for _ in 0..40_000 {
            let mut value = || rng.next_u64() >> (rng.next_u64() % 64);
            let (a, b, c) = (value(), value(), value());
            let label = ["completed", "shed", "failed"][(a % 3) as usize];
            let trace = [
                ("    {\"id\": ", Val::Int(a % 1_000)),
                (", \"arrival_s\": ", Val::Secs6(b)),
                (", \"latency_s\": ", Val::Secs6(c % 20_000_000_000_000)),
                (", \"outcome\": \"", Val::Lit(label)),
            ];
            let entry = [
                ("{\"id\": ", Val::Int(b)),
                (", \"board\": ", Val::Int(a % 12)),
            ];
            let spills = [
                ("{\"id\": ", Val::Int(a % 100)),
                (", \"name\": \"", Val::Str(label)),
                ("\", \"slack\": ", Val::Fixed(-(b as f64), 3)),
                (", \"flag\": ", Val::Flag(a % 2 == 0)),
                (
                    ", \"pad\": \"",
                    Val::Lit(&long[..(c % 2) as usize * long.len()]),
                ),
                ("\", \"share\": ", Val::Fixed(c as f64 / 1024.0, 4)),
            ];
            let (pad, fields, end): (_, &[_], _) = match c % 8 {
                0 => ("", &entry, "}, "),
                1 => ("  ", &spills, "}\n"),
                _ => (["", "    "][(a % 2) as usize], &trace, "\"},\n"),
            };
            reused.push(&mut got, pad, fields, end);
            Row::default().push(&mut want, pad, fields, end);
            assert_eq!(got.len(), want.len());
        }
        assert!(got == want, "a reused row diverged");
        assert!(got.contains("\"arrival_s\": 0.000000, \"latency_s\": 0.000000"));
        // A row that overwrites the row before, spills, and then brings
        // a literal back to the offset it had: it has to be copied.
        let table = |x, y| {
            [
                ("A = ", Val::Lit(x)),
                ("B = ", Val::Lit(y)),
                ("C = ", Val::Int(7)),
            ]
        };
        let wide = "x".repeat(ROW - 3);
        got.clear();
        reused.push(&mut got, "", &table("", ""), "\n");
        reused.push(&mut got, "", &table(&wide, "yyyy"), "\n");
        assert!(got.ends_with("xxxB = yyyyC = 7\n"), "{got}");
    }

    #[test]
    fn validator_accepts_report_shapes_and_rejects_breakage() {
        validate("{\"a\": [1, 2.5, -3e4], \"b\": {\"c\": null}, \"d\": true}").unwrap();
        assert!(validate("{\"a\": }").is_err());
        assert!(validate("{\"a\": \"unterminated}").is_err());
        assert!(validate("{\"a\": 1} trailing").is_err());
        assert!(validate("{\"a\": \"raw\"quote\"}").is_err());
    }
}
