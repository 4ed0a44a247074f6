//! The one JSON writer behind every report in this workspace.
//!
//! Reports are emitted by appending to one caller-owned `String`, not
//! through a serializer: the shapes are small and stable, and the
//! byte-identical replay guarantee is easier to state over a fixed
//! emitter. A report's `to_json` reserves a tight upper bound of its
//! document once and its `write_json` appends into that buffer; an
//! embedded report (a fleet's boards) writes straight into its parent's
//! buffer behind a pad.
//!
//! Each table has one row definition: a function generic over [`Sink`]
//! that makes the row's typed appends in order — literal keys
//! ([`Sink::lit`]), integers, flags, [`Sink::fixed`] floats (what
//! `format!("{v:.prec$}")` prints), escaped strings ([`Sink::str`] —
//! board names, fault-plan labels and kernel names flow into the
//! output, so a quote or backslash in a label would otherwise emit
//! invalid JSON) and [`Sink::secs6`] times. Run on a [`Line`], the
//! definition writes the row into a 256-byte stack buffer that reaches
//! the document in one `push_str`; run on a [`Width`], it adds up an
//! upper bound on the same row's bytes, which `to_json` reserves. So
//! one definition sizes and writes its row, and the two cannot drift
//! apart. Digits come from a two-digit table; nothing on the row path
//! allocates.
//!
//! `secs6` is how a service report's per-request times reach the
//! document. The report keeps every request once, as integer
//! picosecond ticks (`runtime::Traces`); seconds exist only here, at
//! emission. `secs6(t)` prints what `format!("{:.6}", to_secs(t))`
//! prints, by integer division: the microsecond count `t / 10^6`
//! rounded on the remainder. The float's error stays under half a tick
//! while `t < 2^51`, so the two can only disagree on an exact decimal
//! tie (`t % 10^6 == 500 000`), where the float sits on one side or the
//! other; ties and larger ticks go through `fixed(to_secs(t), 6)`.
//!
//! [`validate`] is a minimal JSON parser (structure only, no value
//! tree) used by tests to prove emitted documents stay well-formed even
//! under hostile labels.

use std::fmt::Write;

use zynq::des::to_secs;

/// Bytes a [`Line`] collects on the stack between two appends to the
/// document.
const ROW: usize = 256;

/// The typed appends a row is made of, in the order they print.
pub trait Sink {
    /// A token that needs no escaping (a key, a pad, a label), verbatim.
    fn lit(&mut self, s: &str);
    /// `v` in decimal.
    fn int(&mut self, v: u64);
    /// `true` or `false`.
    fn flag(&mut self, v: bool);
    /// `v` with `prec` fractional digits, as [`push_fixed`] prints it.
    fn fixed(&mut self, v: f64, prec: usize);
    /// Picosecond ticks as seconds with six fractional digits: byte for
    /// byte `fixed(to_secs(ticks), 6)`, without the float.
    fn secs6(&mut self, ticks: u64);
    /// `s` escaped for a JSON string literal, as [`push_escaped`] does.
    fn str(&mut self, s: &str);
}

/// The [`Sink`] that writes: appends collect in a stack buffer, and
/// [`Line::flush`] — once per row, or when the buffer is full — appends
/// them to the document. The buffer only ever holds whole `&str`s and
/// ASCII, so its bytes are UTF-8 whenever they are flushed.
pub struct Line<'a> {
    out: &'a mut String,
    buf: [u8; ROW],
    len: usize,
}

/// `00` to `99`.
const PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// Decimal digits of `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// `v` in decimal over the whole of `slot`, zero-padded on the left,
/// two digits at a time.
fn fill(slot: &mut [u8], mut v: u64) {
    let mut pairs = slot.rchunks_exact_mut(2);
    for pair in &mut pairs {
        pair.copy_from_slice(&PAIRS[(v % 100) as usize]);
        v /= 100;
    }
    if let [digit] = pairs.into_remainder() {
        *digit = b'0' + (v % 10) as u8;
    }
}

/// `v` as the integer and fractional digits of its `prec`-digit decimal
/// expansion, rounded half to even on the exact binary value: `v = m *
/// 2^-shift` splits into an integer part and fraction bits, and the
/// fraction bits times `10^prec` fit a `u128`, so the digits and the
/// exact remainder come from one shift. `None` for what `core::fmt`
/// prints instead: negative, non-finite and `>= 2^52` values and
/// `prec > 9`, none of which occurs in a report.
fn split_fixed(v: f64, prec: usize) -> Option<(u64, u64)> {
    let bits = v.to_bits();
    let exp = (bits >> 52) as usize;
    if exp >= 1075 || prec > 9 {
        // Sign bit set (`exp >= 2048`), NaN, infinite or no fraction bits.
        return None;
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
    Some((int, frac))
}

impl<'a> Line<'a> {
    /// A line that appends to `out`.
    pub fn new(out: &'a mut String) -> Line<'a> {
        Line {
            out,
            buf: [0; ROW],
            len: 0,
        }
    }

    /// Append what has collected to the document.
    #[inline]
    pub fn flush(&mut self) {
        let row = std::str::from_utf8(&self.buf[..self.len]).expect("strs and ascii digits");
        self.out.push_str(row);
        self.len = 0;
    }

    /// The next `n <= ROW` bytes of the buffer, flushing first when they
    /// would not fit.
    #[inline(always)]
    fn claim(&mut self, n: usize) -> &mut [u8] {
        if self.len + n > ROW {
            self.spill();
        }
        self.len += n;
        &mut self.buf[self.len - n..self.len]
    }

    /// [`Line::flush`] inside a row, off the path of rows that fit.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        self.flush();
    }

    /// A literal longer than the buffer, or a string that needs
    /// escaping: straight to the document.
    #[cold]
    #[inline(never)]
    fn spill_str(&mut self, s: &str, escape: bool) {
        self.flush();
        if escape {
            push_escaped(self.out, s);
        } else {
            self.out.push_str(s);
        }
    }

    /// What `core::fmt` prints of `v`, straight to the document.
    #[cold]
    #[inline(never)]
    fn spill_fmt(&mut self, v: f64, prec: usize) {
        self.flush();
        write!(self.out, "{v:.prec$}").expect("writing to a String cannot fail");
    }

    /// `secs6` of a decimal tie or of a tick count past `2^51`.
    #[cold]
    #[inline(never)]
    fn secs6_by_float(&mut self, ticks: u64) {
        self.fixed(to_secs(ticks), 6);
    }

    /// `int.frac` with `prec <= 9` fractional digits.
    #[inline(always)]
    fn decimal(&mut self, int: u64, frac: u64, prec: usize) {
        let int_digits = digits(int);
        let slot = self.claim(int_digits + usize::from(prec > 0) + prec);
        let (int_slot, rest) = slot.split_at_mut(int_digits);
        fill(int_slot, int);
        if let [point, frac_digits @ ..] = rest {
            *point = b'.';
            fill(frac_digits, frac);
        }
    }
}

// The common appends inline into each row definition, so that a
// literal is a fixed-size copy and a row compiles to straight-line code;
// what a row seldom needs (a spill, a float for `core::fmt`, a tie)
// stays out of line. As plain calls, the appends cost the trace row
// about as much as the field-array loop they replaced.
impl Sink for Line<'_> {
    #[inline(always)]
    fn lit(&mut self, s: &str) {
        if s.len() > ROW {
            self.spill_str(s, false);
        } else {
            self.claim(s.len()).copy_from_slice(s.as_bytes());
        }
    }

    #[inline(always)]
    fn int(&mut self, v: u64) {
        fill(self.claim(digits(v)), v);
    }

    #[inline(always)]
    fn flag(&mut self, v: bool) {
        self.lit(if v { "true" } else { "false" });
    }

    #[inline]
    fn fixed(&mut self, v: f64, prec: usize) {
        match split_fixed(v, prec) {
            Some((int, frac)) => self.decimal(int, frac, prec),
            None => self.spill_fmt(v, prec),
        }
    }

    #[inline(always)]
    fn secs6(&mut self, ticks: u64) {
        let (micros, rest) = (ticks / 1_000_000, ticks % 1_000_000);
        if rest == 500_000 || ticks >= 1 << 51 {
            return self.secs6_by_float(ticks);
        }
        let micros = micros + u64::from(rest > 500_000);
        self.decimal(micros / 1_000_000, micros % 1_000_000, 6);
    }

    #[inline]
    fn str(&mut self, s: &str) {
        if s.bytes().all(|b| escaped_width(b) == 1) {
            self.lit(s);
        } else {
            self.spill_str(s, true);
        }
    }
}

/// The [`Sink`] that counts: an upper bound on the bytes a [`Line`]
/// appends for the same calls, exact but for a `true`, for a `fixed`
/// within one of its next integer digit and for a `secs6` within a
/// microsecond of it. Values `fixed` hands to `core::fmt` are not
/// covered.
#[derive(Default)]
pub struct Width(usize);

impl Sink for Width {
    #[inline]
    fn lit(&mut self, s: &str) {
        self.0 += s.len();
    }

    #[inline]
    fn int(&mut self, v: u64) {
        self.0 += digits(v);
    }

    #[inline]
    fn flag(&mut self, _: bool) {
        self.0 += "false".len();
    }

    #[inline]
    fn fixed(&mut self, v: f64, prec: usize) {
        // The common case (seconds, fractions) without the cast.
        self.0 += if v < 9.0 {
            2 + prec
        } else {
            digits((v as u64).saturating_add(1)) + 1 + prec
        };
    }

    #[inline]
    fn secs6(&mut self, ticks: u64) {
        // A microsecond on top covers the rounding, float error included.
        self.0 += digits(ticks.saturating_add(1_000_000) / 1_000_000_000_000) + 7;
    }

    #[inline]
    fn str(&mut self, s: &str) {
        self.0 += escaped_len(s);
    }
}

/// Append the row `row` makes to `out`, in one flush when it fits the
/// stack buffer.
pub fn write_row(out: &mut String, row: impl FnOnce(&mut Line)) {
    let mut line = Line::new(out);
    row(&mut line);
    line.flush();
}

/// Upper bound on the bytes of the row `row` makes (see [`Width`]).
pub fn width(row: impl FnOnce(&mut Width)) -> usize {
    let mut width = Width::default();
    row(&mut width);
    width.0
}

/// Append `v` with `prec` fractional digits, byte for byte what
/// `format!("{v:.prec$}")` prints: the exact binary value rounded half
/// to even at the last digit.
pub fn push_fixed(out: &mut String, v: f64, prec: usize) {
    write_row(out, |line| line.fixed(v, prec));
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

    /// `fixed` and `int` against their definitions, `format!("{v:.p$}")`
    /// and `to_string`, for every precision a report uses and the ones
    /// around them, with `Width` bounding what they print.
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
                    let bound = width(|w| w.fixed(v, p));
                    assert!(
                        out.len() <= bound && bound <= out.len() + 2,
                        "{v:e} at .{p}"
                    );
                }
            }
        }
        for &v in &ints {
            out.clear();
            write_row(&mut out, |line| line.int(v));
            assert_eq!(out, v.to_string());
            assert_eq!(out.len(), width(|w| w.int(v)));
        }
        out.clear();
        push_opt_fixed(&mut out, None, 6);
        push_opt_fixed(&mut out, Some(0.25), 3);
        assert_eq!(out, "null0.250");
    }

    /// `secs6` against its definition, `format!("{:.6}", to_secs(t))`:
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
            write_row(&mut got, |line| line.secs6(ticks));
            write!(want, "{:.6}", to_secs(ticks)).unwrap();
            assert_eq!(got, want, "{ticks} ticks");
            let bound = width(|w| w.secs6(ticks));
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

    /// A `Line` writes what its appends print one by one, and `Width`
    /// bounds it, for rows that spill: on an escaped string, on a
    /// `core::fmt` float, on a literal longer than the buffer and on
    /// their own length, and rows reusing the line after any of these.
    #[test]
    fn a_line_writes_what_its_appends_print() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn row<S: Sink>(s: &mut S, [a, b, c]: [u64; 3], slack: f64, label: &str, long: &str) {
            s.lit("  {\"id\": ");
            s.int(a);
            s.lit(", \"name\": \"");
            s.str(label);
            s.lit("\", \"at\": ");
            s.secs6(b);
            s.lit(", \"slack\": ");
            s.fixed(slack, 3);
            s.lit(", \"ok\": ");
            s.flag(a % 2 == 0);
            s.lit(", \"pad\": \"");
            s.lit(&long[..(c % 3) as usize * long.len() / 2]);
            s.lit("\", \"share\": ");
            s.fixed(c as f64 / 1024.0, 4);
            s.lit("}\n");
        }

        let mut rng = StdRng::seed_from_u64(0x0520_0123);
        let long = "x".repeat(2 * ROW + 2);
        let (mut got, mut want) = (String::new(), String::new());
        let mut line = Line::new(&mut got);
        for _ in 0..20_000 {
            let mut value = || rng.next_u64() >> (rng.next_u64() % 64);
            let values = [value(), value(), value()];
            let [a, b, c] = values;
            let label = ["zcu106", "a\"b\\c\n\u{1}", ""][(a % 3) as usize];
            // Negative, and so printed by `core::fmt`, every fourth row.
            let slack = if a % 4 == 0 { -(b as f64) } else { to_secs(b) };
            row(&mut line, values, slack, label, &long);
            line.flush();
            let start = want.len();
            writeln!(
                want,
                "  {{\"id\": {a}, \"name\": \"{}\", \"at\": {:.6}, \"slack\": {slack:.3}, \
                 \"ok\": {}, \"pad\": \"{}\", \"share\": {:.4}}}",
                json_escape(label),
                to_secs(b),
                a % 2 == 0,
                &long[..(c % 3) as usize * long.len() / 2],
                c as f64 / 1024.0,
            )
            .unwrap();
            if slack.is_sign_positive() {
                let bound = width(|w| row(w, values, slack, label, &long));
                assert!(want.len() - start <= bound, "{}", &want[start..]);
            }
        }
        assert!(got == want, "a line diverged");
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
