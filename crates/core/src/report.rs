//! Plain-text report tables used by the experiment binaries, and the
//! number kernel their cells go through.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::ops::Deref;

/// A simple column-aligned text table with CSV export, used by every
/// figure/table regeneration binary.
///
/// Every cell's bytes live back to back in one `String`, so a row costs
/// one copy per cell and dropping a table frees two buffers.
///
/// # Examples
///
/// ```
/// use coldtall_core::report::TextTable;
///
/// let mut table = TextTable::new(&["tech", "power"]);
/// table.row(&["SRAM", "1.00"]);
/// table.row(&["77K 3T-eDRAM", "0.0004"]);
/// let text = table.render();
/// assert!(text.contains("SRAM"));
/// assert_eq!(table.to_csv().lines().count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    /// The cells back to back: the headers, then each row in order.
    text: String,
    /// Where each cell ends in `text`, in the same order.
    ends: Vec<usize>,
    /// Cells per line: the number of headers.
    columns: usize,
    /// Number of data rows.
    rows: usize,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        let mut table = Self {
            columns: headers.len(),
            ..Self::default()
        };
        table.push_cells(headers);
        table
    }

    /// Appends a row, copying each cell's bytes into the table.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.columns,
            "row width must match header width"
        );
        self.push_cells(cells);
        self.rows += 1;
    }

    fn push_cells(&mut self, cells: &[&str]) {
        for cell in cells {
            self.text.push_str(cell);
            self.ends.push(self.text.len());
        }
    }

    /// Every cell in order: the headers, then each row.
    fn cells(&self) -> impl Iterator<Item = &str> {
        self.ends.iter().scan(0, |start, &end| {
            let cell = &self.text[*start..end];
            *start = end;
            Some(cell)
        })
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Renders the table with aligned columns and a header rule.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths = vec![0; self.columns];
        for (i, cell) in self.cells().enumerate() {
            let width = &mut widths[i % self.columns];
            *width = (*width).max(cell.len());
        }
        let rule = widths.iter().sum::<usize>() + 2 * self.columns.saturating_sub(1);
        let mut out = String::with_capacity((self.rows + 2) * (rule + 1));
        let mut cells = self.cells();
        for line in 0..=self.rows {
            for (column, (&width, cell)) in widths.iter().zip(&mut cells).enumerate() {
                if column > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                // Pad to the byte width by chars, as `{cell:<width$}`
                // does; the last cell's padding would only be trimmed.
                if column + 1 < self.columns {
                    let pad = width.saturating_sub(cell.chars().count());
                    out.extend(std::iter::repeat_n(' ', pad));
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
            if line == 0 {
                out.extend(std::iter::repeat_n('-', rule));
                out.push('\n');
            }
        }
        out
    }

    /// Exports the table as CSV (header line first).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.text.len() + self.ends.len() + 1);
        let mut cells = self.cells();
        for _ in 0..=self.rows {
            for (column, cell) in (&mut cells).take(self.columns).enumerate() {
                if column > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Bytes a [`Sci`] cell holds: any `f64` fits, the longest being
/// `-4.941e-324` at 11.
const SCI_BYTES: usize = 16;

/// `10^i` for `i <= 20`: every scale [`sci`] multiplies or divides by.
const POW10: [u128; 21] = {
    let mut table = [1; 21];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// One [`sci`] cell, held inline: it derefs to its text, and under
/// `{:>w$}` and the other width flags it pads as a `str` does.
#[derive(Clone, Copy)]
pub struct Sci {
    bytes: [u8; SCI_BYTES],
    len: u8,
}

impl Sci {
    const EMPTY: Self = Self {
        bytes: [0; SCI_BYTES],
        len: 0,
    };

    fn push(&mut self, byte: u8) {
        self.bytes[usize::from(self.len)] = byte;
        self.len += 1;
    }

    fn push_str(&mut self, s: &str) {
        let start = usize::from(self.len);
        self.bytes[start..start + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len() as u8;
    }

    /// Appends the low `digits` decimal digits of `n`, zero-padded.
    fn push_digits(&mut self, mut n: u64, digits: usize) {
        let start = usize::from(self.len);
        for slot in self.bytes[start..start + digits].iter_mut().rev() {
            *slot = b'0' + (n % 10) as u8;
            n /= 10;
        }
        self.len += digits as u8;
    }

    /// Appends `n` in decimal.
    fn push_int(&mut self, n: u64) {
        self.push_digits(n, n.checked_ilog10().map_or(1, |d| d as usize + 1));
    }
}

impl Deref for Sci {
    type Target = str;

    fn deref(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).expect("a sci cell holds ASCII")
    }
}

impl fmt::Display for Sci {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self)
    }
}

impl fmt::Debug for Sci {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Lets `core::fmt` write the values [`sci`] leaves to it.
impl fmt::Write for Sci {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if usize::from(self.len) + s.len() > SCI_BYTES {
            return Err(fmt::Error);
        }
        self.push_str(s);
        Ok(())
    }
}

/// Formats a value for a report cell:
///
/// * `0` and `-0` print `0`, and both infinities print `inf`;
/// * `|value|` in `[0.01, 10⁴)` prints `format!("{value:.3}")`;
/// * everything else, NaN included, prints `format!("{value:.3e}")`.
///
/// The digits come from exact integer arithmetic on the double's binary
/// value, rounded half to even as std rounds it. `core::fmt` itself
/// writes only NaN, subnormals, and `|value|` below `2^-53` or from
/// `2^63` up. The cell is inline, so no call allocates.
///
/// ```
/// use coldtall_core::report::sci;
///
/// assert_eq!(&*sci(0.0625), "0.062");
/// assert_eq!(&*sci(-1.5e-7), "-1.500e-7");
/// assert_eq!(format!("[{:>9}]", sci(12345.0)), "[  1.234e4]");
/// ```
#[must_use]
pub fn sci(value: f64) -> Sci {
    let mut cell = Sci::EMPTY;
    if value == 0.0 {
        cell.push_str("0");
        return cell;
    }
    if value.is_infinite() {
        cell.push_str("inf");
        return cell;
    }
    let abs = value.abs();
    let digits = if (0.01..10_000.0).contains(&abs) {
        Some((fixed_digits(abs), None))
    } else {
        exponential_digits(abs).map(|(q, k)| (q, Some(k)))
    };
    let Some((q, exponent)) = digits else {
        write!(cell, "{value:.3e}").expect("every f64 at {:.3e} fits a sci cell");
        return cell;
    };
    if value < 0.0 {
        cell.push(b'-');
    }
    cell.push_int(q / 1000);
    cell.push(b'.');
    cell.push_digits(q % 1000, 3);
    if let Some(k) = exponent {
        cell.push(b'e');
        if k < 0 {
            cell.push(b'-');
        }
        cell.push_int(u64::from(k.unsigned_abs()));
    }
    cell
}

/// A normal double `|v|` as `(m, e)` with `|v| = m · 2^e` and `m` in
/// `[2^52, 2^53)`, so `e + 52 = ⌊log2 |v|⌋`.
fn split(abs: f64) -> (u64, i32) {
    let bits = abs.to_bits();
    (
        (bits & ((1 << 52) - 1)) | 1 << 52,
        (bits >> 52) as i32 - 1075,
    )
}

/// `|v| · 1000` rounded, for `|v|` in `[0.01, 10⁴)`: there `e` lies in
/// `[-59, -39]`, so the low `-e` bits of `m · 1000` are the exact
/// remainder.
fn fixed_digits(abs: f64) -> u64 {
    let (m, e) = split(abs);
    round_half_even(shift_split(u128::from(m) * 1000, -e))
}

/// The four significant digits `q` and the decimal exponent `k` of
/// `|v| ≈ q · 10^(k-3)`, or `None` outside the exact domain
/// `2^-53 <= |v| < 0.01` and `10⁴ <= |v| < 2^63`.
fn exponential_digits(abs: f64) -> Option<(u64, i32)> {
    let (m, e) = split(abs);
    let (q, k) = match e + 52 {
        -53..=-7 => small_digits(m, e),
        13..=62 => large_digits(m, e),
        _ => return None,
    };
    // Rounding 9999.5 or more up gives 10,000: that is 1.000e(k+1).
    Some(if q == 10_000 { (1000, k + 1) } else { (q, k) })
}

/// [`exponential_digits`] below 0.01: `m · 10^(3-k) · 2^e` with one
/// u128 product and one shift per guess at `k`.
fn small_digits(m: u64, e: i32) -> (u64, i32) {
    // ⌊⌊log2 |v|⌋ · log10 2⌋ is `k` or one less.
    let mut k = ((e + 52) * 78_913) >> 18;
    loop {
        let (q, rest) = shift_split(u128::from(m) * POW10[(3 - k) as usize], -e);
        if q >= 10_000 {
            k += 1;
        } else if q < 1000 {
            k -= 1;
        } else {
            return (round_half_even((q, rest)), k);
        }
    }
}

/// [`exponential_digits`] from 10⁴ up: `k` is the digit count of
/// `⌊|v|⌋` less one, and one u64 division by `10^(k-3)` with remainder
/// gives the digits.
fn large_digits(m: u64, e: i32) -> (u64, i32) {
    let (int, fraction) = if e >= 0 {
        (m << e, 0)
    } else {
        (m >> -e, m & ((1 << -e) - 1))
    };
    let k = int.ilog10();
    let scale = POW10[k as usize - 3] as u64;
    // `scale` is even, so a remainder of exactly half of it is a tie
    // only when no binary fraction lies below the units.
    let rest = (int % scale).cmp(&(scale / 2)).then(fraction.cmp(&0));
    (round_half_even((int / scale, rest)), k as i32)
}

/// `⌊n / 2^shift⌋`, and how the remainder compares with half of
/// `2^shift`.
fn shift_split(n: u128, shift: i32) -> (u64, Ordering) {
    let remainder = n & ((1 << shift) - 1);
    ((n >> shift) as u64, remainder.cmp(&(1 << (shift - 1))))
}

/// Rounds a quotient by how its remainder compares with one half, ties
/// to even, as std's `{:.N}` and `{:.Ne}` do.
fn round_half_even((q, rest): (u64, Ordering)) -> u64 {
    match rest {
        Ordering::Less => q,
        Ordering::Equal => q + (q & 1),
        Ordering::Greater => q + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_rng::SmallRng;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(&["a", "benchmark"]);
        t.row(&["x", "1"]);
        t.row(&["long-cell", "2"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("long-cell"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(&["name", "note"]);
        t.row(&["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(&*sci(0.0), "0");
        assert_eq!(&*sci(1.5), "1.500");
        assert_eq!(&*sci(1.5e-7), "1.500e-7");
        assert_eq!(&*sci(f64::INFINITY), "inf");
        assert_eq!(format!("{:<6}|{:>6}", sci(0.5), sci(1.0)), "0.500 | 1.000");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    /// The formatter `sci` replaced, kept as its oracle.
    fn oracle(value: f64) -> String {
        if value == 0.0 {
            "0".to_string()
        } else if value.is_infinite() {
            "inf".to_string()
        } else if (0.01..10_000.0).contains(&value.abs()) {
            format!("{value:.3}")
        } else {
            format!("{value:.3e}")
        }
    }

    /// Asserts `sci` prints `value` as the oracle does, in a cell that
    /// fits.
    fn check(value: f64) {
        let expected = oracle(value);
        assert!(expected.len() <= SCI_BYTES, "{expected} overflows a cell");
        assert_eq!(&*sci(value), expected, "bits {:#018x}", value.to_bits());
    }

    /// `x` and its neighbours up to three ulps either side.
    fn check_ulps(x: f64) {
        let bits = x.to_bits();
        for ulps in 0..=3 {
            check(f64::from_bits(bits + ulps));
            check(f64::from_bits(bits - ulps));
        }
    }

    #[test]
    fn sci_matches_format_on_random_bit_patterns() {
        let mut rng = SmallRng::seed_from_u64(18);
        for _ in 0..1_000_000 {
            check(f64::from_bits(rng.next_u64()));
        }
    }

    #[test]
    fn sci_matches_format_on_log_uniform_values() {
        let mut rng = SmallRng::seed_from_u64(1018);
        for _ in 0..1_000_000 {
            let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
            check(sign * 10f64.powf(rng.gen_f64() * 60.0 - 30.0));
        }
    }

    /// Every four-digit mantissa at every scale the artifacts reach, and
    /// the midpoints between them, where rounding decides the last
    /// digit.
    #[test]
    fn sci_matches_format_on_every_four_digit_mantissa() {
        for p in -25..=25 {
            for d in 1000..=9999 {
                for literal in [format!("{d}e{p}"), format!("{d}.5e{p}")] {
                    check_ulps(literal.parse().expect("valid literal"));
                }
            }
        }
    }

    /// Only dyadic values can be exact ties. The fixed branch's ties are
    /// the odd sixteenths: `i / 2^11` holds those below 16 and the
    /// sixteenths loop the rest. Powers of two reach the exponential
    /// branches' ties (`2^-7` is 7.8125e-3).
    #[test]
    fn sci_matches_format_on_exact_ties() {
        assert_eq!(&*sci(0.0625), "0.062");
        assert_eq!(&*sci(0.1875), "0.188");
        assert_eq!(&*sci(12345.0), "1.234e4");
        assert_eq!(&*sci(0.0078125), "7.812e-3");
        let sixteenths = (1..160_000).step_by(2).map(|i| f64::from(i) / 16.0);
        let powers = (1..2047u64).flat_map(|exponent| [exponent << 52, (exponent << 52) - 1]);
        for x in (1..1 << 15)
            .map(|i| f64::from(i) / 2048.0)
            .chain(sixteenths)
            .chain(powers.map(f64::from_bits))
        {
            check(x);
            check(-x);
        }
    }

    #[test]
    fn sci_matches_format_on_carries_edges_and_extremes() {
        for x in [
            9999.9995,
            9999.9996,
            0.0099995,
            0.0099996,
            99_995_000.0,
            0.01,
            10_000.0,
            1e-16,
            2f64.powi(63),
        ] {
            check_ulps(x);
            check_ulps(-x);
        }
        for x in [
            f64::NAN,
            f64::INFINITY,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            check(x);
            check(-x);
        }
        assert_eq!(&*sci(9999.9995), "9999.999");
        assert_eq!(&*sci(9999.9996), "10000.000");
        assert_eq!(&*sci(0.0099995), "9.999e-3");
        assert_eq!(&*sci(0.0099996), "1.000e-2");
        assert_eq!(&*sci(99_995_000.0), "1.000e8");
        assert_eq!(&*sci(99_985_000.0), "9.998e7");
        assert_eq!(&*sci(-5e-324), "-4.941e-324");
        assert_eq!(&*sci(f64::NAN), "NaN");
    }

    /// The nested-`Vec` table `TextTable` replaced, kept as its oracle.
    struct Oracle {
        headers: Vec<String>,
        rows: Vec<Vec<String>>,
    }

    impl Oracle {
        fn render(&self) -> String {
            let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
            for row in &self.rows {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let mut out = String::new();
            let write_row = |out: &mut String, cells: &[String]| {
                for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                    if i > 0 {
                        out.push_str("  ");
                    }
                    let _ = write!(out, "{cell:<w$}");
                }
                // Trim trailing padding.
                while out.ends_with(' ') {
                    out.pop();
                }
                out.push('\n');
            };
            write_row(&mut out, &self.headers);
            let rule_len = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(rule_len));
            out.push('\n');
            for row in &self.rows {
                write_row(&mut out, row);
            }
            out
        }

        fn to_csv(&self) -> String {
            let escape = |cell: &str| {
                if cell.contains(',') || cell.contains('"') {
                    format!("\"{}\"", cell.replace('"', "\"\""))
                } else {
                    cell.to_string()
                }
            };
            let mut out = String::new();
            let mut write_line = |cells: &[String]| {
                let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
                out.push_str(&line.join(","));
                out.push('\n');
            };
            write_line(&self.headers);
            for row in &self.rows {
                write_line(row);
            }
            out
        }
    }

    /// A random cell: empty, or up to three fragments drawn from ASCII,
    /// multi-byte UTF-8, spaces, commas and quotes.
    fn random_cell(rng: &mut SmallRng) -> String {
        const FRAGMENTS: [&str; 12] = [
            "SRAM", "1.234e-5", "mcf", "77K", "µs", "Δ(T)", "温度", " ", "  ", ",", "\"", "a,\"b\"",
        ];
        (0..rng.gen_range(0..4))
            .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len() as u64) as usize])
            .collect()
    }

    /// The one-buffer `TextTable` renders and exports CSV byte for byte
    /// as the nested-`Vec` oracle does.
    #[test]
    fn table_matches_the_nested_vec_oracle() {
        let mut rng = SmallRng::seed_from_u64(2018);
        for _ in 0..2000 {
            let columns = rng.gen_range(1..9) as usize;
            let cells = |rng: &mut SmallRng| -> Vec<String> {
                (0..columns).map(|_| random_cell(rng)).collect()
            };
            let headers = cells(&mut rng);
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = TextTable::new(&header_refs);
            let mut oracle = Oracle {
                headers,
                rows: Vec::new(),
            };
            for _ in 0..rng.gen_range(0..51) {
                let row = cells(&mut rng);
                table.row(&row.iter().map(String::as_str).collect::<Vec<_>>());
                oracle.rows.push(row);
            }
            assert_eq!(table.render(), oracle.render());
            assert_eq!(table.to_csv(), oracle.to_csv());
            assert_eq!(table.len(), oracle.rows.len());
            assert_eq!(table.is_empty(), oracle.rows.is_empty());
        }
    }
}
