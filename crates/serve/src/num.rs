//! The wire protocol's number kernel: appends a finite `f64` as exactly
//! the bytes `format!("{n}")` produces, and an integer as its decimal
//! digits, without going through `core::fmt`.
//!
//! The digits come from Ryu (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal `digits × 10^e` that
//! reads back as the same `f64`, found with 128-bit multiplications by
//! tabulated powers of five. One rule differs from the published
//! algorithm. When two shortest candidates are equally close, std's
//! formatter takes the larger, so this kernel rounds half *up* where
//! Ryu rounds half to even: the double that is exactly
//! 1658206780088562.25 prints as `1658206780088562.3`, not `.2`. Ties
//! rounding up need no record of whether the removed digits of the
//! midpoint were all zero, so only the lower bound's record is kept.
//!
//! The digits are then laid out as `Display` lays them out: plain
//! decimal, never an exponent, so `5e-324` and `f64::MAX` print every
//! one of their hundreds of digits. The tests compare every byte with
//! `format!("{x}")`, which is used nowhere else for wire numbers.

/// Explicit mantissa bits of an IEEE 754 double.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an IEEE 754 double.
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each power of five in [`POW5`] and of each inverse in
/// [`POW5_INV`].
const POW5_BITS: i32 = 125;

/// `5^i` for `i < 326`, scaled to its top [`POW5_BITS`] bits. Read for
/// binary exponents below zero. Derived at compile time, like
/// [`POW5_INV`]; the sizes are the published Ryu tables'.
static POW5: [u128; 326] = pow5_table();
/// `⌊2^(b - 1 + 125) / 5^i⌋ + 1` for `i < 342`, where `b` is the bit
/// length of `5^i`. Read for binary exponents of zero and above.
static POW5_INV: [u128; 342] = pow5_inv_table();

/// Limbs of the compile-time integers: 960 bits hold `5^341` (792 bits)
/// and the numerator `2^959` the inverse table divides down.
const LIMBS: usize = 15;

/// A little-endian multi-limb unsigned integer, for table building.
type Big = [u64; LIMBS];

const fn mul5(mut x: Big) -> Big {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let product = x[i] as u128 * 5 + carry;
        x[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
    assert!(carry == 0, "table integer overflows its limbs");
    x
}

/// `⌊x / 5⌋`.
const fn div5(mut x: Big) -> Big {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | x[i] as u128;
        x[i] = (cur / 5) as u64;
        rem = cur % 5;
    }
    x
}

const fn bit_len(x: &Big) -> i32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as i32 + 64 - x[i].leading_zeros() as i32;
        }
    }
    0
}

const fn limb(x: &Big, i: usize) -> u128 {
    if i < LIMBS {
        x[i] as u128
    } else {
        0
    }
}

/// The 128 bits of `x` starting at bit `shift`.
const fn bits_at(x: &Big, shift: i32) -> u128 {
    let i = shift as usize / 64;
    let offset = shift as u32 % 64;
    let low = limb(x, i) | limb(x, i + 1) << 64;
    if offset == 0 {
        low
    } else {
        low >> offset | limb(x, i + 2) << (128 - offset)
    }
}

const fn pow5_table() -> [u128; 326] {
    let mut table = [0u128; 326];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = bit_len(&pow);
        assert!(bits == pow5bits(i as i32), "pow5bits disagrees with 5^i");
        table[i] = if bits >= POW5_BITS {
            bits_at(&pow, bits - POW5_BITS)
        } else {
            bits_at(&pow, 0) << (POW5_BITS - bits)
        };
        pow = mul5(pow);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 342] {
    // ⌊2^j / 5^i⌋ = ⌊⌊2^TOP / 5^i⌋ / 2^(TOP - j)⌋ for any TOP ≥ j, so
    // one numerator divided by five per row serves every row.
    const TOP: i32 = 64 * LIMBS as i32 - 1;
    let mut table = [0u128; 342];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut quotient = [0u64; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < table.len() {
        let bits = bit_len(&pow);
        assert!(bits == pow5bits(i as i32), "pow5bits disagrees with 5^i");
        table[i] = bits_at(&quotient, TOP - (bits - 1 + POW5_BITS)) + 1;
        pow = mul5(pow);
        quotient = div5(quotient);
        i += 1;
    }
    table
}

/// The bit length of `5^e`, for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `value` (nonzero).
fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m × mul / 2^shift⌋` for `64 ≤ shift < 192`, exact.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// The shortest `(digits, e)` with `digits × 10^e` inside the rounding
/// interval of the nonzero double with these IEEE fields; of equally
/// short candidates the closest, and of two equally close the larger.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The value is m2 × 2^e2, with e2 lowered by 2 so the interval's
    // bounds mv ± 2 (upper) and mv - 1 - mm_shift (lower, nearer when
    // the mantissa is a power of two) are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // An even mantissa rounds to itself from either bound.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale the interval by 10^-e10 with one table multiplication each.
    let (e10, mut vr, mut vp, mut vm);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = -e2 + q as i32 + POW5_BITS + pow5bits(q as i32) - 1;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        // At most one of the lower bound, mv and the upper bound is a
        // multiple of five. When it is mv, ties rounding up leave
        // nothing to record.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let shift = q as i32 - (pow5bits(i) - POW5_BITS);
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        if q <= 1 {
            // With q ≤ 1 a bound scales exactly iff it has a trailing
            // zero bit: the lower one iff mm_shift is 1, the upper one
            // (mv + 2) always.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate.
    let mut removed = 0;
    let digits = if vm_is_trailing_zeros {
        // Rare: the lower bound may itself be the answer, so track
        // whether its dropped digits were all zero.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (digits, e10 + removed)
}

/// `"00"` through `"99"`, two ASCII digits per pair.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes the two digits of `pair` (below 100) just before `end`;
/// returns where they start.
fn put_pair(buf: &mut [u8; 20], end: usize, pair: u32) -> usize {
    let at = pair as usize * 2;
    buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
    end - 2
}

/// Writes `v` in decimal at the end of `buf`; returns where it starts.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut start = buf.len();
    // Eight digits at a time in 32-bit arithmetic, then pairs.
    while v >= 100_000_000 {
        let mut low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        for _ in 0..4 {
            start = put_pair(buf, start, low % 100);
            low /= 100;
        }
    }
    let mut v = v as u32;
    while v >= 100 {
        start = put_pair(buf, start, v % 100);
        v /= 100;
    }
    if v >= 10 {
        put_pair(buf, start, v)
    } else {
        buf[start - 1] = b'0' + v as u8;
        start - 1
    }
}

/// Appends ASCII bytes. Masking to seven bits lets each `push` take
/// the one-byte path.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.extend(bytes.iter().map(|&b| char::from(b & 0x7f)));
}

fn push_zeros(out: &mut String, n: i32) {
    out.extend(std::iter::repeat_n('0', n as usize));
}

/// Appends `v` in decimal, as `format!("{v}")` would.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = decimal(v, &mut buf);
    push_ascii(out, &buf[start..]);
}

/// Appends finite `v` as exactly the bytes `format!("{v}")` produces.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "non-finite values have no decimal form");
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        out.push('0');
        return;
    }
    let (digits, e) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0u8; 20];
    let start = decimal(digits, &mut buf);
    let digits = &buf[start..];
    let n = digits.len() as i32;
    // The value is 0.digits × 10^point.
    let point = e + n;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, -point);
        push_ascii(out, digits);
    } else if point < n {
        let (whole, fraction) = digits.split_at(point as usize);
        push_ascii(out, whole);
        out.push('.');
        push_ascii(out, fraction);
    } else {
        push_ascii(out, digits);
        push_zeros(out, point - n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_rng::SmallRng;

    /// Asserts the kernel prints finite `x` as `Display` does; returns
    /// whether `x` was finite.
    fn check(x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        let mut out = String::new();
        push_f64(&mut out, x);
        assert_eq!(out, format!("{x}"), "bits {:#018x}", x.to_bits());
        true
    }

    #[test]
    fn matches_display_on_random_bit_patterns() {
        let mut rng = SmallRng::seed_from_u64(15);
        let mut finite = 0;
        while finite < 1_000_000 {
            finite += usize::from(check(f64::from_bits(rng.next_u64())));
        }
    }

    /// Every biased exponent with the extreme and middle mantissas:
    /// these reach every table row the kernel reads.
    #[test]
    fn matches_display_on_every_exponent() {
        let mantissas = [0, 1, 2, 1 << 51, (1 << 52) - 2, (1 << 52) - 1];
        for exponent in 0u64..=2046 {
            for mantissa in mantissas {
                let bits = exponent << 52 | mantissa;
                check(f64::from_bits(bits));
                check(-f64::from_bits(bits));
            }
        }
    }

    #[test]
    fn matches_display_near_powers_of_ten() {
        for k in -325..=308 {
            let bits = format!("1e{k}")
                .parse::<f64>()
                .expect("valid literal")
                .to_bits();
            for ulps in 0..=3 {
                check(f64::from_bits(bits.wrapping_add(ulps)));
                check(f64::from_bits(bits.wrapping_sub(ulps)));
            }
        }
    }

    #[test]
    fn matches_display_on_integers() {
        for n in 0..1u64 << 20 {
            check(n as f64);
        }
        for base in [1u64 << 53, 1 << 60] {
            for n in base - 4096..base + 4096 {
                check(n as f64);
            }
        }
    }

    #[test]
    fn matches_display_on_extremes() {
        for x in [0.0, -0.0, 5e-324, f64::MIN_POSITIVE, f64::MAX, f64::MIN] {
            assert!(check(x));
        }
    }

    /// Exact midpoints between two shortest candidates round up, as
    /// std does; round half to even would print the lower one.
    #[test]
    fn ties_round_up_like_display() {
        for (bits, expected) in [
            (0x4317_9085_685d_83c9, "1658206780088562.3"),
            (0x42ea_8090_bb0f_6d84, "233115890514796.13"),
            (0x4300_0000_0000_0002, "562949953421312.3"),
        ] {
            let x = f64::from_bits(bits);
            let mut out = String::new();
            push_f64(&mut out, x);
            assert_eq!(out, expected);
            assert!(check(x) && check(-x));
        }
    }

    #[test]
    fn integers_match_display() {
        let mut rng = SmallRng::seed_from_u64(20);
        let samples = (0..64)
            .flat_map(|shift| [1u64 << shift, (1u64 << shift) - 1])
            .chain((0..10_000).map(|_| rng.next_u64() >> rng.gen_range(0..64)))
            .chain([0, 9, 10, 99, 100, u64::MAX]);
        for n in samples {
            let mut out = String::from("x");
            push_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }
}
