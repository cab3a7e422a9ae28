//! Double-precision complex scalar type.
//!
//! The workspace deliberately avoids external numeric crates, so the complex
//! scalar is defined here. It implements the usual field operations, the
//! elementary functions needed by the macromodeling flow (`abs`, `sqrt`,
//! `exp`, `ln`, `powi`), and mixed-operand arithmetic with `f64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// ```
/// use pim_linalg::Complex64;
///
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number `0 + im·i`.
    #[inline]
    pub const fn from_imag(im: f64) -> Self {
        Complex64 { re: 0.0, im }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Magnitude (modulus) `|z|`, computed with `hypot` to avoid spurious
    /// overflow/underflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns infinities if `z` is exactly zero, mirroring `1.0 / 0.0`.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.abs_sq();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        // audit:allow(float-eq): exact-zero fast path; sqrt(0) must return bitwise zero
        if self.re == 0.0 && self.im == 0.0 {
            return Complex64::ZERO;
        }
        let r = self.abs();
        let re = ((r + self.re) / 2.0).sqrt();
        let im_mag = ((r - self.re) / 2.0).sqrt();
        Complex64::new(re, if self.im >= 0.0 { im_mag } else { -im_mag })
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex64::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Principal natural logarithm.
    pub fn ln(self) -> Self {
        Complex64::new(self.abs().ln(), self.arg())
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Complex64::ONE;
        }
        let invert = n < 0;
        if invert {
            n = -n;
        }
        let mut base = self;
        let mut acc = Complex64::ONE;
        let mut e = n as u32;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        if invert {
            acc.recip()
        } else {
            acc
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        // Smith's algorithm for robust complex division.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex64::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex64::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

macro_rules! impl_assign {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Complex64 {
            #[inline]
            fn $method(&mut self, rhs: Complex64) {
                *self = *self $op rhs;
            }
        }
        impl $trait<f64> for Complex64 {
            #[inline]
            fn $method(&mut self, rhs: f64) {
                *self = *self $op Complex64::from_real(rhs);
            }
        }
    };
}

impl_assign!(AddAssign, add_assign, +);
impl_assign!(SubAssign, sub_assign, -);
impl_assign!(MulAssign, mul_assign, *);
impl_assign!(DivAssign, div_assign, /);

macro_rules! impl_mixed {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<f64> for Complex64 {
            type Output = Complex64;
            #[inline]
            fn $method(self, rhs: f64) -> Complex64 {
                self $op Complex64::from_real(rhs)
            }
        }
        impl $trait<Complex64> for f64 {
            type Output = Complex64;
            #[inline]
            fn $method(self, rhs: Complex64) -> Complex64 {
                Complex64::from_real(self) $op rhs
            }
        }
    };
}

impl_mixed!(Add, add, +);
impl_mixed!(Sub, sub, -);
impl_mixed!(Mul, mul, *);
impl_mixed!(Div, div, /);

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |acc, z| acc + z)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |acc, z| acc + *z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn close(a: Complex64, b: Complex64) -> bool {
        approx_eq(a.re, b.re, 1e-12) && approx_eq(a.im, b.im, 1e-12)
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert!(close(a + b, Complex64::new(-2.0, 2.5)));
        assert!(close(a - b, Complex64::new(4.0, 1.5)));
        assert!(close(a * b, Complex64::new(-3.0 - 1.0, 0.5 - 6.0)));
        assert!(close((a / b) * b, a));
        assert!(close(-a, Complex64::new(-1.0, -2.0)));
    }

    #[test]
    fn division_is_robust_for_small_and_large_components() {
        let a = Complex64::new(1e-150, 1e150);
        let b = Complex64::new(1e150, 1e-150);
        let q = a / b;
        assert!(q.is_finite());
        // a/b = (a*conj(b))/|b|^2; dominant term: i * 1e150/1e150 = i
        assert!(approx_eq(q.im, 1.0, 1e-10));
    }

    #[test]
    fn conj_abs_arg() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, 4.0));
        assert!(approx_eq(z.abs(), 5.0, 1e-15));
        assert!(approx_eq(z.abs_sq(), 25.0, 1e-15));
        assert!(approx_eq(Complex64::I.arg(), std::f64::consts::FRAC_PI_2, 1e-15));
    }

    #[test]
    fn sqrt_and_exp_and_ln() {
        let z = Complex64::new(-4.0, 0.0);
        assert!(close(z.sqrt(), Complex64::new(0.0, 2.0)));
        let w = Complex64::new(0.3, -1.7);
        assert!(close(w.sqrt() * w.sqrt(), w));
        assert!(close(w.exp().ln(), w));
        // Euler identity
        let e = Complex64::from_imag(std::f64::consts::PI).exp();
        assert!(approx_eq(e.re, -1.0, 1e-12) && e.im.abs() < 1e-12);
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex64::new(0.9, 0.4);
        let mut acc = Complex64::ONE;
        for _ in 0..7 {
            acc *= z;
        }
        assert!(close(z.powi(7), acc));
        assert!(close(z.powi(-3) * z.powi(3), Complex64::ONE));
        assert!(close(z.powi(0), Complex64::ONE));
    }

    #[test]
    fn recip_and_mixed_ops() {
        let z = Complex64::new(2.0, -1.0);
        assert!(close(z * z.recip(), Complex64::ONE));
        assert!(close(2.0 * z, Complex64::new(4.0, -2.0)));
        assert!(close(z / 2.0, Complex64::new(1.0, -0.5)));
        assert!(close(1.0 + Complex64::I, Complex64::new(1.0, 1.0)));
    }

    #[test]
    fn sum_iterator() {
        let v = [Complex64::new(1.0, 1.0); 4];
        let s: Complex64 = v.iter().sum();
        assert!(close(s, Complex64::new(4.0, 4.0)));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!(approx_eq(z.abs(), 2.0, 1e-14));
        assert!(approx_eq(z.arg(), 0.7, 1e-14));
    }
}
