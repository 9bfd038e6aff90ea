//! Minimal complex-number support for the Appendix D semiring models.

/// A 32-bit complex number, stored `(re, im)`.
///
/// ComplEx and RotatE embeddings (paper Appendix D) are complex-valued; dense
/// embedding rows hold `2 * d` floats interpreted as `d` interleaved
/// [`Complex32`] values.
///
/// # Examples
///
/// ```
/// use sparse::Complex32;
///
/// let a = Complex32::new(1.0, 2.0);
/// let b = Complex32::new(3.0, -1.0);
/// assert_eq!(a * b, Complex32::new(5.0, 5.0));
/// assert_eq!(a.conj(), Complex32::new(1.0, -2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex32 = Complex32 { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `√(re² + im²)`.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Unit complex number `e^{iθ}` — RotatE constrains relation embeddings
    /// to the unit circle.
    #[inline]
    pub fn from_phase(theta: f32) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Reinterprets an even-length `f32` slice as interleaved complex values.
    ///
    /// # Panics
    ///
    /// Panics if `slice.len()` is odd.
    pub fn slice_from_interleaved(slice: &[f32]) -> Vec<Complex32> {
        assert!(
            slice.len().is_multiple_of(2),
            "interleaved complex slice must have even length"
        );
        slice
            .chunks_exact(2)
            .map(|p| Complex32::new(p[0], p[1]))
            .collect()
    }
}

impl std::ops::Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl std::ops::Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl std::ops::Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl std::ops::Neg for Complex32 {
    type Output = Complex32;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl std::ops::AddAssign for Complex32 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for Complex32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex32::new(2.0, -3.0);
        assert_eq!(z + Complex32::ZERO, z);
        assert_eq!(z * Complex32::ONE, z);
        assert_eq!(z - z, Complex32::ZERO);
        assert_eq!(-z, Complex32::new(-2.0, 3.0));
    }

    #[test]
    fn conjugate_multiplication_gives_norm() {
        let z = Complex32::new(3.0, 4.0);
        let n = z * z.conj();
        assert!((n.re - 25.0).abs() < 1e-6);
        assert!(n.im.abs() < 1e-6);
        assert!((z.abs() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn phase_is_unit_modulus() {
        for theta in [0.0f32, 0.5, 1.0, std::f32::consts::PI, -2.0] {
            let z = Complex32::from_phase(theta);
            assert!((z.abs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn interleaved_parsing() {
        let v = Complex32::slice_from_interleaved(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v, vec![Complex32::new(1.0, 2.0), Complex32::new(3.0, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn interleaved_rejects_odd() {
        let _ = Complex32::slice_from_interleaved(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex32::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex32::new(1.0, -2.0).to_string(), "1-2i");
    }
}
