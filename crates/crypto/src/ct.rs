//! Constant-time helpers.
//!
//! Comparison of MACs, session keys and credential material must not leak
//! the position of the first mismatching byte through timing. These helpers
//! aggregate differences with bitwise OR before the final comparison.

/// Constant-time equality of two byte slices.
///
/// Returns `false` immediately for length mismatch (lengths are public for
/// all uses in this workspace: tags, digests and keys have fixed sizes).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Constant-time conditional select: returns `a` when `choice` is true.
pub fn ct_select_u64(choice: bool, a: u64, b: u64) -> u64 {
    let mask = (choice as u64).wrapping_neg();
    (a & mask) | (b & !mask)
}

/// Zero a buffer. Uses a volatile write loop so the compiler cannot elide
/// the wipe of credential material going out of scope. With `hw`, the one
/// place the crate allows `unsafe`.
#[allow(unsafe_code)]
pub fn wipe(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        // SAFETY: `b` is a valid, aligned, exclusive reference.
        unsafe { std::ptr::write_volatile(b, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn unequal_slices() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"", b"x"));
    }

    #[test]
    fn select() {
        assert_eq!(ct_select_u64(true, 1, 2), 1);
        assert_eq!(ct_select_u64(false, 1, 2), 2);
    }

    #[test]
    fn wipe_zeroes() {
        let mut buf = [1u8, 2, 3];
        wipe(&mut buf);
        assert_eq!(buf, [0, 0, 0]);
    }
}
