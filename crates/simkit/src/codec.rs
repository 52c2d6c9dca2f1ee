//! The one `u32` ↔ little-endian byte codec of the workspace: how host
//! programs lay `u32` arrays out in MRAM and read them back.

/// Converts `u32`s to little-endian bytes.
#[must_use]
pub fn u32s_to_bytes(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    out.extend(vals.iter().flat_map(|v| v.to_le_bytes()));
    out
}

/// Converts little-endian bytes to `u32`s; a trailing partial word is
/// ignored.
#[must_use]
pub fn bytes_to_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// The per-element reference form.
    fn u32s_to_bytes_ref(vals: &[u32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(vals.len() * 4);
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn codec_matches_the_per_element_form_and_roundtrips() {
        let mut rng = SimRng::seeded(3);
        for n in [0, 1, 16, 4_097] {
            let mut vals = rng.u32s_below(n, u32::MAX);
            if let Some(v) = vals.first_mut() {
                *v = u32::MAX;
            }
            let bytes = u32s_to_bytes(&vals);
            assert_eq!(bytes, u32s_to_bytes_ref(&vals), "n = {n}");
            assert_eq!(bytes.len(), 4 * n);
            assert_eq!(bytes_to_u32s(&bytes), vals, "n = {n}");
        }
        assert_eq!(u32s_to_bytes(&[0xDEAD_BEEF]), [0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(bytes_to_u32s(&[1, 0, 0, 0, 9]), [1]);
    }
}
